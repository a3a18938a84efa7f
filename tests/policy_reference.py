"""Brute-force references for the policy-graph planner, its exact
evaluation and the batched feedback likelihood, and random models with
noisy symbols to run them on.

``full_history_policies`` lists every deterministic history-dependent tree
policy of a (small) model, lexicographic over per-node choices, and
``tree_policy`` builds one, as a ``PolicyGraph`` laid out as a tree, from
its per-node choice indices; ``first_best_policy`` scores them all under
one model and returns the first of highest value.  ``best_tree`` finds that
policy by a recursion over tree nodes instead, which reaches horizons past
enumeration; ``PlanningContext`` reads each plan off the oracle's belief DP
and must match its value.  ``played_tree`` unrolls any policy into what it
plays along every feedback path, so policies of different shapes compare.
``brute_force_policy_value`` is a policy's value as a sum over state and
symbol paths, which ``pors.evaluate_policy_value`` computes by pushing
(node, state) rows, and ``brute_force_markov_value`` the same sum for a
Markov episode policy, which ``oracle.evaluate_markov_policy`` computes by
pushing (state, action) joints.  ``trace_log_likelihood`` is the exact
filter of one model on its own, which ``pors.feedback_log_likelihood`` runs
for a whole class at once, on the walk ``walked_steps_reference`` reads
off a trace.  A trace is one (h, action, Feedback) per step, as
``Recorder`` sees them arrive at an agent's ``observe``; ``play_policy``
records the trace of one episode of a policy graph.
"""

from itertools import product
import math

import numpy as np

from hsilab.agents import MarkovEpisodePolicy, run_episode
from hsilab.core import Feedback, encode_state
from hsilab.envs import EnvModel
from hsilab.pors import PolicyGraph, evaluate_policy_value


def level_node_counts(dims):
    """Nodes per level of a feedback tree for these dimensions."""
    return [dims.n_evidence_rows ** (h - 1) for h in range(1, dims.horizon + 1)]


def full_history_policies(dims):
    """Every full-history tree policy, lexicographic over per-node choice
    indices (choice = action * n_query_sets + query_set_index), nodes level
    by level then by node index, the last node's choice varying fastest."""
    n_choice = dims.n_actions * len(dims.query_sets())
    counts = level_node_counts(dims)
    starts = np.cumsum([0] + counts).tolist()
    return [
        tree_policy(dims, [assign[lo:hi] for lo, hi in zip(starts, starts[1:])])
        for assign in product(range(n_choice), repeat=sum(counts))
    ]


def tree_policy(dims, choices):
    """The tree policy with ``choices[h - 1][node]`` at each node, where
    choice = action * n_query_sets + query_set_index, as a policy graph:
    levels are numbered in turn, level-h node i's child under row r is
    level-(h+1) node ``i * n_evidence_rows + r``, and last-level nodes lead
    back to themselves."""
    qsets = dims.query_sets()
    n_q, b = len(qsets), dims.n_evidence_rows
    starts = np.cumsum([0] + [len(level) for level in choices]).tolist()
    flat = [c for level in choices for c in level]
    children = [
        tuple(starts[h + 1] + i * b + r for r in range(b))
        if h + 1 < len(choices) else (starts[h] + i,) * b
        for h, level in enumerate(choices)
        for i in range(len(level))
    ]
    return PolicyGraph(
        tuple(c // n_q for c in flat),
        tuple(qsets[c % n_q] for c in flat),
        tuple(children),
    )


def played_tree(policy, dims):
    """What a policy plays along every feedback path, in tree layout:
    per step h, the actions and the queries at the nodes the policy reaches
    after each sequence of h - 1 kernel rows, rows of the latest step
    varying fastest."""
    actions, queries, level = [], [], [0]
    for h in range(1, dims.horizon + 1):
        actions.append(tuple(policy.actions[n] for n in level))
        queries.append(tuple(policy.queries[n] for n in level))
        level = [policy.children[n][r] for n in level for r in range(dims.n_evidence_rows)]
    return tuple(actions), tuple(queries)


def brute_force_policy_value(model, policy):
    """Exact expected episode reward of a policy, by enumeration: the sum,
    over every sequence of states and emitted symbols, of the sequence's
    probability times the rewards of the actions the policy plays at the
    nodes the sequence's feedback reaches.  Symbols come from the model's
    emission tables, read off each state's hidden values; a model without
    emissions emits None.  The policy steps to ``policy.children[node][row]``
    with row ``model.evidence_index`` of the step's feedback, as an agent
    does."""
    dims = model.dims
    V, H = dims.alphabet_size, dims.horizon
    sv = model.state_vectors
    joint = model.joint_transitions() if H > 1 else None
    symbols = range(dims.n_observations) if model.emissions else [None]
    total = 0.0
    for path in product(range(model.n_states), symbols, repeat=H):
        prob, node, earned = 1.0, 0, 0.0
        for h in range(1, H + 1):
            s, o = path[2 * h - 2], path[2 * h - 1]
            action, query = policy.actions[node], policy.queries[node]
            prob *= model.initial[s] if h == 1 else joint[h - 2, prev, last, s]
            if o is not None:
                hidden = [sv[s, i] for i in range(dims.d) if i not in query]
                code = sum(int(v) * V**j for j, v in enumerate(hidden))
                prob *= model.emissions[(h, query)][o, code]
            earned += model.rewards[h - 1, s, action]
            hsi = tuple((i, int(sv[s, i])) for i in query)
            node = policy.children[node][
                model.evidence_index(h, Feedback(query, hsi, o, 0.0))
            ]
            prev, last = s, action
        total += prob * earned
    return total


def brute_force_markov_value(model, policy):
    """Exact expected episode reward of a Markov episode policy, by
    enumeration: the sum, over every sequence of states, of the sequence's
    probability times the rewards of the actions played.  A
    ``MarkovEpisodePolicy`` plays ``policy.action(h, code, action)``, where
    code is the revealed value code (``encode_state`` of the queried
    sub-states) of the step-(h-1) state and action the step-(h-1) action;
    for any other policy (``UniformMarkovPolicy``) the sum also runs over
    every action sequence, each of probability A ** -H."""
    dims = model.dims
    H, A = dims.horizon, dims.n_actions
    sv = model.state_vectors
    joint = model.joint_transitions() if H > 1 else None
    uniform = not isinstance(policy, MarkovEpisodePolicy)
    total = 0.0
    for states in product(range(model.n_states), repeat=H):
        for actions in product(range(A), repeat=H) if uniform else [None]:
            prob, earned, prev, last = 1.0, 0.0, None, None
            for h, s in enumerate(states, start=1):
                if uniform:
                    action = actions[h - 1]
                    prob /= A
                else:
                    code = None if prev is None else encode_state(
                        [sv[prev, i] for i in policy.query], dims.alphabet_size
                    )
                    action = policy.action(h, code, last)
                prob *= model.initial[s] if h == 1 else joint[h - 2, prev, last, s]
                earned += model.rewards[h - 1, s, action]
                prev, last = s, action
            total += prob * earned
    return total


def first_best_policy(model, policies):
    """(index, policy, value) of the first policy of highest value."""
    values = [evaluate_policy_value(model, p) for p in policies]
    j = int(np.argmax(values))
    return j, policies[j], values[j]


def best_tree(model):
    """The lexicographically first optimal full-history tree policy.

    A tree policy's value is a sum over its nodes, and once a node's choice
    is fixed its child subtrees add up independently.  So the recursion
    takes, at each reached node, the first choice whose reward plus best
    child values is highest; unreached nodes keep choice 0.  A node's row
    is its joint mass over states, pushed to the children with
    ``evaluate_policy_value``'s arithmetic.  Its cost grows like (choices x
    branches) ** horizon.
    """
    dims = model.dims
    H = dims.horizon
    qsets = dims.query_sets()
    n_q = len(qsets)
    b = dims.n_evidence_rows
    joint = model.joint_transitions() if H > 1 else None

    def solve(h, node, row):
        best = None
        for choice in range(dims.n_actions * n_q):
            a, qi = divmod(choice, n_q)
            value = float(row @ model.rewards[h - 1, :, a])
            picks = [(h, node, choice)]
            if h < H:
                branches = row * model.evidence(h, qsets[qi])
                for child, w in enumerate(branches, start=node * b):
                    if w.any():
                        sub = solve(h + 1, child, w @ joint[h - 1, :, a, :])
                        value += sub[0]
                        picks += sub[1]
            if best is None or value > best[0]:
                best = (value, picks)
        return best

    choices = [[0] * n for n in level_node_counts(dims)]
    for h, node, choice in solve(1, 0, np.asarray(model.initial, float))[1]:
        choices[h - 1][node] = choice
    return tree_policy(dims, choices)


def random_hidden_observation_model(gen, dims):
    """Fully random model with noisy symbols: every probability row is a
    Dirichlet draw, so all traces have positive probability."""
    S, A, H, O = dims.n_states, dims.n_actions, dims.horizon, dims.n_observations
    n_hidden = dims.alphabet_size ** (dims.d - dims.d_query)
    emissions = {}
    for h in range(1, H + 1):
        for q in dims.query_sets():
            emissions[(h, q)] = gen.dirichlet(np.ones(O), size=n_hidden).T.copy()
    return EnvModel.from_joint(
        name="random-hidden-obs",
        dims=dims,
        class_tag="Class2",
        initial=gen.dirichlet(np.ones(S)),
        joint=gen.dirichlet(np.ones(S), size=(H - 1, S, A)),
        rewards=gen.random((H, S, A)),
        emissions=emissions,
    )


def trace_log_likelihood(m, trace):
    """Log-probability of an episode's feedback sequence under the model.

    ``trace`` holds one (h, action, Feedback) per step.  Accumulates the
    conditioning mass of each step's feedback through the exact filter;
    the last step conditions without transitioning.  Returns -inf for
    impossible traces.  Realized rewards are not part of the evidence.
    """
    p = np.array(m.initial, dtype=float)
    total = 0.0
    H = m.dims.horizon
    for h, action, fb in trace:
        row = m.evidence(h, tuple(fb.query))[m.evidence_index(h, fb)]
        post = p * row
        mass = float(post.sum())
        if mass == 0.0:
            return float("-inf")
        total += math.log(mass)
        if h < H:
            p = (post / mass) @ m.joint_transitions()[h - 1, :, action, :]
    return total


def walked_steps_reference(model, policy, trace):
    """The walk ``pors.feedback_log_likelihood`` scores: one (h, action,
    query, kernel row) per step of a trace of (h, action, Feedback),
    stepping the policy graph from its root under each step's row.  The
    trace must be the policy's: each step's action and query must be the
    ones the reached node plays."""
    steps = []
    node = 0
    for h, action, fb in trace:
        query = tuple(fb.query)
        assert (action, query) == (policy.actions[node], policy.queries[node]), (
            f"step {h} leaves the policy"
        )
        row = model.evidence_index(h, fb)
        node = policy.children[node][row]
        steps.append((h, action, query, row))
    return tuple(steps)


class Recorder:
    """Wraps an agent and records the episode's (h, action, Feedback) steps
    as ``observe`` receives them, and the reward ``end_episode`` receives;
    ``run_episode`` keeps no step records."""

    def __init__(self, agent):
        self.agent = agent
        self.steps = []
        self.total = None

    def begin_episode(self, k):
        self.steps = []
        self.total = None
        self.agent.begin_episode(k)

    def act(self, h):
        return self.agent.act(h)

    def observe(self, h, action, fb):
        self.steps.append((h, action, fb))
        self.agent.observe(h, action, fb)

    def end_episode(self, total):
        self.total = total
        self.agent.end_episode(total)


def recorded_episode(agent, env, k, rng, run=run_episode):
    """One episode of the agent under ``run`` (``run_episode`` or a
    reference loop with its signature): the returned reward, which must be
    the one the agent's ``end_episode`` received, and the (h, action,
    Feedback) steps the agent observed."""
    recorder = Recorder(agent)
    total = run(recorder, env, k, rng)
    assert type(recorder.total) is float and recorder.total == total
    return total, recorder.steps


class _PolicyPlayer:
    """Plays a policy graph, stepping it under each feedback's kernel row."""

    def __init__(self, env, policy):
        self.env, self.policy, self.node = env, policy, 0

    def begin_episode(self, k):
        self.node = 0

    def act(self, h):
        return self.policy.actions[self.node], self.policy.queries[self.node]

    def observe(self, h, action, fb):
        row = self.env.evidence_index(h, fb)
        self.node = self.policy.children[self.node][row]

    def end_episode(self, total):
        pass


def play_policy(env, policy, episode, rng):
    """The (h, action, Feedback) steps of one episode of a policy graph."""
    return recorded_episode(_PolicyPlayer(env, policy), env, episode, rng)[1]
