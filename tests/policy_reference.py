"""Brute-force references for the tree-policy planner and the batched
feedback likelihood, and random models with noisy symbols to run them on.

``full_history_policies`` lists every deterministic history-dependent tree
policy of a (small) model, lexicographic over per-node choices;
``first_best_policy`` scores them all under one model and returns the first
of highest value.  ``best_tree`` finds that policy by a recursion over tree
nodes instead, which reaches horizons past enumeration; ``PlanningContext``
reads each plan off the oracle's belief DP and must match its value.
``trace_log_likelihood`` is the exact filter of one model on its own, which
``pors.feedback_log_likelihood`` runs for a whole class at once.
"""

from itertools import product
import math

import numpy as np

from hsilab.envs import EnvModel
from hsilab.pors import (
    TreePolicy,
    _tree_policy,
    evaluate_policy_value,
    level_node_counts,
    tree_branching,
)


def full_history_policies(dims):
    """Every full-history tree policy, lexicographic over per-node choice
    indices (choice = action * n_query_sets + query_set_index), nodes level
    by level then by node index, the last node's choice varying fastest."""
    qsets = dims.query_sets()
    n_q = len(qsets)
    counts = level_node_counts(dims)
    policies = []
    for assign in product(range(dims.n_actions * n_q), repeat=sum(counts)):
        actions, queries, pos = [], [], 0
        for n_nodes in counts:
            level = assign[pos : pos + n_nodes]
            actions.append(tuple(c // n_q for c in level))
            queries.append(tuple(qsets[c % n_q] for c in level))
            pos += n_nodes
        policies.append(
            TreePolicy(
                dims.horizon, tree_branching(dims), tuple(actions), tuple(queries)
            )
        )
    return policies


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
    b = tree_branching(dims)
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
    return _tree_policy(dims, choices)


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

    Accumulates the conditioning mass of each step's feedback through the
    exact filter; the last step conditions without transitioning.  Returns
    -inf for impossible traces.  Realized rewards are not part of the
    evidence.
    """
    p = np.array(m.initial, dtype=float)
    total = 0.0
    H = m.dims.horizon
    for rec in trace.steps:
        row = m.evidence(rec.h, tuple(rec.feedback.query))[
            m.evidence_index(rec.h, rec.feedback)
        ]
        post = p * row
        mass = float(post.sum())
        if mass == 0.0:
            return float("-inf")
        total += math.log(mass)
        if rec.h < H:
            p = (post / mass) @ m.joint_transitions()[rec.h - 1, :, rec.action, :]
    return total
