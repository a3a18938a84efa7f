"""Confidence-set learning for models with noisy partial hindsight feedback.

The learner keeps a finite candidate class of models, scores each candidate
by the exact log-likelihood of all feedback observed so far (queried
sub-state values and emitted symbols; realized rewards carry no information
about the dynamics and are excluded), keeps every candidate within a fixed
slack of the best score, and plays the policy that is optimal for the most
optimistic surviving candidate.

Policies are deterministic decision trees over feedback histories.  Feedback
for step h (the queried values of the step-h state, plus the emitted symbol
when the model has emissions) arrives only after the step-h action, so the
tree branches between steps: the action and query at step h depend on
feedback from steps 1..h-1 only.  A tree node's children are laid out like
the rows of the model's evidence kernel (``EnvModel.evidence``): exact
policy evaluation pushes each node's row times the kernel to its children,
and the agent and the filter step to the child whose index is the row a
step's feedback selects (``EnvModel.evidence_index``).

Candidates are scored in one batched pass per episode
(``feedback_log_likelihood``): the trace is checked against the played
policy once, then the forward filter (Rabiner 1989) runs for every
candidate of the class at once, on its tables stacked along a leading
candidate axis (``CandidateFilter``).

The optimistic step is a max over surviving candidates of each one's own
optimum, so each candidate's best policy is planned once, before the first
episode, by the backward induction over its belief tree that also gives
V* (``oracle._plan``; Smallwood & Sondik 1973): the plan is the tree that
plays the decision recorded for each reached feedback history's belief.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import ConfigError, OracleSizeError
from .oracle import DEFAULT_NODE_CAP, _plan, _step_tables, _successors

DEFAULT_VALUE_CAP = 10**6


# -- policies ------------------------------------------------------------------


@dataclass(frozen=True)
class TreePolicy:
    """Deterministic history-dependent policy over feedback branches.

    Level h (1-based) has ``branching ** (h - 1)`` nodes.  A node's child
    after step-h feedback is ``node * branching + row``, where row is the
    evidence-kernel row the feedback selects (``EnvModel.evidence_index``).
    ``actions[h - 1][node]`` and ``queries[h - 1][node]`` give the step-h
    decision at each node.
    """

    horizon: int
    branching: int
    actions: tuple
    queries: tuple

    def action_at(self, h, node):
        return self.actions[h - 1][node]

    def query_at(self, h, node):
        return self.queries[h - 1][node]

    def child(self, node, row):
        return node * self.branching + row


def tree_branching(dims):
    """Children per tree node: the rows of an evidence kernel, one per
    (value code, emitted symbol)."""
    return dims.n_query_values * max(dims.n_observations, 1)


def level_node_counts(dims):
    """Nodes per level of a feedback tree for these dimensions."""
    branching = tree_branching(dims)
    return [branching ** (h - 1) for h in range(1, dims.horizon + 1)]


def _tree_policy(dims, choices):
    """The tree policy with ``choices[h - 1][node]`` at each node, where
    choice = action * n_query_sets + query_set_index."""
    qsets = dims.query_sets()
    n_q = len(qsets)
    return TreePolicy(
        dims.horizon,
        tree_branching(dims),
        tuple(tuple(c // n_q for c in level) for level in choices),
        tuple(tuple(qsets[c % n_q] for c in level) for level in choices),
    )


def _dp_tree(model):
    """The tree policy that plays the model's belief DP (``oracle._plan``).

    Level by level from the root, each reached node takes the recorded
    decision of its belief's memo key.  The successors of the recorded
    belief, formed with the DP's own arithmetic (``oracle._successors``),
    are the beliefs of the node's children under the chosen query and
    action: each kernel row of the chosen query set with mass leads to
    child ``node * branching + row % R``.  Step-H nodes take the first best
    action of their belief's expected reward and query 0, as the DP scores
    them; unreached nodes keep choice 0.
    """
    dims = model.dims
    H = dims.horizon
    n_q = len(dims.query_sets())
    R = tree_branching(dims)
    decisions = {}
    _plan(model, DEFAULT_NODE_CAP, decisions)
    kernels, moves = _step_tables(model)
    choices = [[0] * n for n in level_node_counts(dims)]
    # (node, memo key of its belief), keyed as _plan keys its memo
    root = np.asarray(model.initial, dtype=float)
    level = [(0, (1, np.round(root, 12).tobytes()))]
    for h in range(1, H + 1):
        reached, level = level, []
        for node, key in reached:
            a, qi, p = decisions[key]
            choices[h - 1][node] = a * n_q + qi
            if h == H:
                continue
            _, rows, succ = _successors(p, kernels[h - 1], moves[h - 1])
            mine = np.flatnonzero(rows // R == qi)
            children = (node * R + rows[mine] % R).tolist()
            if h + 1 < H:
                rounded = np.round(succ[mine, a], 12)
                level += [(c, (h + 1, k.tobytes())) for c, k in zip(children, rounded)]
            else:
                best = (succ @ model.rewards[H - 1])[mine, a].argmax(axis=1)
                for child, b in zip(children, best.tolist()):
                    choices[H - 1][child] = b * n_q
    return _tree_policy(dims, choices)


# -- likelihood ----------------------------------------------------------------


class CandidateFilter:
    """The tables of a candidate class's forward filter, stacked along a
    leading candidate axis: initials ``(C, S)``, transitions
    ``(C, H-1, S, A, S)`` and, per (step, query set), evidence kernels
    ``(C, R, S)``, stacked on first use.

    The class must be non-empty, share one dimension signature and hold
    emission models (Class2) only; anything else raises ConfigError.
    """

    def __init__(self, candidates):
        candidates = list(candidates)
        if len(candidates) == 0:
            raise ConfigError("candidate class is empty")
        dims = candidates[0].dims
        for cand in candidates:
            if cand.dims != dims:
                raise ConfigError(
                    "candidate class mixes dimension signatures: "
                    f"{cand.name} differs from {candidates[0].name}"
                )
            if cand.class_tag != "Class2":
                raise ConfigError(
                    f"candidate {cand.name!r} is {cand.class_tag}; "
                    "pors candidates must be emission models (Class2)"
                )
        self.candidates = candidates
        self.initial = np.stack([np.asarray(m.initial, float) for m in candidates])
        self.joint = (
            np.stack([m.joint_transitions() for m in candidates])
            if dims.horizon > 1 else None
        )
        self._kernels = {}

    def kernels(self, h, query):
        """Every candidate's step-h evidence kernel under a query, stacked."""
        stack = self._kernels.get((h, query))
        if stack is None:
            stack = np.stack([m.evidence(h, query) for m in self.candidates])
            self._kernels[(h, query)] = stack
        return stack


def feedback_log_likelihood(cfilter, policy, trace):
    """Exact log-probability of a trace's feedback under every candidate of
    a class, given the policy that played it: a float64 array with one entry
    per candidate of ``cfilter`` (a ``CandidateFilter``).

    Scores only the queried values and emitted symbols; realized rewards are
    excluded.  The trace is walked against the policy once: a trace whose
    actions or queries disagree with the policy at the reached node scores
    -inf for every candidate, and feedback that does not fit the class
    raises UnsupportedFeedbackError.  Then the forward filter runs for all
    candidates at once, with each candidate's arithmetic exactly that of a
    filter run alone: condition on the step's kernel row, add the log of the
    conditioning mass, and transition, except after the last step.  A
    candidate whose mass reaches zero scores -inf.
    """
    first = cfilter.candidates[0]
    steps = []
    node = 0
    for rec in trace.steps:
        query = tuple(rec.feedback.query)
        if (rec.action, query) != (
            policy.action_at(rec.h, node), policy.query_at(rec.h, node)
        ):
            return np.full(len(cfilter.candidates), -np.inf)
        row = first.evidence_index(rec.h, rec.feedback)
        node = policy.child(node, row)
        steps.append((rec.h, rec.action, query, row))
    H = first.dims.horizon
    totals = [0.0] * len(cfilter.candidates)
    p = cfilter.initial
    for h, action, query, row in steps:
        post = p * cfilter.kernels(h, query)[:, row]
        masses = post.sum(axis=1)
        for i, mass in enumerate(masses.tolist()):
            if mass == 0.0:
                totals[i] = -math.inf
            elif totals[i] != -math.inf:
                totals[i] += math.log(mass)
        if h < H:
            masses[masses == 0.0] = 1.0  # masked candidates stay finite
            p = ((post / masses[:, None])[:, None, :]
                 @ cfilter.joint[:, h - 1, :, action, :])[:, 0]
    return np.array(totals)


# -- confidence set ------------------------------------------------------------


@dataclass
class ConfidenceSet:
    """Candidate indices whose total feedback log-likelihood is within the
    confidence slack of the best candidate's."""

    indices: tuple


def _screen(loglik, beta):
    return tuple((loglik >= loglik.max() - beta).nonzero()[0].tolist())


def default_beta(dims, n_episodes, delta):
    """Confidence slack for a K-episode run at confidence 1 - delta.

    Grows with the parameter count of the unknown pieces (hidden-state
    transition columns and emission columns) and logarithmically with the
    episode budget.
    """
    if n_episodes < 1:
        raise ValueError(f"need n_episodes >= 1, got {n_episodes}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n_hidden = dims.n_hidden
    o = max(dims.n_observations, 1)
    n_params = n_hidden * dims.n_actions + dims.alphabet_size * o
    log_arg = n_hidden * dims.n_actions * o * dims.horizon * n_episodes
    return n_params * math.log(log_arg) + math.log(n_episodes / delta)


# -- exact policy evaluation ---------------------------------------------------


def evaluate_policy_value(model, policy, cap=DEFAULT_VALUE_CAP):
    """Exact expected episode reward of a tree policy under a model.

    Propagates the joint distribution over (feedback-tree node, state)
    forward through the episode.  Raises OracleSizeError when the per-level
    node x state table would exceed the cap.
    """
    dims = model.dims
    n_states = model.n_states
    joint = model.joint_transitions() if dims.horizon > 1 else None
    b = policy.branching
    mu = np.asarray(model.initial, dtype=float).reshape(1, n_states).copy()
    total = 0.0
    for h in range(1, dims.horizon + 1):
        n_nodes = mu.shape[0]
        if n_nodes * n_states > cap:
            raise OracleSizeError(
                f"policy evaluation needs {n_nodes} x {n_states} table at "
                f"step {h}, over cap {cap}"
            )
        for node in range(n_nodes):
            row = mu[node]
            if not row.any():
                continue
            total += float(row @ model.rewards[h - 1, :, policy.action_at(h, node)])
        if h == dims.horizon:
            break
        nxt = np.zeros((n_nodes * b, n_states))
        for node in range(n_nodes):
            row = mu[node]
            if not row.any():
                continue
            kernel = joint[h - 1, :, policy.action_at(h, node), :]
            branches = row * model.evidence(h, policy.query_at(h, node))
            for child, w in enumerate(branches, start=node * b):
                if w.any():
                    nxt[child] = w @ kernel
        mu = nxt
    return total


# -- optimistic planning ---------------------------------------------------------


@dataclass
class PlanResult:
    policy: TreePolicy
    value: float
    candidate_index: int


def optimistic_plan(conf_set, plans):
    """The plan of the surviving candidate with the highest value.

    ``plans[i]`` is candidate i's best plan (``PlanningContext.plans``).
    Ties go to the lowest candidate index.
    """
    return max(
        (plans[i] for i in sorted(conf_set.indices)), key=lambda plan: plan.value
    )


# -- planning context and agent --------------------------------------------------


@dataclass
class PlanningContext:
    """Episode-independent planning results, shareable across runs.

    Holds the class's stacked filter tables (``CandidateFilter``) and each
    candidate's plan: the tree policy that plays its belief DP
    (``_dp_tree``), which attains the candidate's optimal value, and that
    tree's exact value (``evaluate_policy_value``).  A class whose last
    tree level times its states exceeds ``DEFAULT_VALUE_CAP``, which
    ``evaluate_policy_value`` would refuse for every plan, raises
    OracleSizeError before any planning runs.
    """

    filter: CandidateFilter
    plans: list

    @property
    def candidates(self):
        return self.filter.candidates

    @classmethod
    def build(cls, candidates):
        cfilter = CandidateFilter(candidates)
        dims = cfilter.candidates[0].dims
        counts = level_node_counts(dims)
        if counts[-1] * dims.n_states > DEFAULT_VALUE_CAP:
            raise OracleSizeError(
                f"policy evaluation needs {counts[-1]} x {dims.n_states} table "
                f"at step {dims.horizon}, over cap {DEFAULT_VALUE_CAP}"
            )
        plans = []
        for i, cand in enumerate(cfilter.candidates):
            policy = _dp_tree(cand)
            plans.append(PlanResult(policy, evaluate_policy_value(cand, policy), i))
        return cls(cfilter, plans)


class PorsAgent:
    """Optimistic confidence-set learner over the candidate class of a
    planning context.

    Each episode: screen candidates by cumulative feedback log-likelihood,
    play the best plan of the most optimistic survivor, and fold the
    episode's feedback into every candidate's score with one batched
    ``feedback_log_likelihood`` pass over the context's stacked tables.
    Planning is deterministic, so the agent holds no rng.
    """

    name = "pors"

    def __init__(self, context, n_episodes, beta=None, delta=0.05):
        self.dims = context.candidates[0].dims
        self.context = context
        self.beta = (
            default_beta(self.dims, n_episodes, delta) if beta is None else beta
        )
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        self.loglik = np.zeros(len(context.candidates))
        self.set_log = []
        self.plan_log = []
        self.episode_policy = None
        self.optimistic_value = None
        self._node = 0

    def begin_episode(self, episode):
        conf = ConfidenceSet(_screen(self.loglik, self.beta))
        plan = optimistic_plan(conf, self.context.plans)
        self.set_log.append(conf.indices)
        self.plan_log.append(plan.candidate_index)
        self.episode_policy = plan.policy
        self.optimistic_value = plan.value
        self._node = 0

    def act(self, h):
        policy = self.episode_policy
        return policy.action_at(h, self._node), policy.query_at(h, self._node)

    def observe(self, h, action, feedback):
        row = self.context.candidates[0].evidence_index(h, feedback)
        self._node = self.episode_policy.child(self._node, row)

    def end_episode(self, trace):
        self.loglik += feedback_log_likelihood(
            self.context.filter, self.episode_policy, trace
        )
