"""Confidence-set learning for models with noisy partial hindsight feedback.

The learner keeps a finite candidate class of models, scores each candidate
by the exact log-likelihood of all feedback observed so far (queried
sub-state values and emitted symbols; realized rewards carry no information
about the dynamics and are excluded), keeps every candidate within a fixed
slack of the best score, and plays the policy that is optimal for the most
optimistic surviving candidate.

Policies are deterministic policy graphs over feedback histories
(``PolicyGraph``).  Feedback for step h (the queried values of the step-h
state, plus the emitted symbol when the model has emissions) arrives only
after the step-h action, so the policy moves between steps: the action and
query at step h depend on feedback from steps 1..h-1 only.  A node's
children are indexed like the rows of the model's evidence kernel
(``EnvModel.evidence``): exact policy evaluation pushes each node's row
times the kernel to its children, and the agent and the filter step to the
child under the row a step's feedback selects
(``EnvModel.evidence_index``).

Candidates are scored in one batched pass per episode
(``feedback_log_likelihood``) on the walk the agent took: the (step,
action, query, kernel row) of each step, recorded as the agent moved its
policy.  The forward filter (Rabiner 1989) runs for every candidate of the
class at once (``CandidateFilter``), on the rows each step reads from every
candidate's own tables, stacked along a leading candidate axis.  The scores
depend only on the walk, and a run's episodes repeat few walks, so the
filter keeps each walk's scores in a memo of at most
``LIKELIHOOD_MEMO_SIZE`` (4096) entries and runs once per distinct walk;
past the bound it scores without storing.  The agent reads each step's
kernel row once, through ``EnvModel.evidence_index``, which caches the row
of every feedback that fits.

The optimistic step is a max over surviving candidates of each one's own
optimum, so each candidate's best policy is planned once, before the first
episode, by the backward induction over its belief tree that also gives
V* (``oracle._plan``; Smallwood & Sondik 1973): the DP records each
belief's decision and the children it leads to, and the plan is the graph
with one node per recorded belief that walks those records from the root.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import ConfigError
from .oracle import DEFAULT_NODE_CAP, _plan

LIKELIHOOD_MEMO_SIZE = 4096


# -- policies ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolicyGraph:
    """Deterministic policy over feedback histories, held as a graph: a
    policy graph (Kaelbling, Littman & Cassandra 1998), or finite-state
    controller (Hansen 1998).

    Node 0 is the root.  Node n plays ``actions[n]`` with query set
    ``queries[n]``, and the feedback of its step moves the policy to
    ``children[n][row]``, where row is the evidence-kernel row the feedback
    selects (``EnvModel.evidence_index``).  Several parents may share a
    child, and a node may lead back to itself.  A graph equals and hashes
    as itself only, so a value cache keys it without reading its tuples.
    """

    actions: tuple
    queries: tuple
    children: tuple


def _dp_graph(model, cap):
    """The policy graph that plays the model's belief DP (``oracle._plan``
    under node cap ``cap``).

    A walk from the root numbers the memo keys of the recorded beliefs in
    the order it first reaches them, and each such node plays its belief's
    recorded decision.  Each recorded child (kernel row r, child) of that
    decision is the node's child under row r: the child belief's node, or
    at step H a node of its own per (parent, row) that plays the child's
    first best action with query 0, as the DP scores step-H beliefs.
    Feedback the DP never reached leads to node 1, which plays action 0
    with query 0 and leads back to itself.
    """
    dims = model.dims
    H, R = dims.horizon, dims.n_evidence_rows
    qsets = dims.query_sets()
    decisions = {}
    _plan(model, cap, decisions)
    root = np.asarray(model.initial, dtype=float)
    keys = [(1, np.round(root, 12).tobytes())]  # memo keys, as _plan keys them
    number = {keys[0]: 0}
    nodes = [None, (0, qsets[0], (1,) * R)]  # (action, query, children)
    for key in keys:  # the walk appends each key it reaches first
        a, qi, recorded = decisions[key]
        kids = [1] * R
        for row, child in recorded:
            if key[0] + 1 == H:  # a step-H best action: a node per (parent, row)
                kids[row] = len(nodes)
                nodes.append((child, qsets[0], (1,) * R))
                continue
            if child not in number:
                number[child] = len(nodes)
                keys.append(child)
                nodes.append(None)  # filled when the walk reaches it
            kids[row] = number[child]
        nodes[number[key]] = (a, qsets[qi], tuple(kids))
    return PolicyGraph(*zip(*nodes))


# -- likelihood ----------------------------------------------------------------


class CandidateFilter:
    """A candidate class's forward filter: the candidates, whose own
    initial, transition and evidence tables it reads, and ``memo``, which
    maps a walked step sequence to its read-only scores
    (``feedback_log_likelihood``) and holds at most
    ``LIKELIHOOD_MEMO_SIZE`` entries.

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
        self.memo = {}


def feedback_log_likelihood(cfilter, steps):
    """Exact log-probability of one episode's feedback under every candidate
    of a class: a float64 array with one entry per candidate of ``cfilter``
    (a ``CandidateFilter``).

    ``steps`` is the episode's walk, a tuple with one (h, action, query,
    row) per step, where row is the evidence-kernel row the step's feedback
    selects (``EnvModel.evidence_index``), as ``PorsAgent.observe`` records
    it.  Scores only the queried values and emitted symbols; realized
    rewards are excluded.  The forward filter runs for all candidates at
    once, on each step's rows of every candidate's own tables stacked along
    a leading candidate axis, with each candidate's arithmetic exactly that
    of a filter run alone: condition on the step's kernel row, add the log
    of the conditioning mass, and transition, except after the last step.
    A candidate whose mass reaches zero scores -inf.

    The walk fixes the scores, so it is looked up in ``cfilter.memo``
    first; a new walk is scored and, while the memo holds fewer than
    ``LIKELIHOOD_MEMO_SIZE`` entries, stored.  Scores from the filter or
    the memo are read-only.
    """
    cands = cfilter.candidates
    scores = cfilter.memo.get(steps)
    if scores is not None:
        return scores
    H = cands[0].dims.horizon
    totals = [0.0] * len(cands)
    p = np.stack([np.asarray(m.initial, float) for m in cands])
    for h, action, query, row in steps:
        post = p * np.stack([m.evidence(h, query)[row] for m in cands])
        masses = post.sum(axis=1)
        for i, mass in enumerate(masses.tolist()):
            if mass == 0.0:
                totals[i] = -math.inf
            elif totals[i] != -math.inf:
                totals[i] += math.log(mass)
        if h < H:
            masses[masses == 0.0] = 1.0  # masked candidates stay finite
            kernels = np.stack([m.joint_transitions()[h - 1, :, action] for m in cands])
            p = ((post / masses[:, None])[:, None, :] @ kernels)[:, 0]
    scores = np.array(totals)
    scores.flags.writeable = False
    if len(cfilter.memo) < LIKELIHOOD_MEMO_SIZE:
        cfilter.memo[steps] = scores
    return scores


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


def evaluate_policy_value(model, policy):
    """Exact expected episode reward of a policy graph under a model.

    Pushes the joint mass over (graph node, state) forward one step at a
    time.  Where several feedback paths reach one node at a step, their
    rows add, in the order they first reach it; on a tree that is the
    arithmetic of one row per tree node.
    """
    H = model.dims.horizon
    joint = model.joint_transitions() if H > 1 else None
    level = {0: np.asarray(model.initial, dtype=float)}
    total = 0.0
    for h in range(1, H + 1):
        reached, level = level, {}
        for node, row in reached.items():
            action = policy.actions[node]
            total += float(row @ model.rewards[h - 1, :, action])
            if h == H:
                continue
            kernel = joint[h - 1, :, action, :]
            branches = row * model.evidence(h, policy.queries[node])
            for r, w in enumerate(branches):
                if w.any():
                    child, mass = policy.children[node][r], w @ kernel
                    level[child] = level[child] + mass if child in level else mass
    return total


# -- optimistic planning ---------------------------------------------------------


@dataclass
class PlanResult:
    policy: PolicyGraph
    value: float


def optimistic_plan(conf_set, plans):
    """The index of the surviving candidate whose plan has the highest value.

    ``plans[i]`` is candidate i's best plan (``PlanningContext.plans``).
    Ties go to the lowest candidate index.
    """
    return max(sorted(conf_set.indices), key=lambda i: plans[i].value)


# -- planning context and agent --------------------------------------------------


@dataclass
class PlanningContext:
    """Episode-independent planning results, shareable across runs.

    Holds the class's forward filter (``CandidateFilter``), whose
    ``candidates`` are the class, and each candidate's plan: the policy
    graph that plays its belief DP (``_dp_graph``), which attains the
    candidate's optimal value, and that graph's exact value
    (``evaluate_policy_value``).  Each DP runs under the node cap ``cap``
    of ``build`` (a config's ``oracle-cap``), which with the evidence-stack
    cap bounds each graph; a DP over the cap raises OracleSizeError.  A
    class whose step-H evidence stack, under which the filter scores the
    last step's feedback and which no planning step reads, is over
    ``envs.MAX_TABLE_CELLS`` raises OracleSizeError before any planning
    runs.
    """

    filter: CandidateFilter
    plans: list

    @classmethod
    def build(cls, candidates, cap=DEFAULT_NODE_CAP):
        cfilter = CandidateFilter(candidates)
        first = cfilter.candidates[0]
        first.evidence_stack(first.dims.horizon)
        plans = []
        for cand in cfilter.candidates:
            policy = _dp_graph(cand, cap)
            plans.append(PlanResult(policy, evaluate_policy_value(cand, policy)))
        return cls(cfilter, plans)


class PorsAgent:
    """Optimistic confidence-set learner over the candidate class of a
    planning context.

    Each episode: screen candidates by cumulative feedback log-likelihood,
    play the best plan of the most optimistic survivor, and fold the
    episode's feedback into every candidate's score with one batched
    ``feedback_log_likelihood`` call, which runs the filter once per
    distinct walk.  ``observe`` moves the policy to the child under the
    step's kernel row and records the step's (h, action, query, row), the
    walk that call scores; feedback that does not fit the class raises
    UnsupportedFeedbackError there.
    Planning is deterministic, so the agent holds no rng.
    """

    name = "pors"

    def __init__(self, context, n_episodes, beta=None, delta=0.05):
        self.context = context
        self.beta = (
            default_beta(context.filter.candidates[0].dims, n_episodes, delta)
            if beta is None else beta
        )
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        self.loglik = np.zeros(len(context.plans))
        self.set_log = []
        self.plan_log = []
        self.episode_policy = None
        self._node = 0
        self._steps = []

    def begin_episode(self, episode):
        conf = ConfidenceSet(_screen(self.loglik, self.beta))
        best = optimistic_plan(conf, self.context.plans)
        self.set_log.append(conf.indices)
        self.plan_log.append(best)
        self.episode_policy = self.context.plans[best].policy
        self._node = 0
        self._steps = []

    def act(self, h):
        policy = self.episode_policy
        return policy.actions[self._node], policy.queries[self._node]

    def observe(self, h, action, feedback):
        row = self.context.filter.candidates[0].evidence_index(h, feedback)
        self._steps.append((h, action, feedback.query, row))
        self._node = self.episode_policy.children[self._node][row]

    def end_episode(self, total):
        self.loglik += feedback_log_likelihood(self.context.filter, tuple(self._steps))
