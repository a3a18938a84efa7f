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
the rows of the model's evidence kernel (``EnvModel.evidence``), so exact
policy evaluation pushes each node's row times the kernel to its children,
and likelihoods come from the one exact filter,
``oracle.trace_log_likelihood``.
"""

from dataclasses import dataclass
from itertools import product as iter_product
import math

import numpy as np

from .core import ConfigError, OracleSizeError, encode_state
from .oracle import trace_log_likelihood

DEFAULT_POLICY_CAP = 4096
DEFAULT_VALUE_CAP = 10**6


# -- policies ------------------------------------------------------------------


@dataclass(frozen=True)
class TreePolicy:
    """Deterministic history-dependent policy over feedback branches.

    Level h (1-based) has ``branching ** (h - 1)`` nodes.  A node's child
    after feedback (value code v, emitted symbol o) is
    ``node * branching + v * obs_mult + o`` with o = 0 when the model emits
    nothing.  ``actions[h - 1][node]`` and ``queries[h - 1][node]`` give the
    step-h decision at each node.
    """

    horizon: int
    n_value_codes: int
    obs_mult: int
    actions: tuple
    queries: tuple

    @property
    def branching(self):
        return self.n_value_codes * self.obs_mult

    def action_at(self, h, node):
        return self.actions[h - 1][node]

    def query_at(self, h, node):
        return self.queries[h - 1][node]

    def child(self, node, value_code, observation):
        obs = 0 if observation is None else observation
        return node * self.branching + value_code * self.obs_mult + obs


def level_node_counts(dims):
    """Nodes per level of a feedback tree for these dimensions."""
    branching = dims.n_query_values * max(dims.n_observations, 1)
    return [branching ** (h - 1) for h in range(1, dims.horizon + 1)]


def enumerate_policies(dims, cap=DEFAULT_POLICY_CAP):
    """All deterministic tree policies, or a labeled open-loop family.

    Returns (policies, label).  When the number of full history-dependent
    policies — (n_actions * n_query_sets) ** total_nodes — fits under the
    cap, every one is enumerated ("full-history").  Otherwise the family
    falls back to open-loop action sequences crossed with per-step queries
    ("open-loop"); if even that exceeds the cap a ConfigError is raised.

    Enumeration order is lexicographic over per-node choice indices with
    choice = action * n_query_sets + query_set_index, nodes ordered level by
    level then by node index, and the last node's choice varying fastest.
    """
    qsets = dims.query_sets()
    n_choice = dims.n_actions * len(qsets)
    counts = level_node_counts(dims)
    total_nodes = sum(counts)
    nv = dims.n_query_values
    om = max(dims.n_observations, 1)

    def decode(choice):
        return choice // len(qsets), qsets[choice % len(qsets)]

    if math.log(n_choice) * total_nodes <= math.log(cap) + 1e-12:
        policies = []
        for assign in iter_product(range(n_choice), repeat=total_nodes):
            actions, queries, pos = [], [], 0
            for n_nodes in counts:
                pairs = [decode(c) for c in assign[pos : pos + n_nodes]]
                actions.append(tuple(a for a, _ in pairs))
                queries.append(tuple(q for _, q in pairs))
                pos += n_nodes
            policies.append(
                TreePolicy(dims.horizon, nv, om, tuple(actions), tuple(queries))
            )
        return policies, "full-history"

    if n_choice**dims.horizon > cap:
        raise ConfigError(
            f"policy family exceeds cap {cap}: {n_choice}^{dims.horizon} "
            "open-loop policies"
        )
    policies = []
    for assign in iter_product(range(n_choice), repeat=dims.horizon):
        actions, queries = [], []
        for h, choice in enumerate(assign, start=1):
            a, q = decode(choice)
            n_nodes = counts[h - 1]
            actions.append((a,) * n_nodes)
            queries.append((q,) * n_nodes)
        policies.append(
            TreePolicy(dims.horizon, nv, om, tuple(actions), tuple(queries))
        )
    return policies, "open-loop"


# -- likelihood ----------------------------------------------------------------


def feedback_log_likelihood(model, policy, trace):
    """Exact log-probability of a trace's feedback under model and policy.

    Scores only the queried values and emitted symbols; realized rewards are
    excluded.  A trace whose actions or queries disagree with the policy at
    the reached node, or whose feedback has probability zero under the
    model, scores -inf.
    """
    node = 0
    for rec in trace.steps:
        fb = rec.feedback
        if rec.action != policy.action_at(rec.h, node):
            return float("-inf")
        if tuple(fb.query) != policy.query_at(rec.h, node):
            return float("-inf")
        vcode = encode_state(fb.values(), model.dims.alphabet_size)
        node = policy.child(node, vcode, fb.observation)
    return trace_log_likelihood(model, trace)


# -- confidence set ------------------------------------------------------------


@dataclass
class ConfidenceSet:
    """Candidate indices whose total feedback log-likelihood is within
    ``beta`` of the best candidate's."""

    indices: tuple
    beta: float
    loglik: np.ndarray

    def __contains__(self, index):
        return index in self.indices


def _screen(loglik, beta):
    best = float(np.max(loglik))
    return tuple(
        i for i in range(len(loglik)) if float(loglik[i]) >= best - beta
    )


def build_confidence_set(candidates, traces, policies, beta):
    """Screen candidates by total feedback log-likelihood over traces.

    ``policies[t]`` is the policy that generated ``traces[t]``.  The
    best-scoring candidate always survives, so the set is never empty.
    """
    if len(candidates) == 0:
        raise ConfigError("candidate class is empty")
    if len(traces) != len(policies):
        raise ValueError(
            f"got {len(traces)} traces but {len(policies)} policies"
        )
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    loglik = np.zeros(len(candidates))
    for i, cand in enumerate(candidates):
        total = 0.0
        for trace, policy in zip(traces, policies):
            total += feedback_log_likelihood(cand, policy, trace)
        loglik[i] = total
    return ConfidenceSet(_screen(loglik, beta), beta, loglik)


def default_beta(dims, n_episodes, delta, scale=1.0):
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
    return scale * (
        n_params * math.log(log_arg) + math.log(n_episodes / delta)
    )


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


def policy_value_table(candidates, policies, cap=DEFAULT_VALUE_CAP):
    """Exact value of every policy under every candidate, shape
    (n_candidates, n_policies)."""
    table = np.zeros((len(candidates), len(policies)))
    for i, cand in enumerate(candidates):
        for j, policy in enumerate(policies):
            table[i, j] = evaluate_policy_value(cand, policy, cap)
    return table


# -- optimistic planning ---------------------------------------------------------


@dataclass
class PlanResult:
    policy: TreePolicy
    value: float
    candidate_index: int
    policy_index: int


def optimistic_plan(conf_set, policies, value_table):
    """Best (candidate, policy) pair over the surviving candidates.

    Ties break lexicographically on (candidate index, policy index).
    ``value_table[i, j]`` must hold evaluate_policy_value(candidates[i],
    policies[j]); compute it once with policy_value_table and reuse it.
    """
    if len(policies) == 0:
        raise ConfigError("policy family is empty")
    table = np.asarray(value_table, dtype=float)
    if table.shape != (len(conf_set.loglik), len(policies)):
        raise ValueError(
            f"value table shape {table.shape} does not match "
            f"{len(conf_set.loglik)} candidates x {len(policies)} policies"
        )
    masked = np.full_like(table, -np.inf)
    rows = list(conf_set.indices)
    masked[rows] = table[rows]
    flat = int(np.argmax(masked))
    cand_idx, pol_idx = divmod(flat, table.shape[1])
    return PlanResult(
        policy=policies[pol_idx],
        value=float(table[cand_idx, pol_idx]),
        candidate_index=cand_idx,
        policy_index=pol_idx,
    )


# -- planning context and agent --------------------------------------------------


@dataclass
class PlanningContext:
    """Episode-independent planning tables, shareable across runs.

    Holds the enumerated policy family, its label and the exact
    candidate-by-policy value table.
    """

    candidates: list
    policies: list
    label: str
    value_table: np.ndarray

    @classmethod
    def build(cls, candidates, policy_cap=DEFAULT_POLICY_CAP):
        if len(candidates) == 0:
            raise ConfigError("candidate class is empty")
        dims = candidates[0].dims
        for cand in candidates[1:]:
            if cand.dims != dims:
                raise ConfigError(
                    "candidate class mixes dimension signatures: "
                    f"{cand.name} differs from {candidates[0].name}"
                )
        policies, label = enumerate_policies(dims, policy_cap)
        table = policy_value_table(candidates, policies)
        return cls(list(candidates), policies, label, table)


class PorsAgent:
    """Optimistic confidence-set learner over a finite candidate class.

    Each episode: screen candidates by cumulative feedback log-likelihood,
    plan the optimistic (candidate, policy) pair, play that tree policy, and
    fold the episode's feedback into every candidate's score.  Planning is
    deterministic; the rng argument is accepted for interface uniformity
    with the other agents but never drawn from.
    """

    name = "pors"

    def __init__(self, dims, candidates, n_episodes, rng=None, beta=None,
                 delta=0.05, policy_cap=DEFAULT_POLICY_CAP, context=None):
        if context is None:
            context = PlanningContext.build(candidates, policy_cap)
        if len(context.candidates) != len(candidates):
            raise ConfigError(
                f"planning context holds {len(context.candidates)} candidates"
                f" but {len(candidates)} were given"
            )
        self.dims = dims
        self.candidates = list(candidates)
        self.context = context
        self.beta = (
            default_beta(dims, n_episodes, delta) if beta is None else beta
        )
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        self.loglik = np.zeros(len(candidates))
        self.set_log = []
        self.plan_log = []
        self.episode_policy = None
        self.optimistic_value = None
        self._node = 0

    def begin_episode(self, episode):
        conf = ConfidenceSet(_screen(self.loglik, self.beta), self.beta,
                             self.loglik)
        plan = optimistic_plan(conf, self.context.policies,
                               self.context.value_table)
        self.set_log.append(conf.indices)
        self.plan_log.append((plan.candidate_index, plan.policy_index))
        self.episode_policy = plan.policy
        self.optimistic_value = plan.value
        self._node = 0

    def act(self, h):
        policy = self.episode_policy
        return policy.action_at(h, self._node), policy.query_at(h, self._node)

    def observe(self, h, action, feedback):
        vcode = encode_state(feedback.values(), self.dims.alphabet_size)
        self._node = self.episode_policy.child(
            self._node, vcode, feedback.observation
        )

    def end_episode(self, trace):
        for i, cand in enumerate(self.candidates):
            self.loglik[i] += feedback_log_likelihood(
                cand, self.episode_policy, trace
            )
