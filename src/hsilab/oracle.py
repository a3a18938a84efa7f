"""Ground truth for small instances.

The exact feedback likelihood of an episode trace, the exact optimal value
over joint action-and-query policies by backward induction on the reachable
belief tree, and exact evaluation of per-episode Markov policies.
Everything here is exact-or-error: when the belief tree exceeds its node
cap the computation raises instead of approximating.  Regret is computed
from these values by the harness (``ResultsTable.run_regret``).

Evidence comes from the model's cached evidence kernel
(``EnvModel.evidence``): conditioning a belief on one step's feedback
multiplies it by a kernel row, and the feedback branches of a query are the
nonzero rows of the belief times the kernel.  ``trace_log_likelihood`` is
the package's only exact filter; the confidence-set learner scores its
candidates with it.

Timing convention: the feedback for a step (queried values of that step's
state, plus any emitted observation) arrives after the step's action, so a
step's action is chosen from the belief conditioned on feedback of earlier
steps only.  Realized rewards are not used as evidence by the optimal
planner's branching (they carry no extra information on the instances
with informative terminal rewards only, and the confidence-set learner
deliberately ignores them as well).
"""

import math

import numpy as np

from .core import OracleSizeError

DEFAULT_NODE_CAP = 10**6


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
        post = p * m.evidence_row(rec.h, rec.feedback)
        mass = float(post.sum())
        if mass == 0.0:
            return float("-inf")
        total += math.log(mass)
        if rec.h < H:
            p = (post / mass) @ m.joint_transitions()[rec.h - 1, :, rec.action, :]
    return total


def _feedback_branches(m, h, p, query):
    """All nonzero-probability feedback outcomes of querying at step h.

    Yields (mass, normalized conditioned belief) in a fixed order:
    queried-value codes ascending, observation symbols ascending inside
    each value code.  Masses sum to 1 for a normalized belief.
    """
    branches = []
    for w in p * m.evidence(h, query):
        mass = float(w.sum())
        if mass == 0.0:
            continue
        branches.append((mass, w / mass))
    return branches


def _plan(m, cap):
    """Backward induction over the reachable belief tree.

    Returns (value, first action, first query, stats).  Beliefs are
    memoized on (step, belief rounded to 12 decimals); the node count is
    capped — exceeding it raises rather than approximates.
    """
    dims = m.dims
    H, A = dims.horizon, dims.n_actions
    qsets = dims.query_sets()
    joint = m.joint_transitions() if H > 1 else None
    memo = {}
    stats = {"nodes": 0, "memo_hits": 0}

    def rec(h, p):
        key = (h, np.round(p, 12).tobytes())
        hit = memo.get(key)
        if hit is not None:
            stats["memo_hits"] += 1
            return hit
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            raise OracleSizeError(
                f"belief tree for model {m.name!r} exceeds {cap} nodes"
            )
        expected_r = p @ m.rewards[h - 1]  # (A,)
        if h == H:
            # feedback after the last action cannot be used; query is moot
            best_a = 0
            for a in range(1, A):
                if expected_r[a] > expected_r[best_a]:
                    best_a = a
            result = (float(expected_r[best_a]), best_a, qsets[0])
        else:
            values = np.empty((A, len(qsets)))
            for qi, q in enumerate(qsets):
                branches = _feedback_branches(m, h, p, q)
                for a in range(A):
                    total = float(expected_r[a])
                    for mass, cond in branches:
                        total += mass * rec(h + 1, cond @ joint[h - 1, :, a, :])[0]
                    values[a, qi] = total
            best = (-np.inf, 0, qsets[0])
            for a in range(A):
                for qi, q in enumerate(qsets):
                    if values[a, qi] > best[0]:
                        best = (float(values[a, qi]), a, q)
            result = best
        memo[key] = result
        return result

    value, action, query = rec(1, np.array(m.initial, dtype=float))
    return value, action, query, stats


def optimal_value(m, cap=DEFAULT_NODE_CAP):
    """Exact optimal expected episode reward over joint action+query policies."""
    return _plan(m, cap)[0]


def oracle_report(m, cap=DEFAULT_NODE_CAP):
    """Optimal value plus the optimizing first step and tree statistics."""
    value, action, query, stats = _plan(m, cap)
    return {
        "model": m.name,
        "v_star": value,
        "first_action": action,
        "first_query": query,
        "nodes": stats["nodes"],
        "memo_hits": stats["memo_hits"],
        "node_cap": cap,
    }


def evaluate_markov_policy(m, policy):
    """Exact expected episode reward of a per-episode Markov policy.

    The policy queries a fixed sub-state set every step and draws the step-h
    action from a distribution conditioned on the previous step's revealed
    values and action (the first action from an unconditional distribution).
    Protocol: ``policy.query``, ``policy.first_distribution() -> (A,)``,
    ``policy.action_matrix(h) -> (n_value_codes, A, A)`` for h >= 2.
    """
    dims = m.dims
    H, A = dims.horizon, dims.n_actions
    first = np.asarray(policy.first_distribution(), dtype=float)
    mu = m.initial[:, None] * first[None, :]  # joint over (state, action)
    total = float((mu * m.rewards[0]).sum())
    if H == 1:
        return total
    vcode = m.query_codes(tuple(policy.query))[0]
    joint = m.joint_transitions()
    for h in range(2, H + 1):
        mat = np.asarray(policy.action_matrix(h), dtype=float)[vcode]  # (S, A, A')
        flow = mu[:, :, None] * joint[h - 2]  # (S, A, S')
        mu = np.einsum("sat,saA->tA", flow, mat)
        total += float((mu * m.rewards[h - 1]).sum())
    return total
