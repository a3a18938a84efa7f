"""Ground truth for small instances.

The exact optimal value over joint action-and-query policies by backward
induction on the reachable belief tree, and exact evaluation of
per-episode Markov policies.
Everything here is exact-or-error: when the belief tree exceeds its node
cap the computation raises instead of approximating.  Regret is computed
from these values by the harness (``ResultsTable.run_regret``).

Evidence comes from the model's cached evidence kernel
(``EnvModel.evidence``): conditioning a belief on one step's feedback
multiplies it by a kernel row, and the feedback branches of a query are the
nonzero rows of the belief times the kernel.

The planner expands each distinct belief once, in one batch of products
(``_plan``).  Its ``nodes`` count those expansions (the root and the
distinct beliefs of steps 2 to H-1) and the node cap bounds them;
``memo_hits`` counts successors found already expanded.  Step-H beliefs
are scored in bulk and counted in neither.  On request it also records
each expanded belief's best decision, from which ``pors`` reads its plans.

Timing convention: the feedback for a step (queried values of that step's
state, plus any emitted observation) arrives after the step's action, so a
step's action is chosen from the belief conditioned on feedback of earlier
steps only.  Realized rewards are not used as evidence by the optimal
planner's branching (they carry no extra information on the instances
with informative terminal rewards only, and the confidence-set learner
deliberately ignores them as well).
"""

import numpy as np

from .core import OracleSizeError
from .envs import MAX_TABLE_CELLS

DEFAULT_NODE_CAP = 10**6


def _step_tables(m):
    """Per step h < H: the evidence kernels of every query set stacked in
    one ``(Q * R, S)`` array (row ``q * R + r``), and the transitions with
    all actions side by side, ``(S, A * S)``."""
    qsets = m.dims.query_sets()
    kernels = [np.vstack([m.evidence(h, q) for q in qsets])
               for h in range(1, m.dims.horizon)]
    moves = [t.reshape(m.n_states, -1) for t in m.joint_transitions()]
    return kernels, moves


def _successors(p, kernel, move):
    """One step of belief p: the mass of each stacked kernel row, the rows
    with mass, and the successor belief of every (row with mass, action),
    ``(len(rows), A, S)``."""
    w = p * kernel
    mass = w.sum(axis=1)
    rows = np.flatnonzero(mass)
    succ = ((w[rows] / mass[rows, None]) @ move).reshape(len(rows), -1, len(p))
    return mass, rows, succ


def _plan(m, cap, decisions=None):
    """Backward induction over the reachable belief tree.

    Returns (value, first action, first query, stats).  Each expanded
    belief is one batch of numpy work: its feedback branches under every
    query set are the nonzero rows of the belief times the step's stacked
    evidence kernels (row ``q * R + r``), and one product with the step's
    transitions, all actions side by side, gives the successor of every
    (branch, action) (``_successors``).  Successors are memoized on (step,
    belief rounded to 12 decimals) and expanded in (query, action, branch)
    order; step-H successors are scored in bulk by their best action's
    expected reward.  Given a dict ``decisions``, it maps the memo key of
    each expanded belief, the root's included, to its first best (action,
    query index) and a copy of the belief; V* alone records nothing, as
    the copies would double its memory.  The count of expanded beliefs is
    capped: exceeding the cap raises rather than approximates.  So do
    stacked kernels of more than ``envs.MAX_TABLE_CELLS`` cells, refused
    before they are allocated, and a horizon deeper than the recursion (one
    call per step) can go.
    """
    dims = m.dims
    H, A, S = dims.horizon, dims.n_actions, m.n_states
    qsets = dims.query_sets()
    Q = len(qsets)
    R = len(m.evidence(1, qsets[0]))  # kernel rows per query set
    if (H - 1) * Q * R * S > MAX_TABLE_CELLS:
        raise OracleSizeError(
            f"belief tree for model {m.name!r} needs a ({H - 1}, {Q * R}, {S}) "
            f"evidence stack, over the cap of {MAX_TABLE_CELLS} cells"
        )
    kernels, moves = _step_tables(m)
    memo = {}
    stats = {"nodes": 0, "memo_hits": 0}

    def expand(h, p, key):
        stats["nodes"] += 1
        if stats["nodes"] > cap:
            raise OracleSizeError(
                f"belief tree for model {m.name!r} exceeds {cap} nodes"
            )
        expected_r = p @ m.rewards[h - 1]  # (A,)
        if h == H:
            # a one-step episode: feedback after the action cannot be used
            best_a = int(np.argmax(expected_r))
            if decisions is not None:
                decisions[key] = (best_a, 0, p.copy())
            return float(expected_r[best_a]), best_a, 0
        mass, rows, succ = _successors(p, kernels[h - 1], moves[h - 1])
        if h + 1 == H:
            child = (succ @ m.rewards[H - 1]).max(axis=2)  # (B, A)
        else:
            child = np.empty((len(rows), A))
            rounded = np.round(succ, 12)
            bounds = np.searchsorted(rows, np.arange(Q + 1) * R)
            for qi in range(Q):
                for a in range(A):
                    for b in range(bounds[qi], bounds[qi + 1]):
                        succ_key = (h + 1, rounded[b, a].tobytes())
                        value = memo.get(succ_key)
                        if value is None:
                            value = memo[succ_key] = expand(
                                h + 1, succ[b, a], succ_key
                            )[0]
                        else:
                            stats["memo_hits"] += 1
                        child[b, a] = value
        # per (query, action): the expected reward plus each branch's mass
        # times its successor's value, as a running sum in branch order;
        # row q * (R + 1) holds the reward, row q * (R + 1) + 1 + r the
        # branch of kernel row q * R + r (zero when it has no mass)
        terms = np.zeros((Q * R + Q, A))
        terms[:: R + 1] = expected_r
        terms[rows + rows // R + 1] = mass[rows, None] * child
        values = np.cumsum(terms.reshape(Q, R + 1, A), axis=1)[:, -1].T  # (A, Q)
        a, qi = divmod(int(np.argmax(values)), Q)  # ties: lowest (a, q)
        if decisions is not None:
            decisions[key] = (a, qi, p.copy())
        return float(values[a, qi]), a, qi

    root = np.array(m.initial, dtype=float)
    try:
        value, action, qi = expand(1, root, (1, np.round(root, 12).tobytes()))
    except RecursionError:
        raise OracleSizeError(
            f"belief tree for model {m.name!r} is {H} steps deep, past the "
            "interpreter's recursion limit"
        ) from None
    return value, action, qsets[qi], stats


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
