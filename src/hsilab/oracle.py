"""Ground truth for small instances.

The exact optimal value over joint action-and-query policies by backward
induction on the reachable belief tree, and exact evaluation of
per-episode Markov policies.
Everything here is exact-or-error: when the belief tree exceeds its node
cap the computation raises instead of approximating.  Regret is computed
from these values by the harness (``ResultsTable.run_regret``).

Evidence comes from the model's per-step evidence stacks, read in place
(``EnvModel.evidence_stack``): conditioning a belief on one step's feedback
multiplies it by a kernel row, and the feedback branches of a query are the
nonzero rows of the belief times the query's block of the stack.

The planner expands each distinct belief once, in one batch of products
(``_plan``).  Its ``nodes`` count those expansions (the root and the
distinct beliefs of steps 2 to H-1) and the node cap bounds them;
``memo_hits`` counts successors found already expanded.  Step-H beliefs
are scored in bulk and counted in neither.  On request it also records
each expanded belief's best decision and its children, which ``pors`` walks.

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


def _plan(m, cap, decisions=None):
    """Backward induction over the reachable belief tree.

    Returns (value, first action, first query, stats).  Each expanded
    belief is one batch of numpy work: its feedback branches under every
    query set are the nonzero rows of the belief times the step's evidence
    stack (row ``q * R + r``), and one product with the step's transitions,
    all actions side by side, gives the successor of every (branch,
    action).  Successors are memoized on (step, belief rounded to 12
    decimals) and expanded in (query, action, branch) order; step-H
    successors are scored in bulk by their best action's expected reward.
    Given a dict ``decisions``, it maps the memo key of each expanded
    belief, the root's included, to its first best (action, query index)
    and that choice's children, one (kernel row r, child) pair per row q *
    R + r with mass: the successor's memo key, or for a step-H successor
    its first best action.  The count of expanded beliefs is capped:
    exceeding the cap raises rather than approximates.  So do evidence
    stacks of more than ``envs.MAX_TABLE_CELLS`` cells in all, refused
    before they are allocated, and a horizon deeper than the recursion (one
    call per step) can go.
    """
    dims = m.dims
    H, A, S = dims.horizon, dims.n_actions, m.n_states
    qsets = dims.query_sets()
    Q, R = len(qsets), dims.n_evidence_rows
    if (H - 1) * Q * R * S > MAX_TABLE_CELLS:
        raise OracleSizeError(
            f"belief tree for model {m.name!r} needs a ({H - 1}, {Q * R}, {S}) "
            f"evidence stack, over the cap of {MAX_TABLE_CELLS} cells"
        )
    # per step h < H: the (Q * R, S) evidence stack, read in place, and the
    # (S, A * S) transitions with all actions side by side
    kernels = [m.evidence_stack(h) for h in range(1, H)]
    moves = [t.reshape(S, -1) for t in m.joint_transitions()]
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
                decisions[key] = (best_a, 0, ())
            return float(expected_r[best_a]), best_a, 0
        w = p * kernels[h - 1]
        mass = w.sum(axis=1)
        rows = np.flatnonzero(mass)
        succ = ((w[rows] / mass[rows, None]) @ moves[h - 1]).reshape(len(rows), A, S)
        if h + 1 == H:
            final_r = succ @ m.rewards[H - 1]  # (B, A, A') step-H rewards
            child = final_r.max(axis=2)
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
            mine = slice(*np.searchsorted(rows, (qi * R, qi * R + R)))
            if h + 1 == H:
                children = final_r[mine, a].argmax(axis=1).tolist()
            else:
                children = [(h + 1, k.tobytes()) for k in rounded[mine, a]]
            branches = (rows[mine] - qi * R).tolist()
            decisions[key] = (a, qi, tuple(zip(branches, children)))
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


def evaluate_markov_policy(m, policy, memo=None):
    """Exact expected episode reward of a per-episode Markov policy.

    The policy queries a fixed sub-state set every step and draws the step-h
    action from a distribution conditioned on the previous step's revealed
    values and action (the first action from an unconditional distribution).
    Protocol: ``policy.query``, ``policy.first_distribution() -> (A,)``,
    ``policy.action_matrix(h) -> (n_value_codes, A, A)`` for h >= 2.

    Given a dict ``memo`` (one per model), a policy that also has
    ``first_action`` and ``decisions`` (``MarkovEpisodePolicy``: row h - 2
    holds the step-h actions) resumes from its longest decision prefix in
    the memo, which maps (query, first action, ``decisions[:j]`` bytes) to
    the (S, A) joint after step j + 1 and the value through it.  Later steps
    run the same products on the same inputs, so the value is exactly the
    memo-less one.  Other policies ignore the memo.
    """
    H = m.dims.horizon
    decisions = None if memo is None else getattr(policy, "decisions", None)
    state, start = None, 2
    if decisions is not None:
        head = (policy.query, policy.first_action)
        for j in range(H - 2, -1, -1):  # the longest prefix first
            state = memo.get((head, decisions[:j].tobytes()))
            if state is not None:
                start = j + 2
                break
    if state is None:
        first = np.asarray(policy.first_distribution(), dtype=float)
        mu = m.initial[:, None] * first[None, :]  # joint over (state, action)
        total = float((mu * m.rewards[0]).sum())
        if decisions is not None and H > 1:
            memo[(head, b"")] = (mu, total)
    else:
        mu, total = state
    if H == 1:
        return total
    vcode = m.query_codes(tuple(policy.query))[0]
    joint = m.joint_transitions()
    for h in range(start, H + 1):
        mat = np.asarray(policy.action_matrix(h), dtype=float)[vcode]  # (S, A, A')
        flow = mu[:, :, None] * joint[h - 2]  # (S, A, S')
        mu = np.einsum("sat,saA->tA", flow, mat)
        total += float((mu * m.rewards[h - 1]).sum())
        if decisions is not None and h < H:
            memo[(head, decisions[: h - 1].tobytes())] = (mu, total)
    return total
