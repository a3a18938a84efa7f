"""Tests for the sequential learners: exponential-weight query selection,
optimistic tabular Q-learning, and the episode protocol."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsilab.agents import (
    EpsilonGreedySequenceAgent,
    FixedPolicyAgent,
    MarkovEpisodePolicy,
    OpmllAgent,
    OptllAgent,
    QTable,
    ScheduleError,
    UniformMarkovPolicy,
    UniformRandomAgent,
    WeightState,
    block_length,
    default_theta1,
    default_theta2,
    opmll_global_update,
    opmll_local_update,
    opmll_select_supporting,
    optll_update,
    run_episode,
)
from hsilab.core import (
    Dims,
    Feedback,
    decode_state,
    encode_state,
)
from hsilab.envs import (
    BLOCK_DRAWS,
    EnvModel,
    SampleRng,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    derive_generator,
    random_independent_model,
)
from hsilab.oracle import optimal_value
from policy_reference import random_hidden_observation_model, recorded_episode
from sampling_reference import draw_categorical_reference, emit_observation_reference


# ---------------------------------------------------------------------------
# rates and block length


def test_default_theta1_formula_and_clamp():
    assert default_theta1(3, 3, 4000) == math.sqrt(3 * math.log(3) / (9 * 4000))
    # tiny episode budgets push the raw rate above 1; it clamps
    assert default_theta1(2, 1, 1) == 1.0


def test_default_theta2_value_and_clamp():
    # 16 (d-1)/(d_query-1) * theta1
    assert default_theta2(3, 2, 0.01) == 0.32
    assert default_theta2(3, 2, 0.1) == 1.0
    with pytest.raises(ValueError):
        default_theta2(3, 1, 0.01)


def test_block_length():
    assert block_length(3, 2) == 2
    assert block_length(2, 2) == 1
    assert block_length(5, 2) == 4
    assert block_length(5, 3) == 2
    assert block_length(5, 5) == 1
    with pytest.raises(ValueError):
        block_length(3, 1)


# ---------------------------------------------------------------------------
# global weight updates (single-query learner)


def test_weight_state_starts_uniform():
    ws = WeightState(2, 1, 0.1)
    assert ws.global_p[0] == 0.5 and ws.global_p[1] == 0.5
    assert ws.floor_violations() == []


def test_optll_update_hand_example():
    # d=2, theta1=0.1, uniform weights, query 0 earns episode reward 2:
    # only w_0 moves, by exp(theta1 * R / (d * p_0)) = exp(0.2).
    ws = WeightState(2, 1, 0.1)
    optll_update(ws, 0, 2.0)
    assert ws.global_w[0] == math.exp(0.2)
    assert ws.global_w[1] == 1.0
    assert ws.global_p[0] == 0.5448505975812301
    assert abs(ws.global_p.sum() - 1.0) < 1e-12


def test_optll_zero_reward_is_noop():
    ws = WeightState(2, 1, 0.1)
    optll_update(ws, 1, 0.0)
    assert np.all(ws.global_w == 1.0)
    assert np.all(ws.global_p == 0.5)


def test_optll_update_rejects_bad_rewards():
    ws = WeightState(2, 1, 0.1)
    with pytest.raises(ValueError):
        optll_update(ws, 0, -0.5)
    with pytest.raises(ValueError):
        optll_update(ws, 0, 3.5, horizon=3)


# ---------------------------------------------------------------------------
# block updates (multi-query learner)


def test_opmll_global_symmetric_hand_example():
    # d=2, d_query=2: one-episode blocks, factor theta1/2.  A block reward
    # of 2 on the full query set multiplies both weights by exp(0.1), so
    # the mixture stays exactly uniform.
    ws = WeightState(2, 2, 0.1, 0.2)
    assert ws.kappa == 1
    opmll_global_update(ws, [2.0], [(0, 1)])
    assert np.all(ws.global_w == math.exp(0.1))
    assert np.all(ws.global_p == 0.5)


def test_opmll_global_factor():
    # d=3, d_query=2: factor (d-1) theta1 / (d (d_query-1)) = 2 theta1 / 3,
    # applied to the summed rewards of the episodes containing each index.
    ws = WeightState(3, 2, 0.1, 0.2)
    opmll_global_update(ws, [1.0, 0.0], [(0, 1), (0, 2)])
    factor = (3 - 1) * 0.1 / (3 * (2 - 1))
    assert ws.global_w[0] == math.exp(factor * 1.0)
    assert ws.global_w[1] == math.exp(factor * 1.0)
    assert ws.global_w[2] == 1.0


def test_opmll_global_zero_block_is_noop():
    ws = WeightState(3, 2, 0.1, 0.2)
    opmll_global_update(ws, [0.0, 0.0], [(0, 1), (0, 2)])
    assert np.all(ws.global_w == 1.0)


def test_opmll_global_schedule_errors():
    ws = WeightState(3, 2, 0.1, 0.2)  # kappa = 2
    with pytest.raises(ScheduleError):
        opmll_global_update(ws, [1.0], [(0, 1)])
    with pytest.raises(ValueError):
        opmll_global_update(ws, [1.0, 1.0], [(0, 1)])


def test_opmll_local_hand_example():
    # d_query=2, theta2=0.2, reward 1: both members of the previous query
    # set gain exp(theta2 R / d_query) = exp(0.1); mixture stays uniform.
    ws = WeightState(2, 2, 0.1, 0.2)
    ws.query_set = (0, 1)
    ws.prev_query_set = (0, 1)
    opmll_local_update(ws, 1.0)
    assert np.all(ws.local_w == math.exp(0.1))
    assert np.all(ws.local_p == 0.5)


def test_opmll_local_requires_previous_set():
    ws = WeightState(2, 2, 0.1, 0.2)
    ws.query_set = (0, 1)
    with pytest.raises(ValueError):
        opmll_local_update(ws, 1.0)


# ---------------------------------------------------------------------------
# supporter rotation


def test_select_supporting_rotates_without_replacement():
    ws = WeightState(3, 2, 0.1, 0.2)
    ws.leader = 0
    ws.block_pool = [1, 2]
    rng = np.random.default_rng(0)
    first = opmll_select_supporting(ws, rng)
    second = opmll_select_supporting(ws, rng)
    assert first[0] == 0 and second[0] == 0
    # the two supporters differ, so a full block covers every sub-state
    assert {first[1], second[1]} == {1, 2}
    assert set(first) | set(second) == {0, 1, 2}


def test_select_supporting_full_query_uses_everything():
    ws = WeightState(3, 3, 0.1, 0.2)
    ws.leader = 1
    ws.block_pool = [0, 2]
    qs = opmll_select_supporting(ws, np.random.default_rng(0))
    assert qs == (0, 1, 2)


def test_select_supporting_refills_short_pool():
    # d=4, d_query=3: each episode needs 2 supporters from a pool of 3, so
    # the second episode drains the leftover and refills; a complete block
    # still covers all sub-states.
    ws = WeightState(4, 3, 0.1, 0.2)
    assert ws.kappa == 2
    ws.leader = 0
    ws.block_pool = [1, 2, 3]
    rng = np.random.default_rng(1)
    first = opmll_select_supporting(ws, rng)
    second = opmll_select_supporting(ws, rng)
    assert len(first) == len(second) == 3
    assert set(first) | set(second) == {0, 1, 2, 3}


def select_supporting_reference(ws, rng):
    """Reference for ``opmll_select_supporting``: the list-rebuilding
    rotation it replaced, with the same ``rng.choice`` call."""
    leader = ws.leader
    need = ws.d_query - 1
    chosen = []
    pool = [i for i in ws.block_pool if i != leader]
    if len(pool) < need:
        chosen.extend(pool)
        pool = [i for i in range(ws.d) if i != leader and i not in chosen]
    take = need - len(chosen)
    if take:
        picks = rng.choice(len(pool), size=take, replace=False)
        picked = [pool[j] for j in sorted(int(x) for x in picks)]
        chosen.extend(picked)
        pool = [i for i in pool if i not in picked]
    ws.block_pool = pool
    ws.prev_query_set = ws.query_set
    ws.query_set = tuple(sorted([leader] + chosen))
    return ws.query_set


@given(
    st.integers(2, 7), st.integers(0, 6), st.integers(0, 6), st.randoms(),
    st.integers(0, 2**32 - 1), st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_select_supporting_equals_the_reference(d, dq_raw, leader_raw, order, seed, n):
    # any pool (not only the ascending ones the agent makes), several
    # episodes in a row, each pick followed by the one uniform draw
    # begin_episode makes: same query sets, pools and generator state
    dq = 2 + dq_raw % (d - 1)
    leader = leader_raw % d
    pool = [i for i in range(d) if i != leader and order.random() < 0.7]
    order.shuffle(pool)
    states = []
    for _ in range(2):
        ws = WeightState(d, dq, 0.1, 0.2)
        ws.leader, ws.block_pool = leader, list(pool)
        states.append((ws, derive_generator(seed, "agent")))
    (ws, rng), (ref_ws, ref_rng) = states
    for _ in range(n):
        got = opmll_select_supporting(ws, rng)
        assert got == select_supporting_reference(ref_ws, ref_rng)
        assert ws.block_pool == ref_ws.block_pool
        assert ws.prev_query_set == ref_ws.prev_query_set
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# weight renormalization


def test_weight_renorm_preserves_moderate_weights():
    ws = WeightState(2, 1, 0.1)
    ws.global_w = np.array([1e99, 1.0])
    ws.recompute_global_p()
    assert ws.global_w[0] == 1e99  # below the threshold: untouched


def test_weight_renorm_keeps_probabilities():
    ws = WeightState(2, 1, 0.1)
    ws.global_w = np.array([1e101, 1.0])
    expected = 0.9 * np.array([1e101, 1.0]) / (1e101 + 1.0) + 0.05
    ws.recompute_global_p()
    assert ws.global_w[0] == 1.0  # rescaled by the max
    np.testing.assert_allclose(ws.global_p, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# probability floors (property)


@settings(deadline=None)
@given(
    d=st.integers(2, 6),
    theta1=st.floats(0.001, 1.0),
    updates=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 3.0)), min_size=1, max_size=40
    ),
)
def test_global_floor_holds_exactly(d, theta1, updates):
    ws = WeightState(d, 1, theta1)
    for idx, reward_value in updates:
        optll_update(ws, idx % d, reward_value, horizon=3)
        assert ws.floor_violations() == []
        assert ws.global_p.min() >= ws.theta1 / d
        assert abs(ws.global_p.sum() - 1.0) <= 1e-9


@settings(deadline=None)
@given(
    d=st.integers(2, 6),
    dq_raw=st.integers(2, 6),
    theta1=st.floats(0.001, 1.0),
    theta2=st.floats(0.001, 1.0),
    seed=st.integers(0, 10_000),
    rewards=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
)
def test_local_floor_holds_exactly(d, dq_raw, theta1, theta2, seed, rewards):
    dq = min(dq_raw, d)
    ws = WeightState(d, dq, theta1, theta2)
    ws.leader = 0
    ws.block_pool = [i for i in range(d) if i != 0]
    rng = np.random.default_rng(seed)
    for reward_value in rewards:
        qs = opmll_select_supporting(ws, rng)
        assert len(qs) == dq and ws.leader in qs and set(qs) <= set(range(d))
        if ws.prev_query_set is None:
            ws.recompute_local_p()
        else:
            opmll_local_update(ws, reward_value, horizon=3)
        assert ws.floor_violations() == []
        assert ws.local_p.min() >= ws.theta2 / dq


# ---------------------------------------------------------------------------
# optimistic Q table


def test_qtable_fresh_entries_are_optimistic():
    qt = QTable(3, 2, 2)
    qset = qt.ensure((0,))
    assert np.all(qt.q[qset][0] == 3.0)
    assert np.all(qt.q[qset][1] == 3.0)


def q_backup(qt, key, c_bonus, horizon):
    """Reference for the vectorized sweep: recompute one Q entry from its
    empirical statistics.

    Q = min(r_hat + sum_v' P_hat(v') V(v') + c_bonus sqrt(H^2/N), H) with
    V(v') = max_a Q at the next step (H where unvisited, 0 past the end);
    unvisited keys stay at the optimistic H.
    """
    h, qset, values, action = key
    qset = tuple(qset)
    code = encode_state(values, qt.alphabet_size)
    qt.ensure(qset)
    n = int(qt.n[qset][h - 1, code, action])
    if n == 0:
        value = float(horizon)
    else:
        r_hat = qt.rsum[qset][h - 1, code, action] / n
        pv = 0.0
        if h < horizon:
            counts = qt.succ[qset][h - 1, code, action]
            nxt = qt.q[qset][h].max(axis=1)
            for v_code in np.flatnonzero(counts):
                pv += (counts[v_code] / n) * nxt[v_code]
        value = min(r_hat + pv + c_bonus * math.sqrt(horizon * horizon / n), float(horizon))
    qt.q[qset][h - 1, code, action] = value
    return value


def test_q_backup_unvisited_stays_at_horizon():
    qt = QTable(3, 2, 2)
    qset = qt.ensure((0,))
    assert q_backup(qt, (2, qset, (0,), 0), 1.0, 3) == 3.0


def test_q_backup_clamps_at_horizon():
    # mean reward 1, successor value 2, bonus sqrt(9/9) = 1: 4 clamps to 3
    qt = QTable(3, 2, 2)
    qset = qt.ensure((0,))
    for _ in range(9):
        qt.record(2, qset, 0, 0, 1.0, 1)
    qt.q[qset][2, 1, :] = 2.0
    assert q_backup(qt, (2, qset, (0,), 0), 1.0, 3) == 3.0


def test_q_backup_sum_hand_example():
    # mean reward 0.5, successor value 0.5, bonus sqrt(9/900) = 0.1
    qt = QTable(3, 2, 2)
    qset = qt.ensure((0,))
    for _ in range(900):
        qt.record(2, qset, 0, 0, 0.5, 1)
    qt.q[qset][2, 1, :] = 0.5
    assert q_backup(qt, (2, qset, (0,), 0), 1.0, 3) == 1.1


# ---------------------------------------------------------------------------
# sweep vs per-key backup, count bookkeeping


def _run_optll(env, n_episodes, seed):
    agent = OptllAgent(env.dims, n_episodes, derive_generator(seed, "agent"))
    rng_env = SampleRng(seed)
    rewards = [
        run_episode(agent, env, k, rng_env) for k in range(1, n_episodes + 1)
    ]
    return agent, rewards


def test_sweep_matches_per_key_backup():
    env = random_independent_model(
        Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2),
        np.random.default_rng(3),
    )
    agent, _ = _run_optll(env, 200, seed=7)
    qt = agent.qt
    qsets = set(qt.n)
    for qs in qsets:
        agent._sweep(qs)
    snapshot = {
        (h, qs): qt.q[qs][h - 1].copy() for qs in qsets for h in range(1, 4)
    }
    for qs in qsets:
        nc = qt.n_codes(qs)
        for h in range(3, 0, -1):
            for code in range(nc):
                values = decode_state(code, 2, len(qs))
                for a in range(2):
                    q_backup(qt, (h, qs, values, a), agent.qt.c_bonus, 3)
    for (h, qs), expected in snapshot.items():
        np.testing.assert_allclose(qt.q[qs][h - 1], expected, rtol=0, atol=1e-12)


def sweep_reference(qt, qset, c_bonus, episode):
    """Reference for ``_sweep``: the per-step backward backup, one step's
    (n_codes, A) arrays at a time, on integer counts (int64 copies of the
    float successor counts, divisors from the int64 visit counts).
    Returns the (H, n_codes, A) Q stack and the invariant messages,
    without touching the table."""
    H, A = qt.horizon, qt.n_actions
    succ = qt.succ[qset].astype(np.int64)
    nc = qt.n_codes(qset)
    out = np.empty((H, nc, A))
    violations = []
    v_next = np.zeros(nc)
    for h in range(H, 0, -1):
        n = qt.n[qset][h - 1]
        q = np.full((nc, A), float(H))
        visited = n > 0
        if visited.any():
            nn = np.where(visited, n, 1)
            est = qt.rsum[qset][h - 1] / nn
            if h < H:
                est = est + (succ[h - 1] @ v_next) / nn
            est = est + c_bonus * np.sqrt(H * H / nn)
            q[visited] = np.minimum(est, float(H))[visited]
        out[h - 1] = q
        if (q < 0.0).any() or (q > H).any():
            violations.append(f"episode {episode}: Q outside [0, {H}] at step {h}")
        v_next = q.max(axis=1)
    return out, violations


def build_policy_reference(qt, qset, init_counts, q):
    """Reference for ``_build_policy``: one einsum, mean and masked argmax
    per step 2..H, on int64 copies of the successor counts.  Returns the
    first action and the per-step decisions."""
    nc = qt.n_codes(qset)
    succ = qt.succ[qset].astype(np.int64)
    if init_counts is None or init_counts.sum() == 0:
        pred1 = np.full(nc, 1.0 / nc)
    else:
        pred1 = init_counts / init_counts.sum()
    first = int(np.argmax(pred1 @ q[0]))
    decisions = []
    for h in range(2, qt.horizon + 1):
        qarr = q[h - 1]
        default = int(np.argmax(qarr.mean(axis=0)))
        scores = np.einsum("cav,vb->cab", succ[h - 2], qarr)
        dec = np.where(
            qt.n[qset][h - 2] > 0, scores.argmax(axis=2), default
        ).astype(np.int64)
        decisions.append(dec)
    return first, decisions


@st.composite
def _recorded_tables(draw):
    """An op-tll or op-mll agent whose table for one query set holds random
    statistics: visit runs with rewards from a small grid (ties are common,
    and a negative reward breaks the [0, H] invariant), random successors
    and random initial-value counts."""
    V = draw(st.integers(2, 3))
    H = draw(st.integers(1, 4))
    A = draw(st.integers(2, 3))
    dq = draw(st.integers(1, 3))
    dims = Dims(d=dq + 1, alphabet_size=V, d_query=dq, horizon=H, n_actions=A)
    c = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    cls = OptllAgent if dq == 1 else OpmllAgent
    agent = cls(dims, 100, np.random.default_rng(0), c_bonus=c)
    agent.episode = draw(st.integers(1, 50))
    qset = agent.qt.ensure(tuple(range(dq)))
    nc = V**dq
    for _ in range(draw(st.integers(0, 40))):
        h = draw(st.integers(1, H))
        code = draw(st.integers(0, nc - 1))
        action = draw(st.integers(0, A - 1))
        r = draw(st.sampled_from([0.0, 0.5, 1.0, 0.3, -4.0]))
        succ = draw(st.integers(0, nc - 1)) if h < H else None
        for _ in range(draw(st.integers(1, 30))):
            agent.qt.record(h, qset, code, action, r, succ)
    counts = draw(st.lists(st.integers(0, 3), min_size=nc, max_size=nc))
    agent.init_counts[qset] = np.array(counts, dtype=float)
    return agent, qset


@given(_recorded_tables())
@settings(max_examples=300, deadline=None)
def test_record_keeps_the_backup_statistics(case):
    # the divisor, mean reward and bonus record keeps per entry equal the
    # whole-stack arithmetic on the counts and reward sums
    agent, qset = case
    qt = agent.qt
    H, c = qt.horizon, agent.qt.c_bonus
    n, rsum = qt.n[qset], qt.rsum[qset]
    nn = np.where(n > 0, n, 1)
    assert n.dtype == np.int64
    assert qt.nn[qset].dtype == qt.succ[qset].dtype == np.float64
    assert np.array_equal(qt.nn[qset], nn)
    assert np.array_equal(qt.mean[qset], rsum / nn)
    assert np.array_equal(
        qt.bonus[qset], np.where(n > 0, c * np.sqrt(H * H / nn), np.inf)
    )


@given(_recorded_tables())
@settings(max_examples=300, deadline=None)
def test_stacked_sweep_and_policy_equal_per_step_reference(case):
    agent, qset = case
    qt = agent.qt
    want_q, want_violations = sweep_reference(qt, qset, agent.qt.c_bonus, agent.episode)
    agent._sweep(qset)
    assert np.array_equal(qt.q[qset], want_q)
    assert agent.invariant_violations == want_violations
    want_first, want_decisions = build_policy_reference(
        qt, qset, agent.init_counts[qset], want_q
    )
    agent._build_policy(qset)
    policy = agent.episode_policy
    assert policy.first_action == want_first
    assert policy.decisions.shape == (qt.horizon - 1, qt.n_codes(qset), qt.n_actions)
    assert policy.decisions.dtype == np.int64
    for got, want in zip(policy.decisions, want_decisions):
        assert np.array_equal(got, want)


def test_counts_stay_consistent():
    env = random_independent_model(
        Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2),
        np.random.default_rng(3),
    )
    agent, _ = _run_optll(env, 150, seed=11)
    qt = agent.qt
    total = 0
    for qs, n_stack in qt.n.items():
        for h, n in enumerate(n_stack, start=1):
            total += int(n.sum())
            if h < 3:
                # every recorded visit below the last step has exactly one successor
                assert (qt.succ[qs][h - 1].sum(axis=2) == n).all()
    assert total == 150 * 3
    assert sum(int(c.sum()) for c in agent.init_counts.values()) == 150
    assert agent.invariant_violations == []


@pytest.mark.parametrize("cls, dims", [
    (OptllAgent, Dims(d=3, alphabet_size=3, d_query=1, horizon=2, n_actions=2)),
    (OpmllAgent, Dims(d=4, alphabet_size=3, d_query=3, horizon=2, n_actions=2)),
])
def test_observe_codes_equal_encode_state(cls, dims):
    # observe keeps one code per revealed tuple; the first and the kept
    # code are encode_state's, and a value out of range is refused every
    # time, never kept
    agent = cls(dims, 10, np.random.default_rng(0))
    agent.begin_episode(1)
    qset = agent._qset
    V = dims.alphabet_size
    for values in itertools.product(range(V), repeat=len(qset)):
        fb = Feedback(qset, tuple(zip(qset, values)), None, 0.0)
        for _ in range(2):
            agent.observe(1, 0, fb)
            assert agent._prev_code == encode_state(values, V)
    assert agent.init_counts[qset].tolist() == [2.0] * V ** len(qset)
    bad = Feedback(qset, tuple((i, V) for i in qset), None, 0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            agent.observe(1, 0, bad)


# ---------------------------------------------------------------------------
# optimism of the swept values


def _optimism_probe_env():
    """d=2 with a frozen second sub-state: querying sub-state 0 reveals the
    full effective state.  Action 0 keeps sub-state 0 with probability 0.9,
    action 1 flips it with probability 0.9; reward 1 for matching it."""
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    sv = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    joint = np.zeros((1, 4, 2, 4))
    for s in range(4):
        p0, p1 = sv[s]
        for a in range(2):
            likely = p0 if a == 0 else 1 - p0
            for v0 in range(2):
                joint[0, s, a, v0 + 2 * p1] += 0.9 if v0 == likely else 0.1
    rewards = np.zeros((2, 4, 2))
    for h in range(2):
        for s in range(4):
            rewards[h, s, sv[s, 0]] = 1.0
    initial = np.array([0.5, 0.5, 0.0, 0.0])
    return EnvModel.from_joint("optimism-probe", dims, "Generic", initial, joint, rewards)


def test_optimistic_estimate_rarely_below_true_value():
    # Over many (seed, episode) pairs, the swept initial-value estimate for
    # the informative query set should fall below the true optimal value in
    # at most a 2*delta fraction of episodes (delta = 0.05).
    env = _optimism_probe_env()
    v_star = optimal_value(env)
    assert abs(v_star - 1.4) < 1e-12
    violations = 0
    total = 0
    for seed in range(50):
        agent = OptllAgent(env.dims, 120, derive_generator(seed, "agent"))
        rng_env = SampleRng(seed)
        estimates = []

        original = agent.begin_episode

        def recording_begin(k, _agent=agent, _orig=original, _out=estimates):
            _orig(k)
            if _agent._qset == (0,):
                counts = _agent.init_counts[(0,)]
                pred = (
                    np.full(2, 0.5) if counts.sum() == 0 else counts / counts.sum()
                )
                _out.append(float((pred @ _agent.qt.q[(0,)][0]).max()))

        agent.begin_episode = recording_begin
        for k in range(1, 121):
            run_episode(agent, env, k, rng_env)
        assert agent.invariant_violations == []
        total += len(estimates)
        violations += sum(1 for e in estimates if e < v_star - 1e-9)
    assert total > 1000
    assert violations / total <= 0.1


# ---------------------------------------------------------------------------
# full agents


def test_optll_agent_is_deterministic():
    env = random_independent_model(
        Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2),
        np.random.default_rng(5),
    )
    agent_a, rewards_a = _run_optll(env, 60, seed=21)
    agent_b, rewards_b = _run_optll(env, 60, seed=21)
    assert rewards_a == rewards_b
    np.testing.assert_array_equal(agent_a.ws.global_w, agent_b.ws.global_w)


def test_optll_weight_moves_only_for_chosen_substate():
    env = random_independent_model(
        Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2),
        np.random.default_rng(5),
    )
    agent = OptllAgent(env.dims, 10, derive_generator(2, "agent"))
    rng_env = SampleRng(2)
    run_episode(agent, env, 1, rng_env)
    chosen = agent._chosen
    total = agent._last_total
    agent.begin_episode(2)  # applies the pending update
    # the initial mixture was uniform over 3, so the chosen probability was 1/3
    expected = math.exp(agent.ws.theta1 * total / (3 * (1 / 3)))
    assert agent.ws.global_w[chosen] == expected
    for i in range(3):
        if i != chosen:
            assert agent.ws.global_w[i] == 1.0


def test_agent_constructors_validate_query_width():
    dims_single = Dims(d=3, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    dims_multi = Dims(d=3, alphabet_size=2, d_query=2, horizon=2, n_actions=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        OptllAgent(dims_multi, 10, rng)
    with pytest.raises(ValueError):
        OpmllAgent(dims_single, 10, rng)


def test_opmll_block_schedule_and_coverage():
    dims = Dims(d=3, alphabet_size=2, d_query=2, horizon=2, n_actions=2)
    env = random_independent_model(dims, np.random.default_rng(9))
    agent = OpmllAgent(dims, 40, derive_generator(13, "agent"))
    rng_env = SampleRng(13)
    for k in range(1, 41):
        run_episode(agent, env, k, rng_env)
    assert agent.invariant_violations == []
    assert agent.ws.kappa == 2
    log = agent.selection_log
    assert [entry[0] for entry in log] == list(range(1, 41))
    for start in range(0, 40, 2):
        block = log[start : start + 2]
        leaders = {entry[1] for entry in block}
        assert len(leaders) == 1  # the leader is fixed within a block
        covered = set()
        for _, leader, qs in block:
            assert leader in qs and len(qs) == 2
            covered |= set(qs)
        assert covered == {0, 1, 2}  # full coverage every block


def test_opmll_theta2_defaults_from_theta1():
    dims = Dims(d=5, alphabet_size=2, d_query=2, horizon=2, n_actions=2)
    agent = OpmllAgent(dims, 1000, np.random.default_rng(0))
    assert agent.ws.theta2 == default_theta2(5, 2, agent.ws.theta1)
    explicit = OpmllAgent(dims, 1000, np.random.default_rng(0), theta2=0.03)
    assert explicit.ws.theta2 == 0.03


# ---------------------------------------------------------------------------
# episode protocol


class _SpyAgent:
    def __init__(self):
        self.calls = []
        self.invariant_violations = []

    def begin_episode(self, k):
        self.calls.append(("begin", k))

    def act(self, h):
        self.calls.append(("act", h))
        return 0, (0,)

    def observe(self, h, action, fb):
        self.calls.append(("observe", h, action, fb))

    def end_episode(self, total):
        self.calls.append(("end", total))


def test_run_episode_reveals_values_after_the_action():
    # deterministic walk 0 -> 1; the step-h feedback carries the step-h
    # state's queried value and arrives between act(h) and act(h+1)
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    joint = np.zeros((1, 2, 2, 2))
    joint[0, :, :, 1] = 1.0
    rewards = np.zeros((2, 2, 2))
    env = EnvModel.from_joint(
        "walk", dims, "Generic", np.array([1.0, 0.0]), joint, rewards
    )
    spy = _SpyAgent()
    assert run_episode(spy, env, 4, SampleRng(0)) == 0.0
    assert spy.calls == [
        ("begin", 4),
        ("act", 1),
        ("observe", 1, 0, Feedback((0,), ((0, 0),), None, 0.0)),
        ("act", 2),
        ("observe", 2, 0, Feedback((0,), ((0, 1),), None, 0.0)),
        ("end", 0.0),
    ]


def test_run_episode_single_step_horizon():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=1, n_actions=2)
    rewards = np.zeros((1, 2, 2))
    rewards[0, 0, 0] = 1.0
    rewards[0, 1, 1] = 1.0
    env = EnvModel.from_joint(
        "one-step",
        dims,
        "Generic",
        np.array([1.0, 0.0]),
        np.zeros((0, 2, 2, 2)),
        rewards,
    )
    match = FixedPolicyAgent(dims, MarkovEpisodePolicy.from_sequence((0,), (0,), 2, 2))
    total, trace = recorded_episode(match, env, 1, SampleRng(3))
    assert len(trace) == 1
    assert total == 1.0  # reward mean 1 is deterministic
    miss = FixedPolicyAgent(dims, MarkovEpisodePolicy.from_sequence((1,), (0,), 2, 2))
    assert run_episode(miss, env, 1, SampleRng(3)) == 0.0


def run_episode_reference(agent, env, k, rng):
    """``run_episode`` as it read the model before the samplers' cached
    rows: a numpy state-vector row per step, numpy reward means, and the
    reference scan on array-indexed initial, transition and emission rows.
    The loop must hand the agent the same feedback, return the same
    episode reward and leave every stream in the same state."""
    agent.begin_episode(k)
    s = draw_categorical_reference(env.initial, rng.init)
    total = 0.0
    H = env.dims.horizon
    emits = env.class_tag == "Class2"
    for h in range(1, H + 1):
        action, query = agent.act(h)
        r = 1.0 if rng.reward.random() < env.rewards[h - 1, s, action] else 0.0
        vec = env.state_vectors[s]
        hsi = tuple((i, int(vec[i])) for i in query)
        obs = emit_observation_reference(env, h, s, query, rng) if emits else None
        fb = Feedback(query=tuple(query), hsi=hsi, observation=obs, reward=r)
        agent.observe(h, action, fb)
        total += fb.reward
        if h < H:
            if env.transition_form == "product":
                nxt = [
                    draw_categorical_reference(env.product[h - 1, i, v, action], rng.transition)
                    for i, v in enumerate(env.state_vectors[s].tolist())
                ]
                s = encode_state(nxt, env.dims.alphabet_size)
            else:
                s = draw_categorical_reference(env.joint[h - 1, s, action], rng.transition)
    agent.end_episode(total)
    return total


@st.composite
def _episode_envs(draw):
    """A random Generic joint-form, Class1 product-form or Class2 emitting
    model."""
    kind = draw(st.sampled_from(["generic", "class1", "class2"]))
    d = draw(st.integers(1, 3))
    V, A, H = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    d_query = draw(st.integers(1, d))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "class2":
        dims = Dims(d, V, d_query, H, A, n_observations=draw(st.integers(1, 3)))
        return random_hidden_observation_model(gen, dims)
    dims = Dims(d, V, d_query, H, A)
    if kind == "class1":
        return random_independent_model(dims, gen)
    S = dims.n_states
    return EnvModel.from_joint(
        "random-generic",
        dims,
        "Generic",
        gen.dirichlet(np.ones(S)),
        gen.dirichlet(np.ones(S), size=(H - 1, S, A)),
        gen.random((H, S, A)),
    )


def uniform_act_reference(agent, h):
    """``UniformRandomAgent.act`` as two scalar ``integers`` calls per step,
    action first; the blocked draws must yield the same pairs."""
    a = int(agent.rng.integers(agent.episode_policy.n_actions))
    q = agent._qsets[int(agent.rng.integers(len(agent._qsets)))]
    return a, q


class _ScalarUniformAgent(UniformRandomAgent):
    """The uniform baseline drawing through ``uniform_act_reference``."""

    act = uniform_act_reference


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_uniform_agent_blocks_draw_the_scalar_reference_pairs(A, Q, H, seed):
    dims = Dims(Q, 2, 1, H, A)  # Q sub-states queried one at a time: Q sets
    agent = UniformRandomAgent(dims, derive_generator(seed, "agent"))
    ref = _ScalarUniformAgent(dims, derive_generator(seed, "agent"))
    pairs = BLOCK_DRAWS // 2
    for t in range(2 * pairs + 1):  # the first block, then two refills
        h = t % H + 1
        assert agent.act(h) == ref.act(h)
        if t + 1 == 2 * pairs:  # at a block's end the streams meet
            assert agent.rng.bit_generator.state == ref.rng.bit_generator.state


def _episode_agent(kind, dims, seed, reference=False):
    rng = derive_generator(seed, "agent")
    if kind == "uniform":
        return (_ScalarUniformAgent if reference else UniformRandomAgent)(dims, rng)
    if kind == "sequence":
        return EpsilonGreedySequenceAgent(dims, rng)
    A = dims.n_actions
    decisions = rng.integers(A, size=(dims.horizon - 1, dims.n_query_values, A))
    policy = MarkovEpisodePolicy(dims.query_sets()[-1], A - 1, decisions, A)
    return FixedPolicyAgent(dims, policy)


@settings(max_examples=60, deadline=None)
@given(
    _episode_envs(),
    st.sampled_from(["uniform", "sequence", "fixed"]),
    st.integers(0, 2**16),
)
def test_run_episode_equals_the_array_indexing_reference(env, kind, seed):
    agent = _episode_agent(kind, env.dims, seed)
    ref_agent = _episode_agent(kind, env.dims, seed, reference=True)
    rng, ref = SampleRng(seed), SampleRng(seed)
    for k in range(1, 9):
        total, trace = recorded_episode(agent, env, k, rng)
        ref_total, ref_trace = recorded_episode(
            ref_agent, env, k, ref, run=run_episode_reference
        )
        assert (total, trace) == (ref_total, ref_trace)
        for _, _, fb in trace:
            assert all(type(v) is int for _, v in fb.hsi)
    for label in SampleRng.STREAMS:
        # equal generator states pin the blocks drawn, and the next double
        # the position within the block
        stream, ref_stream = getattr(rng, label), getattr(ref, label)
        assert stream.gen.bit_generator.state == ref_stream.gen.bit_generator.state
        assert stream.random() == ref_stream.random()


def test_uniform_agent_reward_mean_on_groups():
    env = build_hard_instance_groups(2, 0.1)
    agent = UniformRandomAgent(env.dims, derive_generator(11, "agent"))
    rng_env = SampleRng(11)
    total = 0.0
    n = 20000
    for k in range(1, n + 1):
        total += run_episode(agent, env, k, rng_env)
    # oracle value of the uniform policy on this instance is 0.5125
    assert abs(total / n - 0.5125) < 0.01


# ---------------------------------------------------------------------------
# fixed policies


def test_markov_policy_from_sequence_replays_actions():
    policy = MarkovEpisodePolicy.from_sequence((0, 1, 1), (1,), 2, 2)
    assert policy.query == (1,)
    assert policy.action(1, None, None) == 0
    for code in range(2):
        for prev in range(2):
            assert policy.action(2, code, prev) == 1
            assert policy.action(3, code, prev) == 1
    twin = MarkovEpisodePolicy.from_sequence((0, 1, 1), (1,), 2, 2)
    assert policy.key() == twin.key()
    assert len({policy.key(), twin.key()}) == 1  # usable as a cache key


def test_fixed_agent_plays_its_policy_at_every_step():
    env = build_hard_instance_flat_emission(0.1)
    dims = env.dims
    rng = SampleRng(5)
    replay = FixedPolicyAgent(
        dims, MarkovEpisodePolicy.from_sequence((0, 1, 1, 0), (1,), 2, 2)
    )
    for k in range(1, 6):
        _, trace = recorded_episode(replay, env, k, rng)
        assert [action for _, action, _ in trace] == [0, 1, 1, 0]
        assert all(fb.query == (1,) for _, _, fb in trace)
    # a policy whose actions depend on the previous step's feedback
    decisions = np.array(
        [[[(h + code + prev) % 2 for prev in range(2)] for code in range(2)]
         for h in range(dims.horizon - 1)]
    )
    policy = MarkovEpisodePolicy((0,), 1, decisions, 2)
    reactive = FixedPolicyAgent(dims, policy)
    for k in range(1, 21):
        _, steps = recorded_episode(reactive, env, k, rng)
        assert steps[0][1] == 1
        for (_, prev_action, prev_fb), (h, action, _) in zip(steps, steps[1:]):
            code = encode_state(prev_fb.values(), dims.alphabet_size)
            assert action == decisions[h - 2, code, prev_action]


def test_markov_policy_action_matrix_is_one_hot_of_decisions():
    decisions = np.array([[[1, 0], [2, 2], [0, 1]], [[2, 1], [0, 0], [1, 2]]])
    policy = MarkovEpisodePolicy((0,), 2, decisions, 3)
    for h in (2, 3):
        mat = policy.action_matrix(h)
        assert mat.shape == (3, 2, 3) and mat.dtype == np.float64
        for code in range(3):
            for prev in range(2):
                want = np.zeros(3)
                want[decisions[h - 2, code, prev]] = 1.0
                assert np.array_equal(mat[code, prev], want)
                assert policy.action(h, code, prev) == decisions[h - 2, code, prev]
    other = MarkovEpisodePolicy((0,), 2, decisions.copy(), 3)
    assert policy.key() == other.key()
    other.decisions[1, 2, 1] = 0
    assert policy.key() != other.key()


def test_uniform_markov_policy_distributions():
    policy = UniformMarkovPolicy((0,), 4, 3)
    np.testing.assert_allclose(policy.first_distribution(), np.full(3, 1 / 3))
    mat = policy.action_matrix(2)
    np.testing.assert_allclose(mat, np.full_like(mat, 1 / 3))
    assert policy.key() == UniformMarkovPolicy((0,), 4, 3).key()


# ---------------------------------------------------------------------------
# sequence bandit


def test_sequence_decode_is_big_endian():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=2, n_actions=3)
    agent = EpsilonGreedySequenceAgent(dims, np.random.default_rng(0))
    assert agent.n_seq == 9
    assert agent.sequence_actions(5) == (1, 2)  # 5 = 1*3 + 2
    assert agent.sequence_actions(0) == (0, 0)
    assert agent.sequence_actions(8) == (2, 2)
    decoded = {agent.sequence_actions(i) for i in range(9)}
    assert len(decoded) == 9


def test_sequence_agent_rejects_huge_spaces():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=17, n_actions=2)
    with pytest.raises(ValueError):
        EpsilonGreedySequenceAgent(dims, np.random.default_rng(0))


def _play(agent, seq, total):
    """End an episode of sequence ``seq`` with reward ``total``."""
    agent._seq = seq
    agent.end_episode(total)


def test_sequence_agent_greedy_choice_and_ties():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    agent = EpsilonGreedySequenceAgent(dims, np.random.default_rng(0), epsilon=0.0)
    assert agent.best_sequence() == 0  # fresh table: ties break low
    for _ in range(5):
        _play(agent, 0, 0.0)  # mean 0 despite visits
    _play(agent, 2, 1.0)
    _play(agent, 2, 2.0)
    assert agent.totals.tolist() == [0.0, 0.0, 3.0, 0.0]
    assert agent.counts.tolist() == [5, 0, 2, 0]
    assert agent.best_sequence() == 2
    agent.begin_episode(1)
    assert agent._seq == 2  # epsilon=0 always exploits
    assert agent.sequence_actions(2) == (1, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.25, 0.75, 1.0]),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 3), max_size=60),
)
def test_best_sequence_is_the_first_argmax_of_the_masked_means(
    A, H, epsilon, seed, totals
):
    # drives the bandit's own loop; the means of unplayed sequences are 0
    # whatever the tables hold, so all-zero tables and ties are common
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=H, n_actions=A)
    agent = EpsilonGreedySequenceAgent(dims, np.random.default_rng(seed), epsilon)

    def masked_means():
        counts = agent.counts
        return np.where(counts > 0, agent.totals / np.maximum(counts, 1), 0.0)

    assert agent.best_sequence() == 0
    for k, total in enumerate(totals, start=1):
        agent.begin_episode(k)
        agent.end_episode(float(min(total, H)))
        means = masked_means()
        best = agent.best_sequence()
        assert best == int(np.argmax(means))
        assert means[:best].max(initial=-1.0) < means[best] == means.max()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 8), max_size=200),
)
def test_kept_best_sequence_follows_falls_and_ties_over_many_sequences(
    H, epsilon, seed, rewards
):
    # up to 256 sequences; a greedy play of the leader with a low reward
    # makes its mean fall, and small integer totals make ties common, so
    # the kept leader must be rescanned and must move to a lower tied index
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=H, n_actions=2)
    agent = EpsilonGreedySequenceAgent(dims, np.random.default_rng(seed), epsilon)
    for k, r in enumerate(rewards, start=1):
        agent.begin_episode(k)
        agent.end_episode(float(min(r, H)))
        means = agent.totals / np.maximum(agent.counts, 1)
        assert agent.best_sequence() == int(means.argmax())


def test_kept_best_sequence_rescans_when_the_leader_falls():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=8, n_actions=2)
    agent = EpsilonGreedySequenceAgent(dims, np.random.default_rng(0), epsilon=0.0)
    _play(agent, 200, 3.0)
    _play(agent, 7, 2.0)
    _play(agent, 100, 2.0)
    assert agent.best_sequence() == 200
    _play(agent, 200, 0.0)  # 1.5: the leader falls below 7 and 100
    assert agent.best_sequence() == 7  # the lowest of the tied means
    _play(agent, 5, 2.0)  # a lower index ties the leader's mean
    assert agent.best_sequence() == 5
    _play(agent, 9, 2.0)  # a higher index that ties does not move it
    assert agent.best_sequence() == 5
    _play(agent, 5, 2.0)  # the leader's mean holds, so it stays
    assert agent.best_sequence() == 5
    _play(agent, 5, 0.0)  # 4/3: the leader falls, and 7 leads the ties at 2
    assert agent.best_sequence() == 7
    agent.begin_episode(1)
    assert agent._seq == 7  # epsilon=0 plays the kept leader


def test_sequence_agent_builds_each_policy_once():
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    agent = EpsilonGreedySequenceAgent(dims, derive_generator(5, "agent"), epsilon=1.0)
    seen = {}
    for k in range(1, 200):
        agent.begin_episode(k)
        policy = agent.episode_policy
        assert seen.setdefault(agent._seq, policy) is policy
        actions = agent.sequence_actions(agent._seq)
        fresh = MarkovEpisodePolicy.from_sequence(
            actions, dims.query_sets()[0], dims.n_query_values, dims.n_actions
        )
        assert policy.key() == fresh.key()
        assert [agent.act(h) for h in range(1, 4)] == [(a, fresh.query) for a in actions]
        agent.end_episode(0.0)
    assert len(seen) == agent.n_seq  # every one of the 8 sequences replayed
