"""Exact planner: optimal values, the trace filter, policy evaluation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsilab.core import (
    Dims,
    Feedback,
    OracleSizeError,
)
from hsilab.envs import (
    SampleRng,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    controlled_drift_candidates,
    derive_generator,
    random_independent_model,
)
from hsilab.agents import UniformRandomAgent, run_episode
from hsilab.oracle import (
    evaluate_markov_policy,
    optimal_value,
    oracle_report,
)
from hsilab.agents import MarkovEpisodePolicy, UniformMarkovPolicy
from hsilab.pors import evaluate_policy_value
from policy_reference import (
    brute_force_markov_value,
    full_history_policies,
    trace_log_likelihood,
)


def mdp_optimal_value(m):
    """Optimal value if the state were fully visible before each action.

    Standard tabular backward induction; upper-bounds the hindsight-feedback
    optimum (equal when knowing the current state adds nothing, e.g. under
    deterministic transitions from a deterministic start).
    """
    H = m.dims.horizon
    v = np.zeros(m.n_states)
    for h in range(H, 0, -1):
        q = np.array(m.rewards[h - 1], dtype=float)
        if h < H:
            q = q + m.joint_transitions()[h - 1] @ v
        v = q.max(axis=1)
    return float(m.initial @ v)


def _feedback_likelihoods(m, h, query):
    """Per feedback outcome of querying at step h, its likelihood in each
    state, read from the state vectors and emission tables directly."""
    sv = m.state_vectors
    V = m.dims.alphabet_size
    hidden = [i for i in range(m.dims.d) if i not in query]
    hidden_code = sv[:, hidden] @ V ** np.arange(len(hidden), dtype=np.int64)
    out = []
    for values in itertools.product(range(V), repeat=len(query)):
        match = np.all(sv[:, list(query)] == values, axis=1).astype(float)
        if m.emissions:
            table = np.asarray(m.emissions[(h, query)], dtype=float)
            out += [match * table[o, hidden_code] for o in range(len(table))]
        else:
            out.append(match)
    return out


def reference_step_values(m, h, p):
    """Value of each (action, query set) at step h from belief p, followed
    by optimal play: a plain recursion with no memo and no rounding, one
    matrix-vector product per query, feedback branch and action."""
    H, A = m.dims.horizon, m.dims.n_actions
    expected_r = p @ m.rewards[h - 1]
    out = {}
    for q in m.dims.query_sets():
        for a in range(A):
            total = float(expected_r[a])
            if h < H:
                for like in _feedback_likelihoods(m, h, q):
                    w = p * like
                    mass = w.sum()
                    if mass > 0.0:
                        nxt = (w / mass) @ m.joint_transitions()[h - 1, :, a, :]
                        total += mass * max(reference_step_values(m, h + 1, nxt).values())
            out[(a, q)] = total
    return out


_unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _small_models(draw):
    kind = draw(st.sampled_from(["class1", "drift", "flat"]))
    if kind == "class1":
        d = draw(st.integers(1, 3))
        dims = Dims(
            d=d,
            alphabet_size=draw(st.integers(2, 3)),
            d_query=draw(st.integers(1, d)),
            horizon=draw(st.integers(1, 3)),
            n_actions=draw(st.integers(2, 3)),
        )
        return random_independent_model(dims, draw(st.integers(0, 2**32)))
    if kind == "drift":
        return build_controlled_drift_instance(
            draw(_unit), draw(_unit), draw(_unit), draw(st.integers(2, 4))
        )
    return build_hard_instance_flat_emission(draw(st.floats(0.01, 0.35)))


# -- optimal values on the hard instances ------------------------------------------


def test_groups_optimal_value_is_half_plus_epsilon():
    m = build_hard_instance_groups(2, 0.1)
    assert optimal_value(m) == pytest.approx(0.6, abs=1e-9)


def test_flat_emission_optimal_value_is_half_plus_epsilon():
    m = build_hard_instance_flat_emission(0.1)
    assert optimal_value(m) == pytest.approx(0.6, abs=1e-9)


def test_tree_optimal_value():
    m = build_hard_instance_tree(2, 3, 2, 0.1)
    assert optimal_value(m) == pytest.approx(0.6, abs=1e-9)


def test_groups_epsilon_sweep():
    for eps in (0.05, 0.2, 0.3):
        m = build_hard_instance_groups(2, eps)
        assert optimal_value(m) == pytest.approx(0.5 + eps, abs=1e-9)


def test_controlled_drift_optimal_value():
    m = build_controlled_drift_instance(0.8, 0.7, 0.8)
    assert optimal_value(m) == pytest.approx(0.8, abs=1e-9)


def test_oracle_report_fields():
    m = build_hard_instance_groups(2, 0.1)
    rep = oracle_report(m)
    assert rep["model"] == m.name
    assert rep["v_star"] == pytest.approx(0.6, abs=1e-9)
    assert rep["first_query"] in [tuple(q) for q in m.dims.query_sets()]
    assert 0 <= rep["first_action"] < m.dims.n_actions
    assert rep["nodes"] >= 1 and rep["node_cap"] >= rep["nodes"]


def test_oracle_value_invariant_under_substate_relabeling():
    # permuting sub-state labels cannot change the optimal value
    m = build_hard_instance_groups(3, 0.1)
    perm = [2, 0, 1]
    sv = m.state_vectors[:, perm]
    from hsilab.envs import EnvModel

    m2 = EnvModel.from_joint(
        name="permuted",
        dims=m.dims,
        class_tag=m.class_tag,
        initial=m.initial,
        joint=m.joint,
        rewards=m.rewards,
        state_vectors=sv,
    )
    assert optimal_value(m2) == pytest.approx(optimal_value(m), abs=1e-9)


def test_full_query_matches_mdp_on_deterministic_instances():
    # when every sub-state is revealed and dynamics are deterministic the
    # query oracle attains the full-information optimum
    tree = build_hard_instance_tree(2, 2, 2, 0.1)
    assert optimal_value(tree) == pytest.approx(
        mdp_optimal_value(tree), abs=1e-9
    )


def test_mdp_value_upper_bounds_query_value():
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    for seed in range(5):
        m = random_independent_model(dims, seed)
        assert optimal_value(m) <= mdp_optimal_value(m) + 1e-12


def test_optimal_value_matches_best_full_history_policy():
    # V* is attained by a deterministic feedback-history policy, so the
    # belief-tree planner must agree with brute force over that family
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    models = [random_independent_model(dims, seed) for seed in range(100)]
    models += controlled_drift_candidates()
    for m in models:
        best = max(
            evaluate_policy_value(m, pol) for pol in full_history_policies(m.dims)
        )
        assert abs(optimal_value(m) - best) <= 1e-12, m.name


@settings(max_examples=60, deadline=None)
@given(_small_models())
def test_optimal_value_matches_unmemoized_reference(m):
    # the memo key rounds beliefs to 12 decimals and the planner batches
    # every branch and action of a node; neither may move V* or the first step
    values = reference_step_values(m, 1, np.array(m.initial, dtype=float))
    best = max(values.values())
    assert abs(optimal_value(m) - best) <= 1e-12
    rep = oracle_report(m)
    first = values[(rep["first_action"], tuple(rep["first_query"]))]
    assert abs(first - best) <= 1e-12


def test_node_cap_raises():
    m = build_hard_instance_groups(3, 0.1)
    with pytest.raises(OracleSizeError):
        optimal_value(m, cap=2)
    nodes = oracle_report(m)["nodes"]
    assert oracle_report(m, cap=nodes)["nodes"] == nodes
    with pytest.raises(OracleSizeError):
        optimal_value(m, cap=nodes - 1)


def test_kernel_stack_cap_raises(monkeypatch):
    from hsilab import oracle

    m = build_hard_instance_groups(3, 0.1)
    dims = m.dims
    # (H - 1) steps x (query sets x kernel rows per query set) x states
    rows = len(dims.query_sets()) * dims.n_evidence_rows
    cells = (dims.horizon - 1) * rows * m.n_states
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", cells)
    assert abs(optimal_value(m) - 0.6) < 1e-12
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", cells - 1)
    with pytest.raises(OracleSizeError, match=f"over the cap of {cells - 1} cells"):
        optimal_value(m)


def test_oracle_report_pins_the_dp_on_a_five_step_instance():
    # exact outputs, not a tolerance: a changed tie-break, branch order or
    # memo key at H >= 3 shows here
    m = random_independent_model(Dims(5, 2, 2, 5, 2), 0)
    report = oracle_report(m)
    assert report["v_star"] == 2.820157626152259
    assert (report["nodes"], report["memo_hits"]) == (38009, 211672)


# -- exact filtering (the reference in policy_reference) -------------------------------


def test_trace_log_likelihood_conditions_then_transitions():
    # queried value 1 at position 0 then action 0, which keeps sub-state 0
    # with probability 0.8: the second step's value is 1 w.p. 0.8
    m = build_controlled_drift_instance(0.8, 0.7, 0.8)
    first = (1, 0, Feedback((0,), ((0, 1),), 0, 0.0))
    p_first = np.exp(trace_log_likelihood(m, [first]))
    p_stay = 0.0
    for o2 in range(2):
        second = (2, 0, Feedback((0,), ((0, 1),), o2, 0.0))
        p_stay += np.exp(trace_log_likelihood(m, [first, second]))
    assert p_stay / p_first == pytest.approx(0.8, abs=1e-12)


def test_trace_log_likelihood_simple_exact():
    m = build_controlled_drift_instance(1.0, 1.0, 1.0)
    # deterministic dynamics, perfect emissions: a consistent trace has
    # likelihood = P(initial pair) = 1/4
    trace = [
        (1, 0, Feedback(query=(0,), hsi=((0, 0),), observation=0, reward=0.0)),
        (2, 0, Feedback(query=(0,), hsi=((0, 0),), observation=0, reward=1.0)),
    ]
    assert trace_log_likelihood(m, trace) == pytest.approx(np.log(0.25))


def test_trace_log_likelihood_zero_probability_is_minus_inf():
    m = build_controlled_drift_instance(1.0, 1.0, 1.0)
    trace = [
        (1, 0, Feedback(query=(0,), hsi=((0, 0),), observation=0, reward=0.0)),
        # impossible: sub-state 0 cannot flip under action 0 when stay=1
        (2, 0, Feedback(query=(0,), hsi=((0, 1),), observation=0, reward=0.0)),
    ]
    assert trace_log_likelihood(m, trace) == float("-inf")


def test_trace_likelihoods_normalize_over_feedback_space():
    m = build_controlled_drift_instance(0.8, 0.7, 0.8)
    total = 0.0
    for v1 in range(2):
        for o1 in range(2):
            for v2 in range(2):
                for o2 in range(2):
                    trace = [
                        (1, 1, Feedback((0,), ((0, v1),), o1, 0.0)),
                        (2, 0, Feedback((1,), ((1, v2),), o2, 0.0)),
                    ]
                    total += np.exp(trace_log_likelihood(m, trace))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- exact policy evaluation -----------------------------------------------------------


def test_uniform_policy_value_on_groups():
    m = build_hard_instance_groups(2, 0.1)
    pol = UniformMarkovPolicy((0,), m.dims.n_query_values, m.dims.n_actions)
    # exact enumeration over the 8 equally likely action sequences
    assert evaluate_markov_policy(m, pol) == pytest.approx(0.5125, abs=1e-12)


def test_uniform_policy_value_on_flat_emission():
    m = build_hard_instance_flat_emission(0.1)
    pol = UniformMarkovPolicy((0,), m.dims.n_query_values, m.dims.n_actions)
    assert evaluate_markov_policy(m, pol) == pytest.approx(0.5125, abs=1e-12)


def test_markov_policy_value_matches_sampling():
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    m = random_independent_model(dims, 2)
    agent = UniformRandomAgent(m.dims, derive_generator(4, "agent"))
    env_rng = SampleRng(4)
    n = 20000
    mean = np.mean(
        [run_episode(agent, m, k, env_rng) for k in range(1, n + 1)]
    )
    pol = UniformMarkovPolicy((0,), m.dims.n_query_values, m.dims.n_actions)
    exact = evaluate_markov_policy(m, pol)
    assert mean == pytest.approx(exact, abs=0.05)


@st.composite
def _prefix_sharing_policies(draw):
    """A random model and Markov policies on it (``_draw_policies``)."""
    H = draw(st.integers(1, 4))
    d = draw(st.integers(2, 3))
    A = draw(st.integers(2, 3))
    dims = Dims(d=d, alphabet_size=2, d_query=draw(st.integers(1, d - 1)),
                horizon=H, n_actions=A)
    m = random_independent_model(dims, draw(st.integers(0, 999)))
    return m, _draw_policies(draw, m)


def _draw_policies(draw, m):
    """Markov policies on m over random queries, first actions and
    decisions, most of which copy an earlier policy's query, first action
    and first decision rows and redraw the rest."""
    dims = m.dims
    H, A = dims.horizon, dims.n_actions
    qsets = dims.query_sets()
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    policies = []
    for _ in range(draw(st.integers(1, 12))):
        query = qsets[draw(st.integers(0, len(qsets) - 1))]
        first = draw(st.integers(0, A - 1))
        decisions = gen.integers(A, size=(H - 1, dims.n_query_values, A))
        if policies and draw(st.integers(0, 3)):
            base = policies[draw(st.integers(0, len(policies) - 1))]
            query, first = base.query, base.first_action
            keep = draw(st.integers(0, H - 1))
            decisions[:keep] = base.decisions[:keep]
        policies.append(MarkovEpisodePolicy(query, first, decisions, A))
    return policies


@given(_prefix_sharing_policies())
@settings(max_examples=200, deadline=None)
def test_prefix_memo_returns_the_plain_value_exactly(case):
    m, policies = case
    memo = {}
    for policy in policies:
        assert evaluate_markov_policy(m, policy, memo) == evaluate_markov_policy(
            m, policy
        )
    # a policy without decisions ignores the memo
    uniform = UniformMarkovPolicy(policies[0].query, m.dims.n_query_values,
                                  m.dims.n_actions)
    before = dict(memo)
    assert evaluate_markov_policy(m, uniform, memo) == evaluate_markov_policy(
        m, uniform
    )
    assert memo == before


@st.composite
def _small_models_and_policies(draw):
    """The groups instance or a small random Class1 model, with Markov
    policies as in ``_prefix_sharing_policies``."""
    if draw(st.booleans()):
        m = build_hard_instance_groups(2, draw(st.sampled_from([0.05, 0.1, 0.25])))
    else:
        d = draw(st.integers(1, 3))
        dims = Dims(d=d, alphabet_size=2, d_query=draw(st.integers(1, d)),
                    horizon=draw(st.integers(1, 3)), n_actions=draw(st.integers(1, 3)))
        m = random_independent_model(dims, draw(st.integers(0, 999)))
    return m, _draw_policies(draw, m)


@given(_small_models_and_policies())
@settings(max_examples=100, deadline=None)
def test_markov_policy_value_matches_the_brute_force_path_sum(case):
    m, policies = case
    policies.append(UniformMarkovPolicy(policies[0].query, m.dims.n_query_values,
                                        m.dims.n_actions))
    memo = {}
    for policy in policies:
        want = brute_force_markov_value(m, policy)
        assert abs(evaluate_markov_policy(m, policy) - want) <= 1e-12
        assert abs(evaluate_markov_policy(m, policy, memo) - want) <= 1e-12


def test_prefix_memo_keeps_each_prefix_once():
    # H = 4: a policy stores the joint after steps 1, 2 and 3 under its
    # first 0, 1 and 2 decision rows; a policy sharing two rows adds one
    dims = Dims(d=3, alphabet_size=2, d_query=2, horizon=4, n_actions=2)
    m = random_independent_model(dims, 5)
    decisions = np.zeros((3, dims.n_query_values, 2), dtype=np.int64)
    memo = {}
    evaluate_markov_policy(m, MarkovEpisodePolicy((0, 1), 1, decisions, 2), memo)
    head = ((0, 1), 1)
    assert set(memo) == {(head, decisions[:j].tobytes()) for j in range(3)}
    other = decisions.copy()
    other[2, 0, 0] = 1
    evaluate_markov_policy(m, MarkovEpisodePolicy((0, 1), 1, other, 2), memo)
    assert len(memo) == 3
    other[1, 3, 1] = 1
    evaluate_markov_policy(m, MarkovEpisodePolicy((0, 1), 1, other, 2), memo)
    assert len(memo) == 4
