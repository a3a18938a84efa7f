"""Environment models: builders, sampling, structure checks, diagnostics."""

import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsilab import envs
from hsilab.core import (
    Dims,
    Feedback,
    OracleSizeError,
    UnsupportedFeedbackError,
    encode_state,
)
from hsilab.envs import (
    BLOCK_DRAWS,
    EnvModel,
    SampleRng,
    _draw_categorical,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    canonical_state_vectors,
    check_groups_combination,
    check_groups_same_substate,
    controlled_drift_candidates,
    derive_generator,
    emit_observation,
    estimate_cross_covariance,
    groups_state_vectors,
    min_partial_singular_value,
    random_independent_model,
    reward,
    sample_initial,
    transition,
    tree_depth,
    tree_stay_action,
)
from policy_reference import random_hidden_observation_model
from sampling_reference import draw_categorical_reference, emit_observation_reference


# -- randomness plumbing --------------------------------------------------------


def test_derive_generator_stable_and_label_separated():
    a = derive_generator(7, "transition").random(3)
    b = derive_generator(7, "transition").random(3)
    c = derive_generator(7, "reward").random(3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_rng_streams():
    rng = SampleRng(5)
    assert {"init", "transition", "reward", "emission"} <= set(rng.STREAMS)
    again = SampleRng(5)
    for label in rng.STREAMS:
        stream, other = getattr(rng, label), getattr(again, label)
        assert stream.take(4) == [other.random() for _ in range(4)]


def _n_draws(sizes):
    return sum(1 if n is None else n for n in sizes)


@st.composite
def _block_draw_plans(draw):
    """Draw sizes (None for one scalar draw, n for ``take(n)``) that pass at
    least two block ends.  Each end is met exactly by a take or by a scalar
    draw, straddled by one take, or passed together with the next end."""
    sizes, used = [], 0
    while used < 2 * BLOCK_DRAWS:
        plan = draw(st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=4))
        gap = BLOCK_DRAWS - (used + _n_draws(plan)) % BLOCK_DRAWS
        how = draw(st.sampled_from(["take", "scalar", "straddle", "span"]))
        if how == "take":
            plan.append(gap)
        elif how == "scalar":
            plan += [gap - 1, None]
        elif how == "straddle":
            plan.append(gap + draw(st.integers(1, 9)))
        else:
            plan.append(gap + BLOCK_DRAWS + draw(st.integers(0, 9)))
        sizes += plan
        used += _n_draws(plan)
    return sizes


@given(st.integers(0, 2**32 - 1), st.sampled_from(SampleRng.STREAMS), _block_draw_plans())
@settings(max_examples=30, deadline=None)
def test_block_streams_equal_plain_scalar_draws(seed, label, sizes):
    # each SampleRng stream serves exactly the doubles of scalar random()
    # calls on its derived generator, and refills only when a block is used
    # up: at every block end its generator is where the scalar one is
    stream = getattr(SampleRng(seed), label)
    plain = derive_generator(seed, label)
    assert stream.gen.bit_generator.state == plain.bit_generator.state
    for i, n in enumerate(sizes):
        if n is None:
            assert stream.random() == plain.random()
        else:
            assert stream.take(n) == [plain.random() for _ in range(n)]
        if _n_draws(sizes[: i + 1]) % BLOCK_DRAWS == 0:
            assert stream.gen.bit_generator.state == plain.bit_generator.state
    assert _n_draws(sizes) >= 2 * BLOCK_DRAWS


@given(st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=25)
def test_draw_categorical_in_range(seed, n):
    gen = np.random.default_rng(seed)
    p = np.full(n, 1.0 / n)
    idx = _draw_categorical(p, gen)
    assert 0 <= idx < n


def test_draw_categorical_deterministic_rows():
    gen = np.random.default_rng(0)
    assert _draw_categorical(np.array([1.0, 0.0]), gen) == 0
    assert _draw_categorical(np.array([0.0, 1.0]), gen) == 1


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_categorical_fallback_skips_zero_mass():
    # the running sum stops just short of u, so no index is hit directly
    row = np.array([0.3, 0.7 - 1e-16, 0.0])
    assert _draw_categorical(row, _FixedDraw(0.9999999999999999)) == 1
    assert _draw_categorical([0.0, 0.0], _FixedDraw(0.5)) == 0
    assert _draw_categorical(row, _FixedDraw(0.3)) == 1


@st.composite
def _rows_and_uniforms(draw):
    """A probability row that sums to exactly 1 (dyadic masses), to about 1
    (normalised weights), to just under 1, or is all zero, with a tail of
    zero-mass entries, and a uniform at 0, at or just below one of the
    row's running sums, at 1 - 2**-53, or anywhere in [0, 1)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dyadic", "normalised", "short", "zero"]))
    if kind == "zero":
        row = [0.0] * n
    elif kind == "dyadic":
        cuts = draw(st.lists(st.integers(0, 64), min_size=n - 1, max_size=n - 1))
        cuts.sort()
        row = [(b - a) / 64 for a, b in zip([0, *cuts], [*cuts, 64])]
    else:
        weights = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
        weights[-1] = weights[-1] or 1
        row = [w / sum(weights) for w in weights]
        while kind == "short" and list(accumulate(row))[-1] >= 1.0:
            row[-1] -= 2**-53  # exact: row[-1] >= 1/6000
    row += [0.0] * draw(st.integers(0, 3))
    sums = list(accumulate(row))  # the running sums, as the scan adds them
    edges = [0.0, 1.0 - 2**-53, *sums, *(math.nextafter(x, 0.0) for x in sums)]
    edges = [x for x in edges if x < 1.0]  # Generator.random() is below 1
    u = draw(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True))
    return row, u


@given(_rows_and_uniforms())
@settings(max_examples=400, deadline=None)
def test_pick_equals_the_running_sum_reference(case):
    # the reference is the scan _draw_categorical ran before it bisected a
    # cumulative row, so the bisect must land on the same index for every
    # uniform, from a list row as from an array row
    row, u = case
    want = draw_categorical_reference(row, _FixedDraw(u))
    assert _draw_categorical(row, _FixedDraw(u)) == want
    assert _draw_categorical(np.array(row), _FixedDraw(u)) == want


# -- two-group hard instance ------------------------------------------------------


def test_groups_d2_state_vectors():
    group_a, group_b = groups_state_vectors(2)
    assert group_a == [(0, 1), (2, 3)]
    assert group_b == [(2, 1), (0, 3)]


def test_groups_explicit_d3_dq2():
    group_a, group_b = groups_state_vectors(3, 2)
    assert len(group_a) == len(group_b) == 4
    flat = group_a + group_b
    assert len(set(flat)) == 8


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_groups_properties_single_query(d):
    group_a, group_b = groups_state_vectors(d)
    ok1, fail1 = check_groups_same_substate(group_a, group_b)
    ok2, fail2 = check_groups_combination(group_a, group_b, 1)
    assert ok1, fail1
    assert ok2, fail2


def test_groups_properties_d3_dq2():
    group_a, group_b = groups_state_vectors(3, 2)
    assert check_groups_same_substate(group_a, group_b)[0]
    assert check_groups_combination(group_a, group_b, 2)[0]


def test_groups_property_checks_catch_violations():
    # two groups that share nothing
    bad_a = [(0, 0)]
    bad_b = [(1, 1)]
    ok, failures = check_groups_same_substate(bad_a, bad_b)
    assert not ok and failures
    ok2, failures2 = check_groups_combination(bad_a, bad_b, 1)
    assert not ok2 and failures2


def test_groups_model_shape():
    m = build_hard_instance_groups(2, 0.1)
    assert m.class_tag == "Generic"
    assert m.dims.horizon == 4
    assert m.n_states == 4  # two groups of two explicit vectors
    assert m.state_vectors.shape == (4, 2)
    np.testing.assert_allclose(m.joint_transitions().sum(axis=3), 1.0)
    # rewards: only the final step pays, group a at 0.5 + eps
    assert m.rewards[:3].sum() == 0.0
    assert set(np.round(m.rewards[3].ravel(), 12)) == {0.5, 0.6}


def test_groups_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        build_hard_instance_groups(2, 0.5)
    with pytest.raises(ValueError):
        build_hard_instance_groups(2, -0.1)


def test_groups_d5_has_ten_states():
    m = build_hard_instance_groups(5, 0.1)
    assert m.n_states == 10
    assert m.state_vectors.shape == (10, 5)
    rows = {tuple(v) for v in m.state_vectors}
    assert len(rows) == 10


# -- flat-emission hard instance ---------------------------------------------------


def test_flat_emission_model():
    m = build_hard_instance_flat_emission(0.1)
    assert m.class_tag == "Class2"
    assert m.dims.n_observations == 2
    for (h, q), table in m.emissions.items():
        np.testing.assert_allclose(table, 0.5)
        np.testing.assert_allclose(table.sum(axis=0), 1.0)
    assert min_partial_singular_value(m) == pytest.approx(0.0, abs=1e-9)


def test_flat_emission_covers_every_step_and_query():
    m = build_hard_instance_flat_emission(0.1)
    keys = set(m.emissions)
    want = {
        (h, q) for h in range(1, m.dims.horizon + 1) for q in m.dims.query_sets()
    }
    assert keys == want


# -- tree hard instance -------------------------------------------------------------


def test_tree_depth_integer_log():
    assert tree_depth(8, 2) == 3
    assert tree_depth(9, 2) == 4
    assert tree_depth(9, 3) == 2


def test_tree_stay_action_one_based():
    assert tree_stay_action(1, 2) == 1
    assert tree_stay_action(2, 2) == 1  # 2 % 2 == 0 -> max(0, 1)
    assert tree_stay_action(3, 2) == 1
    assert tree_stay_action(5, 3) == 2


def test_tree_structure():
    m = build_hard_instance_tree(2, 3, 2, 0.1)
    joint = m.joint_transitions()
    # fan-out: from s(1), 1-based action j lands on s(2(1-1)+j) = s(j)
    np.testing.assert_array_equal(np.argmax(joint[0, 0], axis=1), [0, 1])
    # and from s(2), on s(2+j)
    np.testing.assert_array_equal(np.argmax(joint[0, 1], axis=1), [2, 3])
    # reward: exactly one starred cell at the final step
    starred = np.argwhere(np.abs(m.rewards - 0.6) < 1e-12)
    assert starred.shape[0] == 1
    h_idx, s_idx, a_idx = starred[0]
    assert h_idx == m.dims.horizon - 1
    assert s_idx == m.n_states - 1
    # stay action keeps the starred state put after the fan-out phase
    depth = tree_depth(m.n_states, m.dims.n_actions)
    for h in range(depth, m.dims.horizon - 1):
        assert np.argmax(joint[h, s_idx, a_idx]) == s_idx


def test_tree_validation():
    with pytest.raises(ValueError):
        build_hard_instance_tree(2, 3, 1, 0.1)
    with pytest.raises(ValueError):
        build_hard_instance_tree(2, 3, 2, 0.1, h0=2)  # h0 must exceed depth
    with pytest.raises(ValueError):
        build_hard_instance_tree(2, 3, 2, 0.1, m_star=9)
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        build_hard_instance_tree(2, 0, 2, 0.1)


@pytest.mark.parametrize(
    "build, cells",
    [
        (lambda: build_hard_instance_groups(2, 0.1, n_actions=3), 3 * 4 * 3 * 4),
        (lambda: build_hard_instance_tree(2, 3, 2, 0.1), 3 * 8 * 2 * 8),
        (lambda: build_controlled_drift_instance(horizon=5), 4 * 4 * 2 * 4),
        (
            lambda: random_independent_model(Dims(3, 2, 1, 3, 2), 0),
            2 * 8 * 2 * 8,
        ),
        # with one step the (H, S, A) rewards are the largest table
        (lambda: random_independent_model(Dims(6, 2, 1, 1, 2), 0), 64 * 2),
    ],
    ids=["groups", "tree", "controlled-drift", "random", "random-one-step"],
)
def test_builders_refuse_tables_over_the_cap(monkeypatch, build, cells):
    # a small cap keeps a missing check from allocating much
    monkeypatch.setattr(envs, "MAX_TABLE_CELLS", 100)
    with pytest.raises(ValueError, match=f"a {cells}-cell table, over the cap of 100"):
        build()
    monkeypatch.setattr(envs, "MAX_TABLE_CELLS", cells)
    build()


# -- random product-form models ------------------------------------------------------


def test_random_model_reproducible():
    dims = Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    m1 = random_independent_model(dims, 42)
    m2 = random_independent_model(dims, 42)
    np.testing.assert_array_equal(m1.product, m2.product)
    np.testing.assert_array_equal(m1.initial, m2.initial)
    np.testing.assert_array_equal(m1.rewards, m2.rewards)
    m3 = random_independent_model(dims, 43)
    assert not np.array_equal(m1.product, m3.product)


def test_random_model_valid_distributions():
    dims = Dims(d=2, alphabet_size=3, d_query=1, horizon=4, n_actions=2)
    m = random_independent_model(dims, 0)
    np.testing.assert_allclose(m.product.sum(axis=4), 1.0)
    np.testing.assert_allclose(m.initial.sum(), 1.0)
    np.testing.assert_allclose(m.joint_transitions().sum(axis=3), 1.0)


def test_product_expansion_matches_factor_product():
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2)
    m = random_independent_model(dims, 11)
    joint = m.joint_transitions()
    sv = canonical_state_vectors(dims)
    for s in range(4):
        for a in range(2):
            for t in range(4):
                want = (
                    m.product[0, 0, sv[s, 0], a, sv[t, 0]]
                    * m.product[0, 1, sv[s, 1], a, sv[t, 1]]
                )
                assert joint[0, s, a, t] == pytest.approx(want, abs=1e-15)


def test_product_transition_sampling_frequencies():
    # empirical sub-state transition frequencies track the kernel (3-sigma)
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=1)
    m = random_independent_model(dims, 3)
    rng = SampleRng(123)
    start = 0
    n = 4000
    counts = np.zeros(4)
    for _ in range(n):
        counts[transition(m, 1, start, 0, rng)] += 1
    probs = m.joint_transitions()[0, start, 0]
    for t in range(4):
        se = np.sqrt(probs[t] * (1 - probs[t]) / n)
        assert abs(counts[t] / n - probs[t]) < 3.5 * se + 1e-9


def product_transition_reference(m, h, s, a, rng):
    """Reference for the product-form ``transition``: one scalar
    ``draw_categorical_reference`` per sub-state on the model's array rows,
    then ``encode_state``."""
    vec = m.state_vectors[s]
    nxt = [
        draw_categorical_reference(m.product[h - 1, i, vec[i], a], rng.transition)
        for i in range(m.dims.d)
    ]
    return encode_state(nxt, m.dims.alphabet_size)


def _stream_states(rng):
    """Each stream's generator state, which pins the blocks it has drawn,
    and its next double, which pins its position in the block."""
    streams = [getattr(rng, label) for label in rng.STREAMS]
    return [(s.gen.bit_generator.state, s.random()) for s in streams]


@given(
    st.integers(1, 5), st.integers(2, 3), st.integers(2, 4), st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_product_sampling_draws_the_reference_stream(d, V, H, A, seed):
    # the samplers read cached list rows and take a transition's d uniforms
    # in one call; the scalar reference on the arrays must draw the same
    # states and leave every stream in the same state
    dims = Dims(d=d, alphabet_size=V, d_query=1, horizon=H, n_actions=A)
    m = random_independent_model(dims, seed % 1000)
    rng, ref = SampleRng(seed), SampleRng(seed)
    actions = np.random.default_rng(seed).integers(A, size=(20, H))
    for episode in range(20):
        s = sample_initial(m, rng)
        assert s == draw_categorical_reference(m.initial, ref.init)
        for h in range(1, H):
            a = int(actions[episode, h - 1])
            nxt = transition(m, h, s, a, rng)
            assert nxt == product_transition_reference(m, h, s, a, ref)
            assert _stream_states(rng) == _stream_states(ref)
            s = nxt


class _ScriptedDraws:
    """A stand-in stream that hands out given doubles in order, one per
    ``random()`` and n per ``take(n)``."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self):
        self.used += 1
        return self.values[self.used - 1]

    def take(self, n):
        self.used += n
        return self.values[self.used - n : self.used]


class _ScriptedRng:
    def __init__(self, transition=(), init=(), emission=()):
        self.transition = _ScriptedDraws(transition)
        self.init = _ScriptedDraws(init)
        self.emission = _ScriptedDraws(emission)


@st.composite
def _short_product_models(draw):
    """Product-form models whose rows sum to just under 1 (within the
    validation tolerance), some with zero-mass tails, plus uniforms that
    often land at or above a row's sum: the scan's fallback branch."""
    d = draw(st.integers(1, 5))
    V = draw(st.integers(2, 3))
    A = draw(st.integers(1, 2))
    dims = Dims(d=d, alphabet_size=V, d_query=1, horizon=2, n_actions=A)
    product = np.zeros((1, d, V, A, V))
    for i in range(d):
        for v in range(V):
            for a in range(A):
                row = np.array(draw(st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=V, max_size=V
                ).filter(any)))
                row /= row.sum()
                row[np.flatnonzero(row)[-1]] -= draw(
                    st.sampled_from([0.0, 2.0**-52, 2.0**-45, 1e-13])
                )
                product[0, i, v, a] = row
    m = EnvModel.from_product(
        name="short", dims=dims, class_tag="Class1",
        initial=np.full(dims.n_states, 1.0 / dims.n_states), product=product,
        rewards=np.zeros((2, dims.n_states, A)),
    )
    s = draw(st.integers(0, dims.n_states - 1))
    a = draw(st.integers(0, A - 1))
    uniforms = draw(st.lists(
        st.sampled_from([0.0, 0.3, 0.5, 1.0 - 2.0**-50, 1.0 - 2.0**-53]),
        min_size=d, max_size=d,
    ))
    return m, s, a, uniforms


@given(_short_product_models())
@settings(max_examples=200, deadline=None)
def test_product_transition_fallback_equals_the_reference(case):
    m, s, a, uniforms = case
    rng, ref = _ScriptedRng(uniforms), _ScriptedRng(uniforms)
    assert transition(m, 1, s, a, rng) == product_transition_reference(m, 1, s, a, ref)
    assert rng.transition.used == ref.transition.used == m.dims.d


def _short_row(draw, n):
    """n masses from {0, 1/4, 1/2, 1}, normalised, the last positive one cut
    so the row sums to just under 1, and maybe one zero mass turned to
    -1e-13: all within the validation tolerance."""
    row = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n
    ).filter(any)))
    row /= row.sum()
    row[np.flatnonzero(row)[-1]] -= draw(st.sampled_from([0.0, 2.0**-52, 2.0**-45, 1e-13]))
    zeros = np.flatnonzero(row == 0.0).tolist()
    if zeros and draw(st.booleans()):
        row[draw(st.sampled_from(zeros))] = -1e-13
    return row


def _edge_uniform(draw, row):
    """A uniform at 0, at or just below one of the row's running sums, at
    or above its total, or anywhere in [0, 1)."""
    sums = list(accumulate(row))  # the running sums, as the scan adds them
    edges = [0.0, 1.0 - 2**-53, math.nextafter(sums[-1], 1.0), *sums]
    edges += [math.nextafter(x, 0.0) for x in sums]
    edges = [x for x in edges if 0.0 <= x < 1.0]  # as Generator.random() draws
    return draw(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True))


def _reference_row(m, label, h, s, x):
    """The row the reference scan draws from for one sampler call."""
    if label == "init":
        return m.initial
    if label == "transition":
        return m.joint[h - 1, s, x]
    return m.emissions[(h, x)][:, m.query_codes(x)[1][s]]


@st.composite
def _kept_row_draws(draw):
    """A joint-form model, Generic or Class2, whose initial row, transition
    rows and emission columns are ``_short_row``s, and sampler calls on it,
    each made twice (so one builds its kept row and one reads it) with
    ``_edge_uniform``s of the row it draws from."""
    d, V, A, H = (draw(st.integers(lo, hi)) for lo, hi in ((1, 2), (2, 3), (1, 2), (2, 3)))
    emits = draw(st.booleans())
    dims = Dims(d, V, 1, H, A, n_observations=draw(st.integers(1, 3)) if emits else 0)
    S = dims.n_states
    joint = np.array(
        [_short_row(draw, S) for _ in range((H - 1) * S * A)]
    ).reshape(H - 1, S, A, S)
    emissions = {
        key: np.array([_short_row(draw, dims.n_observations) for _ in range(dims.n_hidden)]).T
        for key in ((h, q) for h in range(1, H + 1) for q in dims.query_sets())
    } if emits else None
    m = EnvModel.from_joint(
        "short", dims, "Class2" if emits else "Generic", _short_row(draw, S), joint,
        np.zeros((H, S, A)), emissions=emissions,
    )
    labels = ["init", "transition"] + ["emission"] * emits
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        label = draw(st.sampled_from(labels))
        h = draw(st.integers(1, H - (label == "transition")))
        s = draw(st.integers(0, S - 1))
        x = draw(st.integers(0, A - 1) if label == "transition" else st.sampled_from(dims.query_sets()))
        row = _reference_row(m, label, h, s, x).tolist()
        calls += [((label, h, s, x), _edge_uniform(draw, row)) for _ in range(2)]
    return m, draw(st.permutations(calls)), draw(st.integers(0, 2**32 - 1))


@given(_kept_row_draws())
@settings(max_examples=150, deadline=None)
def test_kept_rows_draw_the_reference_scan(case):
    # every sampler bisects a cumulative row it builds on the row's first
    # draw and keeps: the building draw and every later one must pick the
    # reference scan's index, at and just below each running sum and at or
    # above the total, and take the same draws from every stream; the joint
    # and emission caches hold only the rows that were drawn
    m, calls, seed = case
    samplers = {"init": sample_initial, "transition": transition, "emission": emit_observation}
    scripts = {label: [u for (lbl, *_), u in calls if lbl == label] for label in samplers}
    rng, ref = _ScriptedRng(**scripts), _ScriptedRng(**scripts)
    for (label, h, s, x), _ in calls:
        args = (m, rng) if label == "init" else (m, h, s, x, rng)
        want = draw_categorical_reference(
            _reference_row(m, label, h, s, x), getattr(ref, label)
        )
        assert samplers[label](*args) == want
    for label, script in scripts.items():
        assert getattr(rng, label).used == getattr(ref, label).used == len(script)
    A = m.dims.n_actions
    assert {
        (h, at // A, at % A)
        for h, slots in m._joint_rows.items()
        for at, row in enumerate(slots)
        if row is not None
    } == {(h, s, a) for (label, h, s, a), _ in calls if label == "transition"}
    assert all(len(slots) == m.n_states * A for slots in m._joint_rows.values())
    assert {
        (h, q, code)
        for (h, q), (_, slots) in m._emission_rows.items()
        for code, column in enumerate(slots)
        if column is not None
    } == {
        (h, q, m.query_codes(q)[1][s])
        for (label, h, s, q), _ in calls
        if label == "emission"
    }
    # whole episodes on the generator streams, over kept and new rows
    H, emits = m.dims.horizon, bool(m.emissions)
    rng, ref = SampleRng(seed), SampleRng(seed)
    gen = np.random.default_rng(seed)
    for _ in range(4):
        s = sample_initial(m, rng)
        assert s == draw_categorical_reference(m.initial, ref.init)
        for h in range(1, H + 1):
            if emits:
                q = (int(gen.integers(m.dims.d)),)
                assert emit_observation(m, h, s, q, rng) == emit_observation_reference(
                    m, h, s, q, ref
                )
            if h < H:
                a = int(gen.integers(A))
                nxt = transition(m, h, s, a, rng)
                assert nxt == draw_categorical_reference(m.joint[h - 1, s, a], ref.transition)
                s = nxt
        assert _stream_states(rng) == _stream_states(ref)


@given(
    st.sampled_from([1, 2]),
    st.lists(
        st.tuples(st.lists(st.integers(0, 2), max_size=3), st.integers(0, 7)),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_revealed_keeps_the_drawn_pairs(d_query, calls):
    # the kept tuple is the comprehension over the state's vector, as Python
    # ints, built once per (query, state); slots that were never drawn stay
    # empty, and an index outside the vector raises on every call
    m = build_hard_instance_groups(3, 0.1, d_query)
    calls = [(tuple(query), s % m.n_states) for query, s in calls]
    first = {}
    for query, s in calls:
        pairs = m.revealed(query, s)
        vec = m.state_vectors[s]
        assert pairs == tuple([(i, int(vec[i])) for i in query])
        assert all(type(v) is int for _, v in pairs)
        assert pairs is first.setdefault((query, s), pairs)
        assert m.revealed(query, s) is pairs
    assert {
        (query, s)
        for query, slots in m._revealed.items()
        for s, pairs in enumerate(slots)
        if pairs is not None
    } == set(first)
    assert all(len(slots) == m.n_states for slots in m._revealed.values())
    for _ in range(2):
        with pytest.raises(IndexError):
            m.revealed((0, 3), 1)
    assert all(pairs is None for pairs in m._revealed[(0, 3)])


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_generator_vector_draw_equals_scalar_draws(seed, n, offset):
    # product transitions rely on numpy's Generator.random(n) returning the
    # same doubles, in order, as n scalar random() calls, and leaving the
    # generator in the same state
    one, many = derive_generator(seed, "transition"), derive_generator(seed, "transition")
    for _ in range(offset):
        assert one.random() == many.random()
    vector = one.random(n).tolist()
    assert vector == [many.random() for _ in range(n)]
    assert one.bit_generator.state == many.bit_generator.state


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.lists(st.one_of(st.just(1), st.integers(1, 2**31 - 1)), max_size=12),
    st.integers(0, 12),
)
@settings(max_examples=100, deadline=None)
def test_generator_broadcast_integers_equal_scalar_draws(seed, offset, highs, at):
    # UniformRandomAgent relies on Generator.integers(0, highs) drawing the
    # same bounded integers, in order, as one scalar integers(h) call per
    # high, and leaving the generator in the same state; a high of 1 draws
    # nothing on either path, and every list holds one
    highs.insert(at % (len(highs) + 1), 1)
    gen, ref = derive_generator(seed, "agent"), derive_generator(seed, "agent")
    for _ in range(offset):
        assert int(gen.integers(7)) == int(ref.integers(7))
    assert gen.integers(0, highs).tolist() == [int(ref.integers(h)) for h in highs]
    assert gen.bit_generator.state == ref.bit_generator.state


@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.one_of(st.integers(1, 8), st.integers(1, 2**40)), st.integers(0, 3)
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_generator_single_pick_choice_equals_integers(seed, picks):
    # opmll_select_supporting relies on Generator.integers(n) drawing the
    # same value as choice(n, size=1, replace=False) and leaving the
    # generator in the same state, with uniform draws between the picks as
    # begin_episode makes them; n = 1 draws nothing on either path
    gen, ref = derive_generator(seed, "agent"), derive_generator(seed, "agent")
    for n, n_uniform in picks:
        assert int(gen.integers(n)) == int(ref.choice(n, size=1, replace=False)[0])
        assert gen.bit_generator.state == ref.bit_generator.state
        for _ in range(n_uniform):
            assert gen.random() == ref.random()
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "m",
    [
        build_hard_instance_tree(2, 3, 2, 0.1),
        random_independent_model(Dims(3, 3, 2, 3, 2), 4),
        build_controlled_drift_instance(),
    ],
    ids=["joint", "product", "emitting"],
)
def test_sampling_rows_cache_state_vectors_as_python_ints(m):
    rows = m.sampling_rows()
    assert rows is m.sampling_rows()
    assert rows[2] == m.state_vectors.tolist()
    assert all(type(v) is int for vec in rows[2] for v in vec)


def test_reward_is_bernoulli_with_known_mean():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=1, n_actions=1)
    m = EnvModel.from_joint(
        name="coinflip",
        dims=dims,
        class_tag="Generic",
        initial=np.array([1.0, 0.0]),
        joint=np.zeros((0, 2, 1, 2)),
        rewards=np.array([[[0.3], [0.0]]]),
    )
    rng = SampleRng(9)
    draws = [reward(m, 1, 0, 0, rng) for _ in range(4000)]
    assert set(draws) <= {0.0, 1.0}
    assert np.mean(draws) == pytest.approx(0.3, abs=0.03)


def test_emit_requires_emission_model():
    m = build_hard_instance_groups(2, 0.1)
    for _ in range(2):  # nothing is cached, so it raises on every call
        with pytest.raises(UnsupportedFeedbackError):
            emit_observation(m, 1, 0, (0,), SampleRng(0))
    assert m._emission_rows == {} and m._codes == {}


def test_emit_refuses_a_query_that_is_not_a_query_set():
    # the emission lookup is the query's one check: an unsorted, repeated or
    # out-of-range query has no table, on every call, and is never cached
    dims = Dims(d=3, alphabet_size=2, d_query=2, horizon=2, n_actions=2,
                n_observations=2)
    m = random_hidden_observation_model(np.random.default_rng(0), dims)
    assert emit_observation(m, 1, 0, (0, 1), SampleRng(0)) in (0, 1)
    for query in ((1, 0), (0, 0), (5,)) * 2:
        with pytest.raises(UnsupportedFeedbackError, match=re.escape(
            f"model 'random-hidden-obs' has no emission table for step 1, "
            f"query {query}"
        )):
            emit_observation(m, 1, 0, query, SampleRng(0))
    assert list(m._emission_rows) == [(1, (0, 1))] and list(m._codes) == [(0, 1)]


def test_sample_initial_respects_point_mass():
    m = build_hard_instance_groups(2, 0.1)
    rng = SampleRng(1)
    assert all(sample_initial(m, rng) == 0 for _ in range(5))


# -- model validation ---------------------------------------------------------------


def test_envmodel_rejects_non_stochastic_rows():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=2, n_actions=1)
    with pytest.raises(ValueError):
        EnvModel.from_joint(
            name="bad",
            dims=dims,
            class_tag="Generic",
            initial=np.array([1.0, 0.0]),
            joint=np.full((1, 2, 1, 2), 0.3),
            rewards=np.zeros((2, 2, 1)),
        )


def test_envmodel_rejects_emissions_on_generic():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=1, n_actions=1,
                n_observations=2)
    with pytest.raises(ValueError):
        EnvModel.from_joint(
            name="bad",
            dims=dims,
            class_tag="Generic",
            initial=np.array([1.0, 0.0]),
            joint=np.zeros((0, 2, 1, 2)),
            rewards=np.zeros((1, 2, 1)),
            emissions={(1, (0,)): np.ones((2, 1)) * 0.5},
        )


def test_envmodel_rejects_duplicate_state_vectors():
    dims = Dims(d=2, alphabet_size=4, d_query=1, horizon=1, n_actions=1)
    with pytest.raises(ValueError):
        EnvModel.from_joint(
            name="bad",
            dims=dims,
            class_tag="Generic",
            initial=np.array([0.5, 0.5]),
            joint=np.zeros((0, 2, 1, 2)),
            rewards=np.zeros((1, 2, 1)),
            state_vectors=np.array([[0, 1], [0, 1]]),
        )


@pytest.mark.parametrize("table", ["initial", "rewards", "joint", "product", "emissions"])
def test_envmodel_rejects_non_finite_tables(table):
    if table == "joint":
        m = build_hard_instance_groups(2, 0.1)
    else:
        m = build_controlled_drift_instance()
    arr = m.emissions[(1, (0,))] if table == "emissions" else getattr(m, table)
    arr.flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        m.validate()


def test_envmodel_needs_exactly_one_transition_table():
    m = build_controlled_drift_instance()
    fields = dict(
        name=m.name,
        dims=m.dims,
        class_tag=m.class_tag,
        initial=m.initial,
        rewards=m.rewards,
        state_vectors=m.state_vectors,
        emissions=m.emissions,
    )
    joint = m.joint_transitions()
    assert EnvModel(**fields, joint=joint).validate().transition_form == "joint"
    assert EnvModel(**fields, product=m.product).validate().transition_form == "product"
    for tables in ({"joint": joint, "product": m.product}, {}):
        with pytest.raises(ValueError, match="exactly one of joint and product"):
            EnvModel(**fields, **tables).validate()


# -- evidence kernel ------------------------------------------------------------------


def test_evidence_kernel_layout():
    drift = build_controlled_drift_instance(0.8, 0.7, 0.9)
    kernel = drift.evidence(1, (0,))
    assert kernel.shape == (4, 4)  # (value code, symbol) rows x states
    np.testing.assert_array_equal(kernel.sum(axis=0), np.ones(4))
    for s, (v0, v1) in enumerate(drift.state_vectors):
        for v in range(2):
            for o in range(2):
                want = (v == v0) * (0.9 if o == v1 else 1.0 - 0.9)
                assert kernel[v * 2 + o, s] == want
    assert np.shares_memory(kernel, drift.evidence_stack(1))  # held once
    groups = build_hard_instance_groups(2, 0.1)
    kernel = groups.evidence(2, (1,))
    assert kernel.shape == (groups.dims.n_query_values, groups.n_states)
    np.testing.assert_array_equal(kernel.sum(axis=0), np.ones(groups.n_states))
    assert set(kernel.ravel()) == {0.0, 1.0}


def test_evidence_stack_refuses_over_the_cap_before_allocating(monkeypatch):
    drift = build_controlled_drift_instance(0.8, 0.7, 0.9)
    cells = len(drift.dims.query_sets()) * drift.dims.n_evidence_rows * drift.n_states
    monkeypatch.setattr(envs, "MAX_TABLE_CELLS", cells - 1)

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated a stack over the cap")

    with monkeypatch.context() as patched:
        patched.setattr(np, "zeros", no_alloc)
        with pytest.raises(OracleSizeError, match=f"over the cap of {cells - 1} cells"):
            drift.evidence_stack(1)
        with pytest.raises(OracleSizeError):
            drift.evidence(1, (0,))
    monkeypatch.setattr(envs, "MAX_TABLE_CELLS", cells)
    assert drift.evidence_stack(1).shape == (cells // drift.n_states, drift.n_states)


def test_evidence_row_rejects_mismatched_observations():
    drift = build_controlled_drift_instance()
    groups = build_hard_instance_groups(2, 0.1)
    # the same revealed value with a fitting symbol is cached first; a
    # misfit is never cached, so it raises on every call
    for m, fits in ((drift, 1), (groups, None)):
        fb = Feedback(query=(0,), hsi=((0, 1),), observation=fits, reward=0.0)
        assert m.evidence_index(1, fb) == m.evidence_index(1, fb)
    for m, obs in ((drift, None), (drift, 2), (groups, 0)):
        fb = Feedback(query=(0,), hsi=((0, 1),), observation=obs, reward=0.0)
        for _ in range(2):
            with pytest.raises(UnsupportedFeedbackError):
                m.evidence_index(1, fb)
    outside = Feedback(query=(0,), hsi=((0, 2),), observation=0, reward=0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            drift.evidence_index(1, outside)


def test_evidence_rows_are_cached_once_per_fitting_feedback():
    # row v * n_obs + o at every step; one entry per (query set, row)
    drift = build_controlled_drift_instance()
    dims = drift.dims
    for h in (1, 2):
        for query in dims.query_sets():
            for v in range(dims.alphabet_size):
                for o in range(dims.n_observations):
                    fb = Feedback(query, ((query[0], v),), o, 0.0)
                    assert drift.evidence_index(h, fb) == v * dims.n_observations + o
    assert len(drift._index) == len(dims.query_sets()) * dims.n_evidence_rows


# -- controlled-drift family ---------------------------------------------------------


def test_controlled_drift_family():
    cands = controlled_drift_candidates()
    assert len(cands) == 8
    truth = build_controlled_drift_instance(0.8, 0.7, 0.8)
    assert [c.name for c in cands].index(truth.name) == 7
    base = cands[0]
    for c in cands:
        np.testing.assert_array_equal(c.rewards, base.rewards)
        np.testing.assert_array_equal(c.initial, base.initial)
        assert c.class_tag == "Class2"


# -- diagnostics ----------------------------------------------------------------------


def test_cross_covariance_zero_on_product_models():
    dims = Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    m = random_independent_model(dims, 5)
    assert estimate_cross_covariance(m) == pytest.approx(0.0, abs=1e-9)


def test_cross_covariance_quarter_on_correlated_pair():
    # two sub-states forced equal and uniform: cov(x0, x1) = 1/4 exactly
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=1)
    joint = np.zeros((1, 4, 1, 4))
    joint[0, :, 0, 0] = 0.5
    joint[0, :, 0, 3] = 0.5
    m = EnvModel.from_joint(
        name="pair",
        dims=dims,
        class_tag="Generic",
        initial=np.array([0.25, 0.25, 0.25, 0.25]),
        joint=joint,
        rewards=np.zeros((2, 4, 1)),
    )
    assert estimate_cross_covariance(m) == pytest.approx(0.25, abs=1e-9)


def test_min_partial_singular_value_cases():
    base = build_hard_instance_flat_emission(0.1)
    assert min_partial_singular_value(base) == pytest.approx(0.0, abs=1e-9)

    def with_tables(table):
        emissions = {
            (h, q): np.array(table, dtype=float)
            for h in range(1, base.dims.horizon + 1)
            for q in base.dims.query_sets()
        }
        return EnvModel.from_product(
            name="emission-variant",
            dims=base.dims,
            class_tag="Class2",
            initial=base.initial,
            product=base.product,
            rewards=base.rewards,
            emissions=emissions,
        )

    identity = with_tables([[1.0, 0.0], [0.0, 1.0]])
    assert min_partial_singular_value(identity) == pytest.approx(1.0, abs=1e-9)
    tilted = with_tables([[0.9, 0.1], [0.1, 0.9]])
    assert min_partial_singular_value(tilted) == pytest.approx(0.8, abs=1e-9)
