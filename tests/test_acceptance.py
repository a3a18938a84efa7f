"""Acceptance gate: twelve end-to-end checks, one PASS/FAIL line each.

Each check states its tolerance and runtime budget inline and asserts
both.  Heavy learner sweeps are shared through module-scoped fixtures so
the invariant check (gate 7) sees exactly the runs that gates 5 and 6
scored.  The PASS/FAIL lines are echoed in the terminal summary by the
conftest hook.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from hsilab.core import Dims
from hsilab.envs import (
    EnvModel,
    SampleRng,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    controlled_drift_candidates,
    derive_generator,
    estimate_cross_covariance,
    min_partial_singular_value,
    random_independent_model,
)
from hsilab.agents import (
    EpsilonGreedySequenceAgent,
    MarkovEpisodePolicy,
    OpmllAgent,
    OptllAgent,
    UniformRandomAgent,
    run_episode,
)
from hsilab.oracle import (
    evaluate_markov_policy,
    optimal_value,
)
from hsilab.pors import (
    CandidateFilter,
    PlanningContext,
    PorsAgent,
    evaluate_policy_value,
    feedback_log_likelihood,
)
from hsilab.harness import load_config, run_suite, verify_instance, write_results_csv
from hsilab.serialize import dump_candidates
from policy_reference import full_history_policies, random_hidden_observation_model


def _gate(number, label, ok, detail):
    line = f"[{number:2d}/12] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    record_acceptance(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared learner sweeps


def _regret_run(agent, env, v_star, n_episodes, rng, checkpoints=()):
    """Run one seeded learner and integrate expected per-episode regret.

    The value of each episode's policy is computed exactly and cached by
    the policy's behavioural key, so repeated policies cost one oracle
    evaluation.  Returns (final cumulative regret, {checkpoint: regret}).
    """
    cache = {}
    cum = 0.0
    snaps = {}
    for k in range(1, n_episodes + 1):
        run_episode(agent, env, k, rng)
        key = agent.episode_policy.key()
        v = cache.get(key)
        if v is None:
            v = evaluate_markov_policy(env, agent.episode_policy)
            cache[key] = v
        cum += v_star - v
        if k in checkpoints:
            snaps[k] = cum
    return cum, snaps


@pytest.fixture(scope="module")
def optll_suite():
    """Single-query learner on 5 random independent-transition envs
    (d=3, two-letter alphabet, 2 actions, horizon 3), 4 seeds each,
    4000 episodes: regret-growth ratios plus self-reported invariant
    violations."""
    dims = Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2)
    t0 = time.perf_counter()
    ratios = []
    violations = []
    for env_seed in (0, 3, 4, 6, 7):
        env = random_independent_model(dims, env_seed)
        v_star = optimal_value(env)
        for seed in range(4):
            rng = SampleRng(1000 + seed)
            agent = OptllAgent(dims, 4000, derive_generator(1000 + seed, "agent"))
            final, snaps = _regret_run(agent, env, v_star, 4000, rng, checkpoints=(1000,))
            ratios.append(final / snaps[1000])
            violations.extend(agent.invariant_violations)
    return {
        "ratios": ratios,
        "violations": violations,
        "elapsed": time.perf_counter() - t0,
    }


def _block_coverage_failures(agent, d):
    """Complete leader blocks must keep one leader and query every
    sub-state at least once; returns descriptions of any violations."""
    kappa = agent.ws.kappa
    log = agent.selection_log
    bad = []
    for b in range(len(log) // kappa):
        chunk = log[b * kappa : (b + 1) * kappa]
        leaders = {entry[1] for entry in chunk}
        covered = set()
        for entry in chunk:
            covered.update(entry[2])
        if len(leaders) != 1:
            bad.append(f"block {b}: leaders {sorted(leaders)}")
        if covered != set(range(d)):
            bad.append(f"block {b}: covered only {sorted(covered)}")
    return bad


@pytest.fixture(scope="module")
def opmll_suite():
    """Multi-query learner on 5 random independent-transition envs
    (d=5) at query widths 2 and 4, 4 seeds each, 4000 episodes: final
    regrets per width, block-coverage failures, invariant violations."""
    t0 = time.perf_counter()
    finals = {2: [], 4: []}
    coverage_failures = []
    violations = []
    blocks_checked = 0
    for env_seed in (0, 2, 3, 5, 8):
        for dq in (2, 4):
            dims = Dims(d=5, alphabet_size=2, d_query=dq, horizon=3, n_actions=2)
            env = random_independent_model(dims, env_seed)
            v_star = optimal_value(env)
            for seed in range(4):
                rng = SampleRng(1000 + seed)
                agent = OpmllAgent(dims, 4000, derive_generator(1000 + seed, "agent"))
                final, _ = _regret_run(agent, env, v_star, 4000, rng)
                finals[dq].append(final)
                violations.extend(agent.invariant_violations)
                bad = _block_coverage_failures(agent, dims.d)
                blocks_checked += len(agent.selection_log) // agent.ws.kappa
                coverage_failures.extend(
                    f"env {env_seed} width {dq} seed {seed}: {msg}" for msg in bad
                )
    return {
        "finals": finals,
        "coverage_failures": coverage_failures,
        "blocks_checked": blocks_checked,
        "violations": violations,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def pors_suite():
    """Confidence-set learner on the controlled-drift family: 50 seeds,
    2000 episodes each, default confidence width at delta=0.05.  Records
    whether the true model survived screening in every episode, and the
    regret-growth ratio Reg(2000)/Reg(500) for the first 20 seeds."""
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    truth = build_controlled_drift_instance()
    truth_index = next(i for i, m in enumerate(candidates) if m.name == truth.name)
    v_star = optimal_value(truth)
    played_values = {}
    t0 = time.perf_counter()
    covered = []
    ratios = []
    for seed in range(50):
        agent = PorsAgent(context, 2000)
        rng = SampleRng(seed)
        cum = 0.0
        reg500 = None
        for k in range(1, 2001):
            run_episode(agent, truth, k, rng)
            policy = agent.episode_policy
            if policy not in played_values:
                played_values[policy] = evaluate_policy_value(truth, policy)
            cum += v_star - played_values[policy]
            if k == 500:
                reg500 = cum
        covered.append(all(truth_index in s for s in agent.set_log))
        if seed < 20:
            if cum == 0.0 and reg500 == 0.0:
                ratios.append(1.0)
            elif reg500 == 0.0:
                ratios.append(float("inf"))
            else:
                ratios.append(cum / reg500)
    return {
        "covered": covered,
        "ratios": ratios,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# 1. exact optimal values on the two hand-analysed instances


def test_gate_01_exact_optimal_values():
    t0 = time.perf_counter()
    v_groups = optimal_value(build_hard_instance_groups(2, 0.1))
    t_groups = time.perf_counter() - t0
    t0 = time.perf_counter()
    v_flat = optimal_value(build_hard_instance_flat_emission(0.1))
    t_flat = time.perf_counter() - t0
    ok = (
        abs(v_groups - 0.6) <= 1e-9
        and abs(v_flat - 0.6) <= 1e-9
        and t_groups < 1.0
        and t_flat < 1.0
    )
    _gate(
        1,
        "exact optimal values",
        ok,
        f"groups={v_groups:.12f}, flat={v_flat:.12f}, "
        f"target 0.6 within 1e-9, {t_groups:.2f}s/{t_flat:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 2. indistinguishability structure of the two-group construction


def test_gate_02_indistinguishability_verification():
    t0 = time.perf_counter()
    reports = [verify_instance("groups", {"d": d}) for d in (2, 3, 4, 5)]
    reports.append(verify_instance("groups", {"d": 3, "d-query": 2}))
    elapsed = time.perf_counter() - t0
    n_checks = sum(len(r.checks) for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 1.0
    _gate(
        2,
        "exhaustive instance verification",
        ok,
        f"5 instances, {n_checks} checks, all passed, {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 3. uniform-random baseline regret on the d=2 two-group instance


def test_gate_03_uniform_baseline_regret():
    env = build_hard_instance_groups(2, 0.1)
    t0 = time.perf_counter()
    agent = UniformRandomAgent(env.dims, derive_generator(0, "agent"))
    rng = SampleRng(0)
    total = 0.0
    for k in range(1, 100001):
        total += run_episode(agent, env, k, rng).total_reward
    elapsed = time.perf_counter() - t0
    regret = 0.6 - total / 100000
    ok = abs(regret - 0.0875) <= 0.005 and elapsed < 30.0
    _gate(
        3,
        "uniform-random baseline regret",
        ok,
        f"mean per-episode regret {regret:.4f} within 0.0875±0.005 "
        f"over 1e5 episodes, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 4. the tree instance defeats sequence bandits at small budgets only


def test_gate_04_sequence_bandit_on_tree_instance():
    env = build_hard_instance_tree(2, 3, 2, 0.1)
    dims = env.dims
    t0 = time.perf_counter()
    probe = EpsilonGreedySequenceAgent(dims, derive_generator(0, "agent"))
    values = np.array(
        [
            evaluate_markov_policy(
                env,
                MarkovEpisodePolicy.from_sequence(
                    probe.sequence_actions(i),
                    dims.query_sets()[0],
                    dims.n_query_values,
                    dims.n_actions,
                ),
            )
            for i in range(probe.n_seq)
        ]
    )
    best = int(np.argmax(values))
    assert (values == values[best]).sum() == 1  # unique optimal sequence
    hit_small = 0
    hit_large = 0
    for seed in range(100):
        agent = EpsilonGreedySequenceAgent(dims, derive_generator(seed, "agent"))
        rng = SampleRng(seed)
        for k in range(1, 20001):
            run_episode(agent, env, k, rng)
            if k == 200 and agent.best_sequence() == best:
                hit_small += 1
        if agent.best_sequence() == best:
            hit_large += 1
    elapsed = time.perf_counter() - t0
    frac_small, frac_large = hit_small / 100, hit_large / 100
    ok = frac_small < 0.7 and frac_large > 0.9 and elapsed < 180.0
    _gate(
        4,
        "sequence-bandit identification on tree instance",
        ok,
        f"identify rate {frac_small:.2f} < 0.7 after 200 episodes, "
        f"{frac_large:.2f} > 0.9 after 20000, 100 seeds, {elapsed:.0f}s < 3min",
    )


# ---------------------------------------------------------------------------
# 5. single-query learner: sublinear regret growth


def test_gate_05_single_query_learner_sublinear(optll_suite):
    ratios = optll_suite["ratios"]
    mean_ratio = float(np.mean(ratios))
    elapsed = optll_suite["elapsed"]
    ok = mean_ratio <= 2.6 and elapsed < 180.0
    _gate(
        5,
        "single-query learner sublinear growth",
        ok,
        f"mean Reg(4000)/Reg(1000) = {mean_ratio:.2f} <= 2.6 "
        f"over 5 envs x 4 seeds, {elapsed:.0f}s < 3min",
    )


# ---------------------------------------------------------------------------
# 6. multi-query learner: wider queries never hurt, blocks cover all
#    sub-states


def test_gate_06_query_width_benefit_and_block_coverage(opmll_suite):
    mean_narrow = float(np.mean(opmll_suite["finals"][2]))
    mean_wide = float(np.mean(opmll_suite["finals"][4]))
    failures = opmll_suite["coverage_failures"]
    elapsed = opmll_suite["elapsed"]
    ok = mean_wide <= 1.1 * mean_narrow and not failures and elapsed < 300.0
    _gate(
        6,
        "query-width benefit and block coverage",
        ok,
        f"mean Reg(4000): width 4 = {mean_wide:.1f} <= 1.1 x width 2 = "
        f"{1.1 * mean_narrow:.1f}, {opmll_suite['blocks_checked']} blocks "
        f"covered, {len(failures)} failures, {elapsed:.0f}s < 5min",
    )


# ---------------------------------------------------------------------------
# 7. probability floors and value clamps held at every update


def test_gate_07_floor_and_clamp_invariants(optll_suite, opmll_suite):
    violations = optll_suite["violations"] + opmll_suite["violations"]
    ok = not violations
    _gate(
        7,
        "probability floors and value clamps",
        ok,
        f"{len(violations)} violations across 60 runs x 4000 episodes "
        f"(zero tolerance)" + (f"; first: {violations[0]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 8. confidence set keeps the true model


def test_gate_08_confidence_set_coverage(pors_suite):
    covered = pors_suite["covered"]
    fraction = sum(covered) / len(covered)
    elapsed = pors_suite["elapsed"]
    ok = fraction >= 0.9 and elapsed < 120.0
    _gate(
        8,
        "confidence-set coverage of the true model",
        ok,
        f"true model survived every episode in {fraction:.0%} of 50 seeds "
        f">= 90%, {elapsed:.0f}s < 2min",
    )


# ---------------------------------------------------------------------------
# 9. confidence-set learner: sublinear regret growth


def test_gate_09_confidence_learner_sublinear(pors_suite):
    ratios = pors_suite["ratios"]
    mean_ratio = float(np.mean(ratios))
    elapsed = pors_suite["elapsed"]
    ok = mean_ratio <= 2.6 and elapsed < 300.0
    _gate(
        9,
        "confidence-set learner sublinear growth",
        ok,
        f"mean Reg(2000)/Reg(500) = {mean_ratio:.2f} <= 2.6 over 20 seeds, "
        f"{elapsed:.0f}s < 5min",
    )


# ---------------------------------------------------------------------------
# 10. the likelihood engine agrees with a brute-force sum over state paths


def _play_tree_policy(env, policy, episode, rng):
    class _Player:
        def __init__(self):
            self.node = 0

        def begin_episode(self, k):
            self.node = 0

        def act(self, h):
            return policy.action_at(h, self.node), policy.query_at(h, self.node)

        def observe(self, h, action, fb):
            self.node = policy.child(self.node, env.evidence_index(h, fb))

        def end_episode(self, trace):
            pass

    return run_episode(_Player(), env, episode, rng)


def _transition_prob(model, h, s, a, t):
    """P_h(t | s, a), from the per-sub-state factors in product form."""
    if model.product is None:
        return model.joint[h - 1, s, a, t]
    sv = model.state_vectors
    prob = 1.0
    for i in range(model.dims.d):
        prob *= model.product[h - 1, i, sv[s, i], a, sv[t, i]]
    return prob


def _brute_force_log_likelihood(model, trace):
    """Log-probability of a trace's feedback: the sum, over every sequence
    of hidden states, of the path probability times each step's chance of
    revealing the recorded values and emitting the recorded symbol."""
    sv = model.state_vectors
    V = model.dims.alphabet_size
    steps = trace.steps
    total = 0.0
    for path in itertools.product(range(model.n_states), repeat=len(steps)):
        prob = model.initial[path[0]]
        for k, (rec, s) in enumerate(zip(steps, path)):
            fb = rec.feedback
            if any(sv[s, i] != v for i, v in fb.hsi):
                prob = 0.0
                break
            hidden = [sv[s, i] for i in range(model.dims.d) if i not in fb.query]
            code = sum(int(v) * V**j for j, v in enumerate(hidden))
            prob *= model.emissions[(rec.h, tuple(fb.query))][fb.observation, code]
            if k + 1 < len(steps):
                prob *= _transition_prob(model, rec.h, s, rec.action, path[k + 1])
        total += prob
    return math.log(total) if total > 0.0 else -math.inf


def test_gate_10_likelihood_engines_agree():
    dims = Dims(2, 2, 1, 2, 2, n_observations=2)
    policies = full_history_policies(dims)
    gen = np.random.default_rng(424242)
    rng = SampleRng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        if i % 2 == 0:
            keep, drift, acc = gen.uniform(0.05, 0.95, size=3)
            model = build_controlled_drift_instance(keep, drift, acc)
        else:
            model = random_hidden_observation_model(gen, dims)
        policy = policies[int(gen.integers(len(policies)))]
        trace = _play_tree_policy(model, policy, i + 1, rng)
        a = feedback_log_likelihood(CandidateFilter([model]), policy, trace)[0]
        b = _brute_force_log_likelihood(model, trace)
        assert np.isfinite(a) and np.isfinite(b)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _gate(
        10,
        "likelihood engine matches brute force",
        ok,
        f"worst |filter - path sum| {worst:.2e} <= 1e-9 over 1000 random "
        f"(model, policy, trace) triples, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 11. diagnostics report exact values on constructed cases


def test_gate_11_diagnostics_exact_values():
    t0 = time.perf_counter()
    checks = []

    # independent transitions -> zero cross-covariance, whatever the model
    product_dims = (
        Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2),
        Dims(d=2, alphabet_size=3, d_query=1, horizon=2, n_actions=2),
        Dims(d=4, alphabet_size=2, d_query=2, horizon=2, n_actions=3),
    )
    for dims in product_dims:
        for seed in range(3):
            gamma = estimate_cross_covariance(random_independent_model(dims, seed))
            checks.append(abs(gamma - 0.0) <= 1e-9)

    # two sub-states forced equal and uniform: cross-covariance 1/4
    pair_dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=1)
    joint = np.zeros((1, 4, 1, 4))
    joint[0, :, 0, 0] = 0.5
    joint[0, :, 0, 3] = 0.5
    pair = EnvModel.from_joint(
        name="pair",
        dims=pair_dims,
        class_tag="Generic",
        initial=np.full(4, 0.25),
        joint=joint,
        rewards=np.zeros((2, 4, 1)),
    )
    checks.append(abs(estimate_cross_covariance(pair) - 0.25) <= 1e-9)

    # smallest partial-emission singular value on three emission designs
    base = build_hard_instance_flat_emission(0.1)
    checks.append(abs(min_partial_singular_value(base) - 0.0) <= 1e-9)

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
    checks.append(abs(min_partial_singular_value(identity) - 1.0) <= 1e-9)
    tilted = with_tables([[0.9, 0.1], [0.1, 0.9]])
    checks.append(abs(min_partial_singular_value(tilted) - 0.8) <= 1e-9)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    _gate(
        11,
        "diagnostics exact values",
        ok,
        f"{sum(checks)}/{len(checks)} exact within 1e-9 "
        f"(independence 0, paired 0.25, emissions 1/0/0.8), {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 12. rerunning any config reproduces the CSV byte for byte


GATE12_GROUPS_CFG = """
[experiment]
episodes = 50
seeds = 0,1

[env builder=groups]
d = 2
epsilon = 0.1

[algo name=uniform]

[algo name=op-tll]
"""


def test_gate_12_reruns_byte_identical(tmp_path):
    cand_path = tmp_path / "candidates.cfg"
    dump_candidates(controlled_drift_candidates(), cand_path)
    drift_cfg = (
        "[experiment]\nepisodes = 40\nseeds = 0\n\n"
        "[env builder=controlled-drift]\n\n"
        f"[algo name=pors]\ncandidates = {cand_path}\n"
    )
    results = []
    for name, text in (("groups", GATE12_GROUPS_CFG), ("drift", drift_cfg)):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        blobs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}.csv"
            write_results_csv(run_suite(load_config(str(cfg_path))), out)
            blobs.append(out.read_bytes())
        results.append((name, blobs[0] == blobs[1], len(blobs[0])))
    ok = all(same for _, same, _ in results)
    detail = ", ".join(
        f"{name}: {'identical' if same else 'DIFFERENT'} ({size} bytes)"
        for name, same, size in results
    )
    _gate(12, "byte-identical reruns", ok, detail)
