"""Tests for the confidence-set planner: tree-policy families, feedback
likelihoods, candidate screening, and optimistic planning."""

import inspect
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsilab.core import (
    ConfigError,
    Dims,
    EpisodeTrace,
    Feedback,
    StepRecord,
    UnsupportedFeedbackError,
)
from hsilab.envs import (
    EnvModel,
    SampleRng,
    build_controlled_drift_instance,
    build_hard_instance_groups,
    controlled_drift_candidates,
)
from hsilab.agents import MarkovEpisodePolicy, run_episode
from hsilab.oracle import OracleSizeError, optimal_value
from hsilab.oracle import evaluate_markov_policy
from hsilab.pors import (
    CandidateFilter,
    ConfidenceSet,
    PlanningContext,
    PlanResult,
    PorsAgent,
    TreePolicy,
    _screen,
    _tree_policy,
    default_beta,
    evaluate_policy_value,
    feedback_log_likelihood,
    level_node_counts,
    optimistic_plan,
)
from hsilab.serialize import dump_candidates, load_candidates
from policy_reference import (
    best_tree,
    first_best_policy,
    full_history_policies,
    random_hidden_observation_model,
    trace_log_likelihood,
)


DRIFT_DIMS = Dims(
    d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2, n_observations=2
)


def _trace_for(policy, feedback_path, reward=0.0):
    """Build a policy-consistent trace from per-step (value_code, obs) pairs
    on a one-value-query, binary-alphabet model, whose kernel row is
    ``value_code * n_obs + obs``."""
    trace = EpisodeTrace(episode=1)
    node = 0
    for h, (vcode, obs) in enumerate(feedback_path, start=1):
        action = policy.action_at(h, node)
        query = policy.query_at(h, node)
        hsi = tuple((pos, (vcode // 2**i) % 2) for i, pos in enumerate(query))
        fb = Feedback(query=query, hsi=hsi, observation=obs, reward=reward)
        trace.append(StepRecord(h=h, action=action, feedback=fb))
        node = policy.child(node, vcode * (policy.branching // 2) + (obs or 0))
    return trace


# ---------------------------------------------------------------------------
# policy enumeration


def test_full_history_enumeration_counts():
    policies = full_history_policies(DRIFT_DIMS)
    # branching 2 values x 2 symbols = 4, so levels hold 1 and 4 nodes and
    # (2 actions x 2 query sets) ^ 5 nodes = 1024 policies
    assert level_node_counts(DRIFT_DIMS) == [1, 4]
    assert len(policies) == 1024
    assert len(set(policies)) == 1024  # frozen dataclass: all distinct


def test_enumeration_order_and_choice_decode():
    policies = full_history_policies(DRIFT_DIMS)
    first = policies[0]
    assert first.actions == ((0,), (0, 0, 0, 0))
    assert first.queries == (((0,),), ((0,), (0,), (0,), (0,)))
    # the last node's choice varies fastest; choice = action * n_qsets + qset
    assert policies[1].queries[1][3] == (1,)
    assert policies[1].actions[1][3] == 0
    assert policies[2].actions[1][3] == 1
    assert policies[2].queries[1][3] == (0,)


def test_tree_child_indexing():
    policy = TreePolicy(2, 4, ((0,), (0,) * 4), (((0,),), ((0,),) * 4))
    assert policy.branching == 4
    drift = build_controlled_drift_instance()

    def row(vcode, obs, model=drift):
        fb = Feedback(query=(0,), hsi=((0, vcode),), observation=obs, reward=0.0)
        return model.evidence_index(1, fb)

    assert policy.child(0, row(0, 0)) == 0
    assert policy.child(0, row(1, 0)) == 2
    assert policy.child(0, row(1, 1)) == 3
    # no-emission tasks use symbol 0: value code v selects row v
    silent = build_hard_instance_groups(2, 0.1)
    assert policy.child(0, row(1, None, silent)) == 1


# ---------------------------------------------------------------------------
# feedback likelihood


def _score(model, policy, trace):
    """One model's feedback log-likelihood, scored as a class of one."""
    return feedback_log_likelihood(CandidateFilter([model]), policy, trace)[0]


def _coin_env():
    """Uniform first sub-state, deterministic collapse to state 0, single
    emission symbol: any consistent trace has likelihood exactly 1/2."""
    dims = Dims(
        d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2, n_observations=1
    )
    joint = np.zeros((1, 4, 2, 4))
    joint[0, :, :, 0] = 1.0
    rewards = np.zeros((2, 4, 2))
    emissions = {
        (h, q): np.ones((1, 2)) for h in (1, 2) for q in ((0,), (1,))
    }
    return EnvModel.from_joint(
        "coin",
        dims,
        "Class2",
        np.full(4, 0.25),
        joint,
        rewards,
        emissions=emissions,
    )


def test_likelihood_coin_hand_example():
    env = _coin_env()
    policies = full_history_policies(env.dims)
    policy = policies[0]  # always action 0, always query (0,)
    trace = _trace_for(policy, [(0, 0), (0, 0)])
    # step 1 reveals a fair coin; step 2's value is then deterministic
    assert _score(env, policy, trace) == math.log(0.5)
    heads = _trace_for(policy, [(1, 0), (0, 0)])
    assert _score(env, policy, heads) == math.log(0.5)


def test_likelihood_ignores_rewards():
    env = _coin_env()
    policies = full_history_policies(env.dims)
    low = _trace_for(policies[0], [(0, 0), (0, 0)], reward=0.0)
    high = _trace_for(policies[0], [(0, 0), (0, 0)], reward=1.0)
    assert _score(env, policies[0], low) == _score(env, policies[0], high)


def test_likelihood_normalizes_over_feedback_paths():
    truth = build_controlled_drift_instance()
    policies = full_history_policies(truth.dims)
    rng = np.random.default_rng(4)
    for policy in [policies[i] for i in rng.integers(0, 1024, size=6)]:
        mass = 0.0
        for v1 in range(2):
            for o1 in range(2):
                for v2 in range(2):
                    for o2 in range(2):
                        trace = _trace_for(policy, [(v1, o1), (v2, o2)])
                        mass += math.exp(_score(truth, policy, trace))
        assert abs(mass - 1.0) < 1e-9


def _off_policy(trace, h, action=None, query=None):
    """The trace with step h's action or query changed."""
    steps = list(trace.steps)
    rec = steps[h - 1]
    fb = rec.feedback
    if query is not None:
        values = [v for _, v in fb.hsi]
        fb = Feedback(query, tuple(zip(query, values)), fb.observation, fb.reward)
    steps[h - 1] = StepRecord(h, rec.action if action is None else action, fb)
    return EpisodeTrace(episode=trace.episode, steps=steps)


def test_likelihood_rejects_policy_inconsistent_traces():
    cfilter = CandidateFilter(controlled_drift_candidates())
    policy = full_history_policies(DRIFT_DIMS)[0]
    trace = _trace_for(policy, [(0, 0), (0, 0)])
    # every candidate scores -inf once the recorded action or query leaves
    # the policy's choice, at either step
    for h in (1, 2):
        for bad in (
            _off_policy(trace, h, action=1 - trace.steps[h - 1].action),
            _off_policy(trace, h, query=(1,)),
        ):
            scores = feedback_log_likelihood(cfilter, policy, bad)
            assert scores.tolist() == [-math.inf] * 8


def test_likelihood_rejects_feedback_that_does_not_fit():
    cfilter = CandidateFilter(controlled_drift_candidates())
    policy = full_history_policies(DRIFT_DIMS)[0]
    for obs in (None, 2):
        trace = _trace_for(policy, [(0, 0), (0, obs)])
        message = (
            f"observation {obs!r} at step 2 does not fit model "
            f"{cfilter.candidates[0].name!r} (Class2)"
        )
        with pytest.raises(UnsupportedFeedbackError, match=re.escape(message)):
            feedback_log_likelihood(cfilter, policy, trace)


def test_likelihood_impossible_feedback_is_minus_inf():
    env = _coin_env()
    policies = full_history_policies(env.dims)
    policy = policies[0]
    # after the deterministic collapse, a step-2 value of 1 is impossible
    trace = _trace_for(policy, [(0, 0), (1, 0)])
    assert _score(env, policy, trace) == -math.inf


def test_likelihood_matches_filter_oracle_on_played_traces():
    truth = build_controlled_drift_instance()
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    agent = PorsAgent(context, 40)
    env_rng = SampleRng(12)
    for k in range(1, 21):
        trace = run_episode(agent, truth, k, env_rng)
        ours = feedback_log_likelihood(context.filter, agent.episode_policy, trace)
        reference = [trace_log_likelihood(cand, trace) for cand in candidates]
        assert ours.tolist() == reference


_zero_half_one = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def _scored_classes(draw):
    """A class of 1-8 models on one dimension signature, mixing random
    models with drift models whose parameters lie in {0, 1/2, 1} (so some
    reach zero mass at step 1 or 2 while others do not), a random
    full-history tree policy, a trace it played on a drawn model, and the
    scores every candidate must get.  Half the traces are bent away from
    the policy's action or query at one step; those score -inf throughout."""
    horizon = draw(st.sampled_from([1, 2, 3]))
    dims = Dims(2, 2, 1, horizon, 2, n_observations=2)
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    models = []
    for _ in range(draw(st.integers(1, 8))):
        if horizon == 1 or draw(st.booleans()):  # drift needs two steps
            models.append(random_hidden_observation_model(gen, dims))
        else:
            params = [draw(_zero_half_one) for _ in range(3)]
            models.append(build_controlled_drift_instance(*params, horizon))
    n_choice = dims.n_actions * len(dims.query_sets())
    choices = [
        [draw(st.integers(0, n_choice - 1)) for _ in range(n)]
        for n in level_node_counts(dims)
    ]
    policy = _tree_policy(dims, choices)
    player = models[draw(st.integers(0, len(models) - 1))]
    trace = _play_policy(player, policy, 1, SampleRng(draw(st.integers(0, 999))))
    if not draw(st.booleans()):
        return models, policy, trace, [trace_log_likelihood(m, trace) for m in models]
    h = draw(st.integers(1, horizon))
    rec = trace.steps[h - 1]
    if draw(st.booleans()):
        trace = _off_policy(trace, h, action=1 - rec.action)
    else:
        trace = _off_policy(trace, h, query=(1 - rec.feedback.query[0],))
    return models, policy, trace, [-math.inf] * len(models)


@settings(max_examples=150, deadline=None)
@given(_scored_classes())
def test_batched_likelihood_is_bit_identical_to_per_model_filter(drawn):
    # the batched pass must give every candidate exactly the score its own
    # filter gives, zero-mass candidates included
    models, policy, trace, want = drawn
    scores = feedback_log_likelihood(CandidateFilter(models), policy, trace)
    assert scores.dtype == np.float64
    assert scores.tolist() == want


# ---------------------------------------------------------------------------
# confidence sets


def build_confidence_set(candidates, traces, policies, beta):
    """Batch reference for PorsAgent's incremental screening: score each
    candidate by total feedback log-likelihood over traces, where
    ``policies[t]`` generated ``traces[t]``; returns the screened set and
    the scores."""
    cfilter = CandidateFilter(candidates)
    if len(traces) != len(policies):
        raise ValueError(
            f"got {len(traces)} traces but {len(policies)} policies"
        )
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    loglik = np.zeros(len(candidates))
    for trace, policy in zip(traces, policies):
        loglik = loglik + feedback_log_likelihood(cfilter, policy, trace)
    return ConfidenceSet(_screen(loglik, beta)), loglik


def test_default_beta_value():
    assert default_beta(DRIFT_DIMS, 2000, 0.05) == 93.58456418735098
    with pytest.raises(ValueError):
        default_beta(DRIFT_DIMS, 0, 0.05)
    with pytest.raises(ValueError):
        default_beta(DRIFT_DIMS, 100, 1.0)


def test_confidence_set_keeps_best_and_screens_rest():
    truth = build_controlled_drift_instance()
    wrong = build_controlled_drift_instance(stay_controlled=0.2)
    candidates = [truth, wrong]
    policies = full_history_policies(truth.dims)
    policy = policies[0]
    rng = SampleRng(3)
    agent_traces = []
    for k in range(1, 61):
        trace = _play_policy(truth, policy, k, rng)
        agent_traces.append(trace)
    conf_tight, _ = build_confidence_set(
        candidates, agent_traces, [policy] * len(agent_traces), beta=1.0
    )
    assert 0 in conf_tight.indices
    assert conf_tight.indices == (0,)  # the wrong drift rate is screened out
    conf_loose, _ = build_confidence_set(
        candidates, agent_traces, [policy] * len(agent_traces), beta=1e6
    )
    assert conf_loose.indices == (0, 1)


def _play_policy(env, policy, episode, rng):
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


def test_confidence_set_never_empty():
    truth = build_controlled_drift_instance()
    policies = full_history_policies(truth.dims)
    policy = policies[0]
    trace = _trace_for(policy, [(0, 0), (0, 0)])
    # force a policy-inconsistent trace: -inf for the only candidate
    rec = trace.steps[0]
    trace.steps[0] = StepRecord(h=1, action=1 - rec.action, feedback=rec.feedback)
    conf, loglik = build_confidence_set([truth], [trace], [policy], beta=0.0)
    assert conf.indices == (0,)
    assert loglik[0] == -math.inf


def test_confidence_set_validation():
    truth = build_controlled_drift_instance()
    policies = full_history_policies(truth.dims)
    with pytest.raises(ConfigError):
        build_confidence_set([], [], [], beta=1.0)
    with pytest.raises(ValueError):
        build_confidence_set([truth], [], [policies[0]], beta=1.0)
    with pytest.raises(ValueError):
        build_confidence_set([truth], [], [], beta=-1.0)


def test_screen_keeps_scores_within_beta_of_the_best():
    loglik = np.array([-3.0, -1.0, -math.inf, -2.0, -1.5])
    assert _screen(loglik, 0.5) == (1, 4)
    assert _screen(loglik, 1.0) == (1, 3, 4)
    assert _screen(loglik, 0.0) == (1,)
    assert all(type(i) is int for i in _screen(loglik, 2.0))
    assert _screen(np.full(3, -math.inf), 0.0) == (0, 1, 2)


def test_screening_gap_grows_monotonically():
    truth = build_controlled_drift_instance()
    wrong = build_controlled_drift_instance(stay_controlled=0.2)
    candidates = [truth, wrong]
    context = PlanningContext.build(candidates)
    agent = PorsAgent(context, 200)
    env_rng = SampleRng(6)
    gaps = []
    for k in range(1, 201):
        run_episode(agent, truth, k, env_rng)
        gaps.append(float(agent.loglik[0] - agent.loglik[1]))
    assert gaps[49] > 0.0
    assert gaps[199] > gaps[49]
    assert gaps[199] > 10.0  # roughly one nat of evidence per few episodes


# ---------------------------------------------------------------------------
# exact policy evaluation


def test_policy_value_matches_markov_oracle_on_open_loop():
    truth = build_controlled_drift_instance()
    policies = full_history_policies(truth.dims)
    # constant-action policies are Markov; both exact evaluators must agree
    for a1 in range(2):
        for a2 in range(2):
            tree = TreePolicy(2, 4, ((a1,), (a2,) * 4), (((0,),), ((0,),) * 4))
            markov = MarkovEpisodePolicy.from_sequence((a1, a2), (0,), 2, 2)
            tree_value = evaluate_policy_value(truth, tree)
            markov_value = evaluate_markov_policy(truth, markov)
            assert abs(tree_value - markov_value) < 1e-12


def test_open_loop_value_hand_example():
    # the drifting reward sub-state stays uniform, so any fixed action pair
    # earns exactly the final-step coin flip
    truth = build_controlled_drift_instance()
    tree = TreePolicy(2, 4, ((0,), (0,) * 4), (((0,),), ((0,),) * 4))
    assert abs(evaluate_policy_value(truth, tree) - 0.5) < 1e-12


def test_best_tree_policy_achieves_optimal_value():
    truth = build_controlled_drift_instance()
    context = PlanningContext.build(controlled_drift_candidates())
    v_star = optimal_value(truth)
    assert abs(v_star - 0.8) < 1e-12
    best = context.plans[7]
    assert best.value == evaluate_policy_value(truth, best.policy)
    assert abs(best.value - v_star) < 1e-9


def test_best_tree_refuses_a_horizon_past_the_recursion_limit():
    # one action, one query set, one value and one symbol: the only policy's
    # tree is a path of 1500 nodes, so only the recursion depth is large
    H = 1500
    dims = Dims(
        d=1, alphabet_size=1, d_query=1, horizon=H, n_actions=1, n_observations=1
    )
    path = EnvModel.from_joint(
        "path",
        dims,
        "Class2",
        np.ones(1),
        np.ones((H - 1, 1, 1, 1)),
        np.zeros((H, 1, 1)),
        emissions={(h, (0,)): np.ones((1, 1)) for h in range(1, H + 1)},
    )
    with pytest.raises(OracleSizeError, match="'path' is 1500 steps deep"):
        PlanningContext.build([path])


def test_planning_context_refuses_an_oversized_tree_before_planning():
    # one action, one query set and one symbol: the class has one policy,
    # but its 2^21-node last level times 2 states is over the value cap, so
    # the build must refuse before planning (a tree search took 50 s)
    dims = Dims(
        d=1, alphabet_size=2, d_query=1, horizon=22, n_actions=1, n_observations=1
    )
    deep = random_hidden_observation_model(np.random.default_rng(0), dims)
    t0 = time.perf_counter()
    with pytest.raises(OracleSizeError, match="2097152 x 2 table at step 22"):
        PlanningContext.build([deep])
    assert time.perf_counter() - t0 < 1.0


def test_policy_value_cap():
    truth = build_controlled_drift_instance()
    policies = full_history_policies(truth.dims)
    with pytest.raises(OracleSizeError):
        evaluate_policy_value(truth, policies[0], cap=10)


# ---------------------------------------------------------------------------
# best plans and optimistic planning


_unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))

# full-history families of at most 1024 policies, with and without symbols
_SMALL_CLASS2_DIMS = (
    DRIFT_DIMS,
    Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2, n_observations=1),
    Dims(d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=3, n_observations=1),
    Dims(d=2, alphabet_size=2, d_query=2, horizon=2, n_actions=2, n_observations=1),
    Dims(d=2, alphabet_size=2, d_query=1, horizon=1, n_actions=3, n_observations=2),
)
_FULL_HISTORY = {dims: full_history_policies(dims) for dims in _SMALL_CLASS2_DIMS}


@st.composite
def _class2_models(draw, horizons):
    if draw(st.booleans()):
        return build_controlled_drift_instance(
            draw(_unit), draw(_unit), draw(_unit), draw(st.sampled_from(horizons))
        )
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    if horizons == (2,):
        dims = draw(st.sampled_from(_SMALL_CLASS2_DIMS))
    else:
        dims = Dims(2, 2, 1, draw(st.sampled_from(horizons)), 2, n_observations=2)
    return random_hidden_observation_model(gen, dims)


@settings(max_examples=40, deadline=None)
@given(_class2_models(horizons=(2,)))
def test_best_plan_is_first_argmax_of_enumerated_table(m):
    # the belief DP's tree must attain the value of the first best policy
    # of the enumerated full-history family and the model's V*; which of
    # several tied policies it picks is the DP's own choice
    plan = PlanningContext.build([m]).plans[0]
    _, _, value = first_best_policy(m, _FULL_HISTORY[m.dims])
    assert plan.value == evaluate_policy_value(m, plan.policy)
    assert abs(plan.value - value) <= 1e-12
    assert abs(plan.value - optimal_value(m)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(_class2_models(horizons=(3, 4)))
def test_best_tree_attains_optimal_value_beyond_enumeration(m):
    v_star = optimal_value(m)
    assert abs(evaluate_policy_value(m, best_tree(m)) - v_star) <= 1e-12
    assert abs(PlanningContext.build([m]).plans[0].value - v_star) <= 1e-12


def test_plans_equal_the_reference_tree_search_on_drift_candidates():
    # at the drift family's default horizon the DP's trees are the very
    # trees the recursion over tree nodes finds, so pors plays as before
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    for cand, plan in zip(candidates, context.plans):
        assert plan.policy == best_tree(cand)


@pytest.mark.parametrize("horizon", [2, 3, 4, 5, 6])
def test_plans_attain_optimal_value_at_every_drift_horizon(horizon):
    # an open-loop fallback planned 0.5 where V* is 0.8 from horizon 3 on,
    # and its context build took 429 s at horizon 6
    candidates = controlled_drift_candidates(horizon=horizon)
    t0 = time.perf_counter()
    context = PlanningContext.build(candidates)
    assert time.perf_counter() - t0 < 5.0
    for cand, plan in zip(candidates, context.plans):
        assert abs(plan.value - optimal_value(cand)) <= 1e-12


def _plans(values):
    policies = full_history_policies(DRIFT_DIMS)
    return [PlanResult(policies[i], v, i) for i, v in enumerate(values)]


def test_optimistic_plan_tie_breaks_lexicographically():
    conf = ConfidenceSet((0, 1, 2))
    plans = _plans([1.0, 1.0, 1.0])
    assert optimistic_plan(conf, plans) is plans[0]
    plans = _plans([1.0, 2.0, 2.0])
    plan = optimistic_plan(conf, plans)
    assert plan is plans[1]
    assert plan.value == 2.0


def test_optimistic_plan_masks_excluded_candidates():
    plans = _plans([9.0, 0.5, 0.4])
    conf = ConfidenceSet((1, 2))
    plan = optimistic_plan(conf, plans)
    assert plan.candidate_index == 1
    assert plan.value == 0.5


# ---------------------------------------------------------------------------
# planning context and agent


def test_planning_context_rejects_mixed_dims():
    a = build_controlled_drift_instance()
    b = build_hard_instance_groups(2, 0.1)
    with pytest.raises(ConfigError):
        PlanningContext.build([a, b])


def test_planning_context_rejects_candidates_without_emissions():
    # same dimensions, but a Class1 model has no emission tables to score
    # a symbol with, so the class is refused before any episode runs
    drift = build_controlled_drift_instance()
    silent = EnvModel.from_joint(
        "silent", drift.dims, "Class1", drift.initial,
        drift.joint_transitions(), drift.rewards,
    )
    with pytest.raises(ConfigError, match=re.escape(
        "candidate 'silent' is Class1; "
        "pors candidates must be emission models (Class2)"
    )):
        PlanningContext.build([drift, silent])


def test_candidate_file_round_trip_preserves_plans(tmp_path):
    candidates = controlled_drift_candidates()
    path = tmp_path / "candidates.cfg"
    dump_candidates(candidates, path)
    loaded = load_candidates(path)
    assert [m.name for m in loaded] == [m.name for m in candidates]
    original = PlanningContext.build(candidates)
    reloaded = PlanningContext.build(loaded)
    assert reloaded.plans == original.plans


def _run_pors(n_episodes, seed, context):
    truth = build_controlled_drift_instance()
    agent = PorsAgent(context, n_episodes)
    env_rng = SampleRng(seed)
    for k in range(1, n_episodes + 1):
        run_episode(agent, truth, k, env_rng)
    return agent


def test_agent_batch_and_incremental_likelihoods_agree():
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    truth = build_controlled_drift_instance()
    agent = PorsAgent(context, 30)
    env_rng = SampleRng(9)
    traces, played = [], []
    for k in range(1, 31):
        traces.append(run_episode(agent, truth, k, env_rng))
        played.append(agent.episode_policy)
    _, batch = build_confidence_set(candidates, traces, played, beta=agent.beta)
    np.testing.assert_array_equal(batch, agent.loglik)


def test_agent_is_deterministic_and_ignores_rng():
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    # planning is deterministic: the agent takes no rng, and two runs on
    # the same environment stream agree
    assert "rng" not in inspect.signature(PorsAgent).parameters
    a = _run_pors(40, seed=2, context=context)
    b = _run_pors(40, seed=2, context=context)
    assert a.plan_log == b.plan_log
    assert a.set_log == b.set_log
    np.testing.assert_array_equal(a.loglik, b.loglik)


def test_agent_coverage_and_optimism_single_seed():
    candidates = controlled_drift_candidates()
    context = PlanningContext.build(candidates)
    truth = build_controlled_drift_instance()
    v_star = optimal_value(truth)
    agent = _run_pors(300, seed=0, context=context)
    for conf_indices, cand_idx in zip(agent.set_log, agent.plan_log):
        assert 7 in conf_indices  # the true model always survives screening
        assert context.plans[cand_idx].value >= v_star - 1e-9
    # late episodes should have screened the wrong controlled-drift rates
    survivors = set(agent.set_log[-1])
    assert 7 in survivors
    assert survivors <= {4, 5, 6, 7} or survivors == {7}
