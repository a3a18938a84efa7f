"""Tests for the confidence-set planner: policy graphs and tree-policy
families, feedback likelihoods, candidate screening, and optimistic
planning."""

import hashlib
import inspect
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hsilab import pors
from hsilab.core import (
    ConfigError,
    Dims,
    Feedback,
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
from hsilab.oracle import OracleSizeError, optimal_value, oracle_report
from hsilab.oracle import evaluate_markov_policy
from hsilab.pors import (
    CandidateFilter,
    ConfidenceSet,
    PlanningContext,
    PlanResult,
    PolicyGraph,
    PorsAgent,
    _screen,
    default_beta,
    evaluate_policy_value,
    feedback_log_likelihood,
    optimistic_plan,
)
from hsilab.serialize import dump_candidates, load_candidates
from policy_reference import (
    best_tree,
    brute_force_policy_value,
    first_best_policy,
    full_history_policies,
    level_node_counts,
    play_policy,
    played_tree,
    random_hidden_observation_model,
    recorded_episode,
    trace_log_likelihood,
    tree_policy,
    walked_steps_reference,
)


DRIFT_DIMS = Dims(
    d=2, alphabet_size=2, d_query=1, horizon=2, n_actions=2, n_observations=2
)


def _trace_for(policy, feedback_path, reward=0.0):
    """Build a policy-consistent trace, one (h, action, Feedback) per step,
    from per-step (value_code, obs) pairs on a one-value-query,
    binary-alphabet model, whose kernel row is ``value_code * n_obs +
    obs``."""
    trace = []
    node = 0
    for h, (vcode, obs) in enumerate(feedback_path, start=1):
        action = policy.actions[node]
        query = policy.queries[node]
        hsi = tuple((pos, (vcode // 2**i) % 2) for i, pos in enumerate(query))
        trace.append((h, action, Feedback(query, hsi, obs, reward)))
        n_obs = len(policy.children[node]) // 2
        node = policy.children[node][vcode * n_obs + (obs or 0)]
    return trace


def _tables(policy):
    """What a policy graph holds, for comparing graphs by content: a graph
    equals only itself."""
    return policy.actions, policy.queries, policy.children


# ---------------------------------------------------------------------------
# policy enumeration


def test_full_history_enumeration_counts():
    policies = full_history_policies(DRIFT_DIMS)
    # branching 2 values x 2 symbols = 4, so levels hold 1 and 4 nodes and
    # (2 actions x 2 query sets) ^ 5 nodes = 1024 policies
    assert level_node_counts(DRIFT_DIMS) == [1, 4]
    assert len(policies) == 1024
    assert len({played_tree(p, DRIFT_DIMS) for p in policies}) == 1024  # all distinct


def test_enumeration_order_and_choice_decode():
    policies = full_history_policies(DRIFT_DIMS)
    actions, queries = played_tree(policies[0], DRIFT_DIMS)
    assert actions == ((0,), (0, 0, 0, 0))
    assert queries == (((0,),), ((0,), (0,), (0,), (0,)))
    # the last node's choice varies fastest; choice = action * n_qsets + qset
    actions, queries = played_tree(policies[1], DRIFT_DIMS)
    assert queries[1][3] == (1,)
    assert actions[1][3] == 0
    actions, queries = played_tree(policies[2], DRIFT_DIMS)
    assert actions[1][3] == 1
    assert queries[1][3] == (0,)


def test_tree_child_indexing():
    # the root's child under kernel row r plays choice r: (action r // 2,
    # query set r % 2)
    policy = tree_policy(DRIFT_DIMS, [[0], [0, 1, 2, 3]])
    drift = build_controlled_drift_instance()

    def plays_after(vcode, obs, model=drift):
        fb = Feedback(query=(0,), hsi=((0, vcode),), observation=obs, reward=0.0)
        node = policy.children[0][model.evidence_index(1, fb)]
        return policy.actions[node], policy.queries[node]

    assert plays_after(0, 0) == (0, (0,))
    assert plays_after(1, 0) == (1, (0,))
    assert plays_after(1, 1) == (1, (1,))
    # no-emission tasks use symbol 0: value code v selects row v
    silent = build_hard_instance_groups(2, 0.1)
    assert plays_after(1, None, silent) == (0, (1,))


# ---------------------------------------------------------------------------
# feedback likelihood


def _score(model, policy, trace):
    """One model's feedback log-likelihood, scored as a class of one on the
    policy's walk through the trace."""
    steps = walked_steps_reference(model, policy, trace)
    return feedback_log_likelihood(CandidateFilter([model]), steps)[0]


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


def test_likelihood_rejects_feedback_that_does_not_fit():
    # the agent reads each step's kernel row as it walks its policy, and
    # that walk is what the likelihood scores: a symbol the class cannot
    # emit is refused there, and no score moves
    context = PlanningContext.build(controlled_drift_candidates())
    agent = PorsAgent(context, 10)
    name = context.filter.candidates[0].name
    for obs in (None, 2):
        agent.begin_episode(1)
        action, query = agent.act(1)
        agent.observe(1, action, Feedback(query, ((query[0], 0),), 0, 0.0))
        action, query = agent.act(2)
        bad = Feedback(query, ((query[0], 0),), obs, 0.0)
        message = f"observation {obs!r} at step 2 does not fit model {name!r} (Class2)"
        with pytest.raises(UnsupportedFeedbackError, match=re.escape(message)):
            agent.observe(2, action, bad)
    assert agent.loglik.tolist() == [0.0] * 8


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
        _, trace = recorded_episode(agent, truth, k, env_rng)
        steps = walked_steps_reference(truth, agent.episode_policy, trace)
        ours = feedback_log_likelihood(context.filter, steps)
        reference = [trace_log_likelihood(cand, trace) for cand in candidates]
        assert ours.tolist() == reference


_zero_half_one = st.sampled_from([0.0, 0.5, 1.0])


def _draw_class(draw):
    """A class of 1-8 models on one dimension signature, mixing random
    models with drift models whose parameters lie in {0, 1/2, 1} (so some
    reach zero mass at step 1 or 2 while others do not), and a random
    full-history tree policy."""
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
    return models, tree_policy(dims, choices)


@st.composite
def _scored_classes(draw):
    """A drawn class and policy (``_draw_class``), the policy's walk through
    a trace it played on a drawn model, and the scores every candidate must
    get."""
    models, policy = _draw_class(draw)
    player = models[draw(st.integers(0, len(models) - 1))]
    trace = play_policy(player, policy, 1, SampleRng(draw(st.integers(0, 999))))
    steps = walked_steps_reference(player, policy, trace)
    return models, steps, [trace_log_likelihood(m, trace) for m in models]


@settings(max_examples=150, deadline=None)
@given(_scored_classes())
def test_batched_likelihood_is_bit_identical_to_per_model_filter(drawn):
    # the batched pass must give every candidate exactly the score its own
    # filter gives, zero-mass candidates included
    models, steps, want = drawn
    scores = feedback_log_likelihood(CandidateFilter(models), steps)
    assert scores.dtype == np.float64
    assert scores.tolist() == want


@st.composite
def _repeated_traces(draw):
    """A drawn class and policy, a memo bound, and 1-12 traces the policy
    played on drawn models from four seeds, so feedback paths repeat, some
    of them repeated outright."""
    models, policy = _draw_class(draw)
    bound = draw(st.sampled_from([0, 1, 2, 3, pors.LIKELIHOOD_MEMO_SIZE]))
    traces = []
    for _ in range(draw(st.integers(1, 12))):
        if traces and draw(st.integers(0, 3)) == 0:
            traces.append(traces[draw(st.integers(0, len(traces) - 1))])
            continue
        player = models[draw(st.integers(0, len(models) - 1))]
        traces.append(play_policy(player, policy, 1, SampleRng(draw(st.integers(0, 3)))))
    return models, policy, bound, traces


def _feedback_path(trace):
    return tuple((h, action, fb.query, fb.hsi, fb.observation) for h, action, fb in trace)


@settings(max_examples=150, deadline=None)
@given(_repeated_traces())
def test_likelihood_memo_answers_as_the_filter_and_stays_bounded(drawn):
    # one filter scores every trace: a memo hit, a miss and a miss past the
    # bound must all give each candidate exactly its own filter's score; the
    # memo holds each distinct feedback path until it is full
    models, policy, bound, traces = drawn
    cfilter = CandidateFilter(models)
    paths = set()
    with mock.patch.object(pors, "LIKELIHOOD_MEMO_SIZE", bound):
        for trace in traces:
            steps = walked_steps_reference(models[0], policy, trace)
            scores = feedback_log_likelihood(cfilter, steps)
            want = [trace_log_likelihood(m, trace) for m in models]
            assert scores.tolist() == want
            assert not scores.flags.writeable
            paths.add(_feedback_path(trace))
            assert len(cfilter.memo) == min(bound, len(paths))


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
        steps = walked_steps_reference(cfilter.candidates[0], policy, trace)
        loglik = loglik + feedback_log_likelihood(cfilter, steps)
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
        trace = play_policy(truth, policy, k, rng)
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


def test_confidence_set_never_empty():
    coin = _coin_env()
    policy = full_history_policies(coin.dims)[0]
    # impossible feedback: after the deterministic collapse to state 0, a
    # step-2 value of 1 scores -inf for the only candidate
    trace = _trace_for(policy, [(0, 0), (1, 0)])
    conf, loglik = build_confidence_set([coin], [trace], [policy], beta=0.0)
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
            tree = tree_policy(truth.dims, [[2 * a1], [2 * a2] * 4])
            markov = MarkovEpisodePolicy.from_sequence((a1, a2), (0,), 2, 2)
            tree_value = evaluate_policy_value(truth, tree)
            markov_value = evaluate_markov_policy(truth, markov)
            assert abs(tree_value - markov_value) < 1e-12


def test_open_loop_value_hand_example():
    # the drifting reward sub-state stays uniform, so any fixed action pair
    # earns exactly the final-step coin flip
    truth = build_controlled_drift_instance()
    tree = tree_policy(truth.dims, [[0], [0] * 4])
    assert abs(evaluate_policy_value(truth, tree) - 0.5) < 1e-12


@st.composite
def _valued_policies(draw):
    """A small Class2 model, a drift model or a random one with one or two
    symbols, and a policy to value on it: a random tree, a random graph
    whose nodes share children, loop back and lead to a self-looping
    default node, or the model's own DP plan."""
    horizon = draw(st.integers(1, 3))
    if horizon > 1 and draw(st.booleans()):
        m = build_controlled_drift_instance(
            draw(_unit), draw(_unit), draw(_unit), horizon
        )
    else:
        dims = Dims(
            2, 2, draw(st.integers(1, 2)), horizon, draw(st.integers(1, 3)),
            n_observations=draw(st.integers(1, 2)),
        )
        m = random_hidden_observation_model(
            np.random.default_rng(draw(st.integers(0, 2**32))), dims
        )
    dims = m.dims
    kind = draw(st.sampled_from(["tree", "graph", "plan"]))
    if kind == "plan":
        return m, PlanningContext.build([m]).plans[0].policy
    n_choice = dims.n_actions * len(dims.query_sets())
    if kind == "tree":
        choices = [
            [draw(st.integers(0, n_choice - 1)) for _ in range(n)]
            for n in level_node_counts(dims)
        ]
        return m, tree_policy(dims, choices)
    n = draw(st.integers(2, 6))  # node n - 1 is the default
    R = dims.n_evidence_rows
    choices = [draw(st.integers(0, n_choice - 1)) for _ in range(n)]
    children = [
        tuple(draw(st.integers(0, n - 1)) for _ in range(R)) for _ in range(n - 1)
    ]
    qsets = dims.query_sets()
    return m, PolicyGraph(
        tuple(c // len(qsets) for c in choices),
        tuple(qsets[c % len(qsets)] for c in choices),
        (*children, (n - 1,) * R),
    )


@settings(max_examples=150, deadline=None)
@given(_valued_policies())
def test_policy_value_matches_the_brute_force_path_sum(drawn):
    # pushing (node, state) rows, with the rows of paths that meet at a node
    # added, must give the sum over state and symbol paths
    m, policy = drawn
    value = evaluate_policy_value(m, policy)
    assert abs(value - brute_force_policy_value(m, policy)) <= 1e-12


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


def _deep_class():
    # one action, one query set and one symbol: the class has one policy,
    # whose feedback tree has 2^21 nodes at step 22
    dims = Dims(
        d=1, alphabet_size=2, d_query=1, horizon=22, n_actions=1, n_observations=1
    )
    return [random_hidden_observation_model(np.random.default_rng(0), dims)]


def test_planning_context_builds_a_class_too_deep_for_a_feedback_tree():
    # a feedback tree would need 2^21 nodes at step 22; the graph holds one
    # node per distinct belief
    deep = _deep_class()
    t0 = time.perf_counter()
    plan = PlanningContext.build(deep).plans[0]
    assert time.perf_counter() - t0 < 1.0
    assert abs(plan.value - optimal_value(deep[0])) <= 1e-12
    assert len(plan.policy.actions) < 200


def test_planning_context_refuses_a_class_over_the_node_cap():
    # the belief DP's node cap bounds the plan; over it the build refuses
    # at once instead of approximating
    t0 = time.perf_counter()
    with pytest.raises(OracleSizeError, match="exceeds 10 nodes"):
        PlanningContext.build(_deep_class(), cap=10)
    assert time.perf_counter() - t0 < 1.0


def test_node_cap_bounds_the_policy_graph():
    # a graph holds the DP's expanded beliefs it reaches, up to one step-H
    # node per (step H-1 belief, kernel row) and the default node, so the
    # node cap bounds it; one node under the DP's count refuses the class
    candidates = controlled_drift_candidates(horizon=5)
    R = candidates[0].dims.n_evidence_rows
    plans = PlanningContext.build(candidates).plans
    for cand, plan in zip(candidates, plans):
        nodes = oracle_report(cand)["nodes"]
        assert len(plan.policy.actions) <= 2 + nodes * (1 + R)
        with pytest.raises(OracleSizeError, match=f"exceeds {nodes - 1} nodes"):
            PlanningContext.build([cand], cap=nodes - 1)
        (capped,) = PlanningContext.build([cand], cap=nodes).plans
        assert _tables(capped.policy) == _tables(plan.policy)
        assert capped.value == plan.value


def test_a_policy_graph_equals_and_hashes_as_itself_only():
    # a value cache keys a played graph without hashing its nested tuples
    plan = PlanningContext.build(controlled_drift_candidates(horizon=3)).plans[0]
    graph = plan.policy
    assert hash(graph) == object.__hash__(graph)
    assert graph == graph
    assert graph != PolicyGraph(*_tables(graph))


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
        assert played_tree(plan.policy, cand.dims) == played_tree(
            best_tree(cand), cand.dims
        )


@pytest.mark.parametrize("horizon", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_plans_attain_optimal_value_at_every_drift_horizon(horizon):
    # an open-loop fallback planned 0.5 where V* is 0.8 from horizon 3 on,
    # and its context build took 429 s at horizon 6
    candidates = controlled_drift_candidates(horizon=horizon)
    t0 = time.perf_counter()
    context = PlanningContext.build(candidates)
    assert time.perf_counter() - t0 < 5.0
    for cand, plan in zip(candidates, context.plans):
        assert abs(plan.value - optimal_value(cand)) <= 1e-12


def test_drift_plans_are_pinned_at_every_horizon():
    # the values above are pinned within 1e-12 only, which a changed
    # tie-break at H >= 3 would keep; this pins what each plan plays along
    # every feedback path
    trees = []
    for horizon in range(2, 7):
        candidates = controlled_drift_candidates(horizon=horizon)
        for cand, plan in zip(candidates, PlanningContext.build(candidates).plans):
            trees.append(played_tree(plan.policy, cand.dims))
    digest = hashlib.sha256(repr(trees).encode()).hexdigest()
    assert digest == "c6f034dd5e87455f9510c8bddbb40228b4daf9a39263472bda7b7560f50b595a"


def test_planning_holds_each_evidence_kernel_once():
    # the belief DP and the context read the model's per-step stacks in
    # place: every kernel is a view of its step's one stack
    candidates = controlled_drift_candidates(horizon=3)
    models = [build_hard_instance_groups(3, 0.1), *candidates]
    for m in models:
        optimal_value(m)
    PlanningContext.build(candidates)
    for m in models:
        for h in range(1, m.dims.horizon + 1):
            stack = m.evidence_stack(h)
            assert m.evidence_stack(h) is stack
            for query in m.dims.query_sets():
                assert np.shares_memory(m.evidence(h, query), stack)


def _plans(values):
    policies = full_history_policies(DRIFT_DIMS)
    return [PlanResult(policies[i], v) for i, v in enumerate(values)]


def test_optimistic_plan_tie_breaks_lexicographically():
    conf = ConfidenceSet((0, 1, 2))
    plans = _plans([1.0, 1.0, 1.0])
    assert optimistic_plan(conf, plans) == 0
    plans = _plans([1.0, 2.0, 2.0])
    best = optimistic_plan(conf, plans)
    assert best == 1
    assert plans[best].value == 2.0


def test_optimistic_plan_masks_excluded_candidates():
    plans = _plans([9.0, 0.5, 0.4])
    conf = ConfidenceSet((1, 2))
    best = optimistic_plan(conf, plans)
    assert best == 1
    assert plans[best].value == 0.5


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
    assert [(_tables(p.policy), p.value) for p in reloaded.plans] == [
        (_tables(p.policy), p.value) for p in original.plans
    ]


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
        traces.append(recorded_episode(agent, truth, k, env_rng)[1])
        played.append(agent.episode_policy)
    _, batch = build_confidence_set(candidates, traces, played, beta=agent.beta)
    np.testing.assert_array_equal(batch, agent.loglik)


_DRIFT_PLANS = {}


def _fresh_drift_context(horizon, members):
    """The drift candidates ``members`` at this horizon as a class, with an
    empty filter memo; each horizon's plans are built once."""
    if horizon not in _DRIFT_PLANS:
        candidates = controlled_drift_candidates(horizon=horizon)
        _DRIFT_PLANS[horizon] = PlanningContext.build(candidates)
    built = _DRIFT_PLANS[horizon]
    return PlanningContext(
        CandidateFilter([built.filter.candidates[i] for i in members]),
        [built.plans[i] for i in members],
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
    st.integers(0, 7),
    st.sampled_from([None, 0.0, 2.0]),
    st.integers(0, 2**16),
)
# at horizon 4, candidate 3's plan moves between queries (0,) and (1,)
@example(horizon=4, members=[3], truth=7, beta=None, seed=0)
def test_agent_scores_the_walk_the_reference_reads_off_its_trace(
    horizon, members, truth, beta, seed
):
    # the agent records its own walk as it steps its policy; that walk must
    # be the one a reference reads off the observed trace by stepping the
    # played graph, the scores must be each model's own filter summed over
    # episodes, bit for bit, and the memo must key the distinct walks in
    # the order they were first played
    context = _fresh_drift_context(horizon, members)
    candidates = context.filter.candidates
    truth = controlled_drift_candidates(horizon=horizon)[truth]
    agent = PorsAgent(context, 40, beta=beta)
    env_rng = SampleRng(seed)
    loglik = np.zeros(len(candidates))
    walks = []
    for k in range(1, 41):
        _, trace = recorded_episode(agent, truth, k, env_rng)
        steps = walked_steps_reference(truth, agent.episode_policy, trace)
        assert tuple(agent._steps) == steps
        loglik += [trace_log_likelihood(m, trace) for m in candidates]
        if steps not in walks:
            walks.append(steps)
    assert agent.loglik.tolist() == loglik.tolist()
    assert list(context.filter.memo) == walks[: pors.LIKELIHOOD_MEMO_SIZE]


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
