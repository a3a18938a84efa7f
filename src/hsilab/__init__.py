"""Simulation laboratory for episodic decision tasks with vector-valued
states and actively queried partial hindsight feedback.

Environments (including hard-to-learn reference constructions), three
learning algorithms (two exponential-weights query learners for
emission-free models and a confidence-set planner for noisy-emission
models), an exact small-instance oracle for ground-truth optimal values,
and a seeded benchmarking harness with CSV/SVG output.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    Dims,
    EpisodeTrace,
    Feedback,
    OracleSizeError,
    StepRecord,
    UnsupportedFeedbackError,
    decode_state,
    encode_state,
)
from .envs import (
    EnvModel,
    SampleRng,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    check_groups_combination,
    check_groups_same_substate,
    controlled_drift_candidates,
    derive_generator,
    estimate_cross_covariance,
    groups_state_vectors,
    min_partial_singular_value,
    random_independent_model,
)
from .agents import (
    EpsilonGreedySequenceAgent,
    FixedPolicyAgent,
    MarkovEpisodePolicy,
    OpmllAgent,
    OptllAgent,
    ScheduleError,
    UniformRandomAgent,
    run_episode,
)
from .oracle import (
    evaluate_markov_policy,
    optimal_value,
    oracle_report,
)
from .pors import (
    CandidateFilter,
    ConfidenceSet,
    PlanningContext,
    PorsAgent,
    TreePolicy,
    default_beta,
    evaluate_policy_value,
    feedback_log_likelihood,
    optimistic_plan,
)
from .serialize import (
    dump_candidates,
    dump_model,
    load_candidates,
    load_model,
)
from .harness import (
    ExperimentConfig,
    ResultsTable,
    VerificationFailure,
    emit_plot_svg,
    load_config,
    read_results_csv,
    run_suite,
    verify_instance,
    write_results_csv,
)

__all__ = [
    "CandidateFilter",
    "ConfidenceSet",
    "ConfigError",
    "Dims",
    "EnvModel",
    "EpisodeTrace",
    "EpsilonGreedySequenceAgent",
    "ExperimentConfig",
    "Feedback",
    "FixedPolicyAgent",
    "MarkovEpisodePolicy",
    "OpmllAgent",
    "OptllAgent",
    "OracleSizeError",
    "PlanningContext",
    "PorsAgent",
    "ResultsTable",
    "SampleRng",
    "ScheduleError",
    "StepRecord",
    "TreePolicy",
    "UniformRandomAgent",
    "UnsupportedFeedbackError",
    "VerificationFailure",
    "build_controlled_drift_instance",
    "build_hard_instance_flat_emission",
    "build_hard_instance_groups",
    "build_hard_instance_tree",
    "check_groups_combination",
    "check_groups_same_substate",
    "controlled_drift_candidates",
    "decode_state",
    "default_beta",
    "derive_generator",
    "dump_candidates",
    "dump_model",
    "emit_plot_svg",
    "encode_state",
    "estimate_cross_covariance",
    "evaluate_markov_policy",
    "evaluate_policy_value",
    "feedback_log_likelihood",
    "groups_state_vectors",
    "load_candidates",
    "load_config",
    "load_model",
    "min_partial_singular_value",
    "optimal_value",
    "optimistic_plan",
    "oracle_report",
    "random_independent_model",
    "read_results_csv",
    "run_episode",
    "run_suite",
    "verify_instance",
    "write_results_csv",
]
