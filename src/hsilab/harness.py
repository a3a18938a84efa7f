"""Experiment configuration, seeded suites, verification, CSV/SVG output.

A config file is sectioned key/value text::

    [experiment]
    episodes = 1000
    seeds = 0,1,2,3

    [env builder=groups]
    d = 2
    epsilon = 0.1

    [algo name=op-tll]
    c-bonus = 1.0

Every section is resolved by ``_typed_params`` against a schema of typed
keys; ``_ENV_BUILDERS`` names the one function that builds each env and
``_AGENT_BUILDERS`` the one that builds each algorithm's agent.

``load_config`` decides everything a run needs before any run starts: it
builds the env, runs its structural verification when the config sets
``verify = on``, builds each pors algorithm's planning context and each
fixed algorithm's policy, and refuses a config whose results table would
exceed ``envs.MAX_TABLE_CELLS`` rows.  ``run_suite`` then only runs.

Each (algorithm, seed) run draws its own random streams from a seed hashed
out of (master seed, algorithm label, environment name, seed), so results
never depend on the order runs execute in and rerunning a config reproduces
the CSV byte for byte.
"""

import hashlib
import math
import os
from array import array
from dataclasses import dataclass, field
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from .core import ConfigError, Dims
from .envs import (
    MAX_TABLE_CELLS,
    SampleRng,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    check_groups_combination,
    check_groups_same_substate,
    derive_generator,
    groups_state_vectors,
    min_partial_singular_value,
    random_independent_model,
)
from .agents import (
    MAX_SEQUENCES,
    EpsilonGreedySequenceAgent,
    FixedPolicyAgent,
    MarkovEpisodePolicy,
    OpmllAgent,
    OptllAgent,
    UniformRandomAgent,
    run_episode,
)
from .pors import (
    PlanningContext,
    PolicyGraph,
    PorsAgent,
    evaluate_policy_value,
)
from .serialize import load_candidates, load_model, parse_sections
from . import oracle

MASTER_SEED_ENV_VAR = "HSILAB_MASTER_SEED"
CSV_HEADER = "algo,env,seed,episode,reward,cum_reward,regret"
REGRET_MODES = ("auto", "expected", "realized", "off")
SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)
MAX_PLOT_POINTS = 1000


class VerificationFailure(RuntimeError):
    """A structural property of a named instance did not hold."""


# -- configuration ---------------------------------------------------------------


@dataclass
class AlgoSpec:
    """One [algo] section; ``prepared`` is what load_config made its agents
    from (a pors PlanningContext, a fixed MarkovEpisodePolicy) or None."""

    kind: str
    label: str
    params: dict
    prepared: object = field(default=None, repr=False)


@dataclass
class ExperimentConfig:
    algos: list
    n_episodes: int
    seeds: tuple
    master_seed: int
    output_dir: str
    oracle_cap: int
    regret_mode: str
    env_model: object = field(repr=False)


def _section_kv(section, source):
    out = {}
    for key, value, lineno in section.rows:
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _parse_typed(raw, kind, what, source, lineno=None):
    where = f"{source}:{lineno}: " if lineno else f"{source}: "
    try:
        if kind is bool:
            if raw not in ("on", "off"):
                raise ValueError
            return raw == "on"
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}{what} must be {kind.__name__}, got {raw!r}"
        ) from None


def _reject_unknown(kv, where, source):
    if kv:
        key = next(iter(kv))
        _, lineno = kv[key]
        at = f"{source}:{lineno}" if lineno else source
        raise ConfigError(f"{at}: unknown {where} key {key!r}")


def _typed_params(kv, schema, where, source, bare=False):
    """Resolve a key/value section against {key: (type, default)}; defaults
    of REQUIRED mark mandatory keys.  With bare, a badly typed value is
    reported by its key alone, without section or line, as [experiment]
    settings are."""
    out = {}
    for key, (kind, default) in schema.items():
        if key in kv:
            raw, lineno = kv.pop(key)
            if bare:
                out[key] = _parse_typed(raw, kind, key, source)
            else:
                out[key] = _parse_typed(raw, kind, f"{where} {key}", source, lineno)
        elif default is REQUIRED:
            raise ConfigError(f"{source}: {where} requires key {key!r}")
        else:
            out[key] = default
    _reject_unknown(kv, where, source)
    return out


REQUIRED = object()

_EXPERIMENT_SCHEMA = {
    "episodes": (int, REQUIRED),
    "seeds": (str, REQUIRED),
    "master-seed": (int, 0),
    "regret-mode": (str, "auto"),
    "output-dir": (str, "results"),
    "oracle-cap": (int, oracle.DEFAULT_NODE_CAP),
    "verify": (bool, False),
}

_ENV_SCHEMAS = {
    "groups": {
        "d": (int, REQUIRED),
        "epsilon": (float, REQUIRED),
        "d-query": (int, 1),
        "n-actions": (int, 2),
    },
    "flat-emission": {"epsilon": (float, REQUIRED)},
    "tree": {
        "alphabet-size": (int, REQUIRED),
        "d": (int, REQUIRED),
        "n-actions": (int, REQUIRED),
        "epsilon": (float, REQUIRED),
        "h0": (int, None),
        "m-star": (int, None),
        "horizon": (int, None),
    },
    "random-class1": {
        "d": (int, REQUIRED),
        "alphabet-size": (int, REQUIRED),
        "d-query": (int, 1),
        "horizon": (int, REQUIRED),
        "n-actions": (int, REQUIRED),
        "env-seed": (int, 0),
    },
    "controlled-drift": {
        "stay-controlled": (float, 0.8),
        "stay-drift": (float, 0.7),
        "emission-accuracy": (float, 0.8),
        "horizon": (int, 2),
    },
    "file": {"path": (str, REQUIRED)},
}

_ALGO_SCHEMAS = {
    "uniform": {},
    "op-tll": {"theta1": (float, None), "c-bonus": (float, 1.0)},
    "op-mll": {
        "theta1": (float, None),
        "theta2": (float, None),
        "c-bonus": (float, 1.0),
    },
    "pors": {
        "candidates": (str, REQUIRED),
        "beta": (float, None),
        "delta": (float, 0.05),
    },
    "epsilon-greedy-seq": {"epsilon": (float, 0.25)},
    "fixed": {"actions": (str, REQUIRED), "query": (str, REQUIRED)},
}

# Allowed values of numeric algorithm parameters, checked when the config
# loads; an optional parameter left at None is derived by the run itself.
_ALGO_RANGES = {
    "theta1": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "theta2": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "c-bonus": (">= 0", lambda x: x >= 0.0),
    "epsilon": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "beta": (">= 0", lambda x: x >= 0.0),
    "delta": ("in (0, 1)", lambda x: 0.0 < x < 1.0),
}


def _check_algo_ranges(kind, params, where):
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: algo {kind} {key} must be finite, got {value}")
        desc, ok = _ALGO_RANGES.get(key, (None, None))
        if ok is not None and value is not None and not ok(value):
            raise ConfigError(f"{where}: algo {kind} {key} must be {desc}, got {value}")


def _random_class1(d, alphabet_size, d_query, horizon, n_actions, env_seed):
    dims = Dims(
        d=d,
        alphabet_size=alphabet_size,
        d_query=d_query,
        horizon=horizon,
        n_actions=n_actions,
    )
    return random_independent_model(dims, env_seed, name=f"random-class1-s{env_seed}")


# The builder of each [env builder=...] name.  Each takes its schema's keys
# as keyword arguments, with '-' read as '_'; verify_instance builds through
# this table too, with the _VERIFY_SCHEMAS defaults.
_ENV_BUILDERS = {
    "groups": build_hard_instance_groups,
    "flat-emission": build_hard_instance_flat_emission,
    "tree": build_hard_instance_tree,
    "random-class1": _random_class1,
    "controlled-drift": build_controlled_drift_instance,
    "file": load_model,
}


def _build(env_kind, params):
    kwargs = {key.replace("-", "_"): value for key, value in params.items()}
    return _ENV_BUILDERS[env_kind](**kwargs)


def build_env(env_kind, env_params, source="<config>"):
    """Instantiate the configured environment model.  A builder that rejects
    its parameters (the envs builders also refuse tables over
    ``envs.MAX_TABLE_CELLS`` before allocating them) raises ConfigError."""
    try:
        return _build(env_kind, env_params)
    except (ValueError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{source}: cannot build env {env_kind}: {exc}") from exc


def _check_compatibility(spec, env, source):
    """Algorithm/model-class compatibility, checked before any run starts."""

    def fail(reason):
        raise ConfigError(
            f"{source}: algorithm {spec.label!r} is incompatible with env "
            f"{env.name!r}: {reason}"
        )

    if spec.kind in ("op-tll", "op-mll"):
        if env.class_tag == "Class2":
            fail("needs a model without emissions (Class1 or Generic)")
        if spec.kind == "op-tll" and env.dims.d_query != 1:
            fail(f"single-query learner needs d_query=1, env has {env.dims.d_query}")
        if spec.kind == "op-mll" and env.dims.d_query < 2:
            fail(f"multi-query learner needs d_query>=2, env has {env.dims.d_query}")
    if spec.kind == "pors" and env.class_tag != "Class2":
        fail(f"needs an emission model (Class2), env is {env.class_tag}")
    if spec.kind == "epsilon-greedy-seq":
        n_seq = env.dims.n_actions**env.dims.horizon
        if n_seq > MAX_SEQUENCES:
            fail(f"{n_seq} action sequences exceed the cap {MAX_SEQUENCES}")


def _check_csv_field(value, what, where):
    """Labels and env names become CSV fields that read_results_csv must
    split back apart: no commas, and no leading comment marker."""
    if "," in value or value.startswith("#"):
        raise ConfigError(
            f"{where}: {what} {value!r} must not contain ',' or start with '#'"
        )


def load_config(path):
    """Parse and fully validate a config file; every invariant is checked
    (environment built and, with ``verify = on``, verified, compatibility
    checked, pors planning contexts and fixed policies made and kept on
    their ``AlgoSpec``) before any run starts.  A failed verification
    raises VerificationFailure."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    source = str(path)
    sections = parse_sections(text, source)
    exp = env_sec = None
    algo_secs = []
    for sec in sections:
        if sec.name == "experiment":
            if exp is not None:
                raise ConfigError(f"{source}:{sec.line}: duplicate [experiment]")
            exp = sec
        elif sec.name == "env":
            if env_sec is not None:
                raise ConfigError(f"{source}:{sec.line}: duplicate [env]")
            env_sec = sec
        elif sec.name == "algo":
            algo_secs.append(sec)
        else:
            raise ConfigError(f"{source}:{sec.line}: unknown section [{sec.name}]")
    if exp is None:
        raise ConfigError(f"{source}: missing [experiment] section")
    if env_sec is None:
        raise ConfigError(f"{source}: missing [env ...] section")
    if not algo_secs:
        raise ConfigError(f"{source}: need at least one [algo ...] section")

    ex = _typed_params(
        _section_kv(exp, source), _EXPERIMENT_SCHEMA, "[experiment]", source, bare=True
    )
    if ex["episodes"] < 1:
        raise ConfigError(f"{source}: episodes must be >= 1, got {ex['episodes']}")
    if ex["oracle-cap"] < 1:
        raise ConfigError(f"{source}: oracle-cap must be >= 1, got {ex['oracle-cap']}")
    try:
        seeds = tuple(int(s) for s in ex["seeds"].split(","))
    except ValueError:
        raise ConfigError(
            f"{source}: seeds must be comma-separated integers, got {ex['seeds']!r}"
        ) from None
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{source}: duplicate seeds in {seeds}")
    n_rows = ex["episodes"] * len(seeds) * len(algo_secs)
    if n_rows > MAX_TABLE_CELLS:
        raise ConfigError(
            f"{source}: episodes x seeds x algorithms = {n_rows} result rows, "
            f"over the cap of {MAX_TABLE_CELLS}"
        )
    master_seed = ex["master-seed"]
    env_override = os.environ.get(MASTER_SEED_ENV_VAR)
    if env_override is not None:
        master_seed = _parse_typed(
            env_override, int, MASTER_SEED_ENV_VAR, source
        )
    if ex["regret-mode"] not in REGRET_MODES:
        raise ConfigError(
            f"{source}: regret-mode must be one of {REGRET_MODES}, "
            f"got {ex['regret-mode']!r}"
        )

    env_kind = env_sec.args.get("builder")
    if env_kind is None:
        raise ConfigError(
            f"{source}:{env_sec.line}: [env] header needs builder=<name>"
        )
    if env_kind not in _ENV_SCHEMAS:
        raise ConfigError(
            f"{source}:{env_sec.line}: unknown env builder {env_kind!r}; "
            f"known: {', '.join(_ENV_SCHEMAS)}"
        )
    if ex["verify"] and env_kind not in _VERIFIERS:
        raise ConfigError(
            f"{source}: verify = on needs a verifiable env builder "
            f"({', '.join(_VERIFIERS)}), got {env_kind!r}"
        )
    env_params = _typed_params(
        _section_kv(env_sec, source), _ENV_SCHEMAS[env_kind], f"env {env_kind}", source
    )
    env_model = build_env(env_kind, env_params, source)
    if ex["verify"]:
        report = _VERIFIERS[env_kind](env_params, env_model)
        if not report.passed:
            raise VerificationFailure(report.format())
    _check_csv_field(env_model.name, "env name", f"{source}:{env_sec.line}")

    algos = []
    labels = set()
    for sec in algo_secs:
        kind = sec.args.get("name")
        if kind is None:
            raise ConfigError(f"{source}:{sec.line}: [algo] header needs name=<kind>")
        if kind not in _ALGO_SCHEMAS:
            raise ConfigError(
                f"{source}:{sec.line}: unknown algorithm {kind!r}; "
                f"known: {', '.join(_ALGO_SCHEMAS)}"
            )
        label = sec.args.get("label", kind)
        _check_csv_field(label, "algo label", f"{source}:{sec.line}")
        if label in labels:
            raise ConfigError(f"{source}:{sec.line}: duplicate algo label {label!r}")
        labels.add(label)
        params = _typed_params(
            _section_kv(sec, source), _ALGO_SCHEMAS[kind], f"algo {kind}", source
        )
        _check_algo_ranges(kind, params, f"{source}:{sec.line}")
        spec = AlgoSpec(kind=kind, label=label, params=params)
        _check_compatibility(spec, env_model, source)
        if kind == "pors":
            cand_path = params["candidates"]
            try:
                cands = load_candidates(cand_path)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(
                    f"{source}: cannot read candidates {cand_path}: {exc}"
                ) from exc
            for cand in cands:
                if cand.dims != env_model.dims:
                    raise ConfigError(
                        f"{source}: candidate {cand.name!r} dimensions do not "
                        f"match env {env_model.name!r}"
                    )
            try:
                spec.prepared = PlanningContext.build(cands, ex["oracle-cap"])
            except ConfigError as exc:
                raise ConfigError(f"{source}: algorithm {label!r}: {exc}") from exc
        if kind == "fixed":
            spec.prepared = _fixed_policy(spec, env_model.dims, source)
        algos.append(spec)

    return ExperimentConfig(
        algos=algos,
        n_episodes=ex["episodes"],
        seeds=seeds,
        master_seed=master_seed,
        output_dir=ex["output-dir"],
        oracle_cap=ex["oracle-cap"],
        regret_mode=ex["regret-mode"],
        env_model=env_model,
    )


def _fixed_policy(spec, dims, source):
    """Constant open-loop policy from a fixed-agent spec."""
    try:
        actions = [int(a) for a in spec.params["actions"].split(",")]
        query = tuple(int(i) for i in spec.params["query"].split(","))
    except ValueError:
        raise ConfigError(
            f"{source}: fixed agent actions/query must be comma-separated ints"
        ) from None
    if len(actions) == 1:
        actions = actions * dims.horizon
    if len(actions) != dims.horizon:
        raise ConfigError(
            f"{source}: fixed agent needs 1 or {dims.horizon} actions, "
            f"got {len(actions)}"
        )
    if query not in dims.query_sets():
        raise ConfigError(f"{source}: fixed agent query {query} is not a query set")
    if not all(0 <= a < dims.n_actions for a in actions):
        raise ConfigError(f"{source}: fixed agent action out of range in {actions}")
    return MarkovEpisodePolicy.from_sequence(
        actions, query, dims.n_query_values, dims.n_actions
    )


# -- suite execution --------------------------------------------------------------


def derive_run_seed(master_seed, algo_label, env_name, seed):
    """Stable 64-bit run seed; insulates runs from config reordering."""
    digest = hashlib.sha256(
        f"{master_seed}/{algo_label}/{env_name}/{seed}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


# The agent of each [algo name=...] kind, built from its spec (with what
# load_config prepared), the env's dims, the episode budget and the run's
# agent rng.
_AGENT_BUILDERS = {
    "uniform": lambda spec, dims, n_episodes, rng: UniformRandomAgent(dims, rng),
    "op-tll": lambda spec, dims, n_episodes, rng: OptllAgent(
        dims,
        n_episodes,
        rng,
        theta1=spec.params["theta1"],
        c_bonus=spec.params["c-bonus"],
    ),
    "op-mll": lambda spec, dims, n_episodes, rng: OpmllAgent(
        dims,
        n_episodes,
        rng,
        theta1=spec.params["theta1"],
        theta2=spec.params["theta2"],
        c_bonus=spec.params["c-bonus"],
    ),
    "pors": lambda spec, dims, n_episodes, rng: PorsAgent(
        spec.prepared, n_episodes, beta=spec.params["beta"], delta=spec.params["delta"]
    ),
    "epsilon-greedy-seq": lambda spec, dims, n_episodes, rng: (
        EpsilonGreedySequenceAgent(dims, rng, epsilon=spec.params["epsilon"])
    ),
    "fixed": lambda spec, dims, n_episodes, rng: FixedPolicyAgent(dims, spec.prepared),
}


def _policy_value(env, policy, values, prefixes):
    """Exact expected episode reward of the policy an agent just played,
    cached in ``values`` by policy (a policy graph by identity); ``prefixes``
    is the decision-prefix memo from which ``evaluate_markov_policy``
    resumes.  Both live for one algorithm's runs."""
    if isinstance(policy, PolicyGraph):
        key = policy
        if key not in values:
            values[key] = evaluate_policy_value(env, policy)
    else:
        key = policy.key()
        if key not in values:
            values[key] = oracle.evaluate_markov_policy(env, policy, prefixes)
    return values[key]


@dataclass
class RunResult:
    algo: str
    seed: int
    rewards: np.ndarray
    policy_values: object = None


@dataclass
class ResultsTable:
    """Per-episode rows plus summary statistics for one executed config."""

    env_name: str
    regret_mode: str
    v_star: object
    runs: list

    def sorted_runs(self):
        return sorted(self.runs, key=lambda r: (r.algo, r.seed))

    def run_regret(self, run):
        """Cumulative regret series (length K), or None in off mode."""
        if self.regret_mode == "off":
            return None
        if self.regret_mode == "expected":
            return np.cumsum(self.v_star - run.policy_values)
        return self.v_star * np.arange(1, len(run.rewards) + 1) - np.cumsum(
            run.rewards
        )

    def regret_columns(self):
        """(algo, seed, episodes, regrets) per run in (algo, seed) order;
        the regrets are NaN in off mode."""
        for run in self.sorted_runs():
            n = len(run.rewards)
            regret = self.run_regret(run)
            if regret is None:
                regret = np.full(n, np.nan)
            yield run.algo, run.seed, np.arange(1, n + 1), regret

    def summary(self):
        """Per algorithm: mean/std of final regret and the mean ratio of
        final regret to quarter-horizon regret across seeds."""
        out = {}
        for run in self.sorted_runs():
            out.setdefault(run.algo, []).append(run)
        summaries = {}
        for algo, runs in out.items():
            finals, ratios = [], []
            for run in runs:
                regret = self.run_regret(run)
                if regret is None:
                    continue
                final = float(regret[-1])
                finals.append(final)
                quarter = float(regret[max(len(regret) // 4, 1) - 1])
                if quarter == 0.0:
                    ratios.append(1.0 if final == 0.0 else float("inf"))
                else:
                    ratios.append(final / quarter)
            if finals:
                summaries[algo] = {
                    "mean_final_regret": float(np.mean(finals)),
                    "std_final_regret": float(np.std(finals)),
                    "mean_quarter_ratio": float(np.mean(ratios)),
                }
            else:
                nan = float("nan")
                summaries[algo] = {
                    "mean_final_regret": nan,
                    "std_final_regret": nan,
                    "mean_quarter_ratio": nan,
                }
        return summaries


def _execute_run(spec, env, cfg, seed, caches):
    """One (algorithm, seed) run; ``caches`` is the algorithm's
    ``(values, prefixes)`` for ``_policy_value``, or None when the run
    records no policy values."""
    run_seed = derive_run_seed(cfg.master_seed, spec.label, env.name, seed)
    agent_rng = derive_generator(run_seed, "agent")
    env_rng = SampleRng(run_seed)
    agent = _AGENT_BUILDERS[spec.kind](spec, env.dims, cfg.n_episodes, agent_rng)
    rewards = np.empty(cfg.n_episodes)
    values = np.empty(cfg.n_episodes) if caches else None
    for k in range(1, cfg.n_episodes + 1):
        rewards[k - 1] = run_episode(agent, env, k, env_rng)
        if caches:
            values[k - 1] = _policy_value(env, agent.episode_policy, *caches)
    violations = getattr(agent, "invariant_violations", [])
    if violations:
        raise AssertionError(
            f"algorithm invariant violated in run ({spec.label}, seed {seed}): "
            f"{violations[0]}"
        )
    return RunResult(
        algo=spec.label,
        seed=seed,
        rewards=rewards,
        policy_values=values,
    )


def run_suite(cfg):
    """Execute every (algorithm, seed) run and assemble the results table.

    Builds and verifies nothing: ``load_config`` verified the env and made
    each pors planning context and fixed policy.  'auto' means expected
    regret, from the exact value of each played policy.  Every played
    policy can be evaluated: a pors run's candidates share the env's dims,
    and each plan is a policy graph bounded by its candidate's belief DP,
    which ran under the config's ``oracle-cap`` when it loaded.  Oracle size
    errors for V* propagate unless regret reporting is off.
    """
    env = cfg.env_model
    v_star = None
    if cfg.regret_mode != "off":
        v_star = oracle.optimal_value(env, cap=cfg.oracle_cap)
    mode = "expected" if cfg.regret_mode == "auto" else cfg.regret_mode
    runs = []
    for spec in cfg.algos:
        caches = ({}, {}) if mode == "expected" else None  # values, prefixes
        for seed in cfg.seeds:
            runs.append(_execute_run(spec, env, cfg, seed, caches))
    return ResultsTable(
        env_name=env.name,
        regret_mode=mode,
        v_star=v_star,
        runs=runs,
    )


# -- instance verification ---------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    instance: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def format(self):
        lines = [f"instance: {self.instance}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: {c.detail}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _verify_groups(params, m):
    d = params["d"]
    d_query = params["d-query"]
    group_a, group_b = groups_state_vectors(d, d_query)
    checks = []
    ok, failures = check_groups_same_substate(group_a, group_b)
    detail = (
        f"every cross-group pair of the {len(group_a)}+{len(group_b)} vectors "
        "shares a (position, value) entry"
        if ok
        else "no shared entry for pairs: "
        + "; ".join(f"{a} vs {b}" for a, b in failures[:5])
    )
    checks.append(CheckResult("shared-sub-state", ok, detail))
    ok2, failures2 = check_groups_combination(group_a, group_b, d_query)
    detail2 = (
        f"every size-{d_query} revealed combination of each vector also "
        "appears in the other group"
        if ok2
        else "missing combinations: "
        + "; ".join(f"{v} at positions {pos}" for v, pos in failures2[:5])
    )
    checks.append(CheckResult("combination-cover", ok2, detail2))
    return VerificationReport(f"groups d={d} d-query={d_query}", checks)


def _verify_flat_emission(params, m):
    sigma = min_partial_singular_value(m)
    ok = abs(sigma) <= 1e-9
    return VerificationReport(
        "flat-emission",
        [
            CheckResult(
                "flat-emission-degeneracy",
                ok,
                f"min partial singular value = {sigma:.3g} (identical "
                "emission columns carry no hidden-state information)",
            )
        ],
    )


def _verify_tree(params, m):
    eps = params["epsilon"]
    rewarded_steps = sorted(
        int(h) for h in np.flatnonzero(np.any(m.rewards > 0, axis=(1, 2))) + 1
    )
    checks = [
        CheckResult(
            "single-rewarded-step",
            len(rewarded_steps) == 1,
            f"steps with any reward: {rewarded_steps}",
        )
    ]
    h0 = rewarded_steps[0] if rewarded_steps else None
    if h0 is not None:
        layer = m.rewards[h0 - 1]
        starred = np.argwhere(np.abs(layer - (0.5 + eps)) <= 1e-12)
        base_cells = int(np.sum(np.abs(layer - 0.5) <= 1e-12))
        per_state = np.sum(layer > 0, axis=1)
        checks.append(
            CheckResult(
                "single-starred-cell",
                len(starred) == 1,
                f"cells with mean 1/2+epsilon at step {h0}: "
                f"{[tuple(int(x) for x in c) for c in starred]}",
            )
        )
        checks.append(
            CheckResult(
                "one-rewarded-action-per-state",
                bool(np.all(per_state == 1)) and base_cells == m.n_states - 1,
                f"{base_cells} cells at mean 1/2, one rewarded action per "
                f"state across {m.n_states} states",
            )
        )
    return VerificationReport(
        f"tree alphabet-size={params['alphabet-size']} d={params['d']} "
        f"n-actions={params['n-actions']}",
        checks,
    )


# Each verifier checks an env's parameters and the model built from them:
# load_config passes the env it built, verify_instance builds one (groups
# checks its own state vectors and needs no model).
_VERIFIERS = {
    "groups": _verify_groups,
    "flat-emission": _verify_flat_emission,
    "tree": _verify_tree,
}

_VERIFY_SCHEMAS = {
    "groups": {"d": (int, REQUIRED), "d-query": (int, 1)},
    "flat-emission": {"epsilon": (float, 0.1)},
    "tree": {
        "alphabet-size": (int, 2),
        "d": (int, 3),
        "n-actions": (int, 2),
        "epsilon": (float, 0.1),
        "h0": (int, None),
        "m-star": (int, None),
        "horizon": (int, None),
    },
}


def verify_instance(name, params=None):
    """Run the structural checks for a named instance family.

    params maps schema keys (as in config [env] sections) to values, given
    either typed or as strings.  Unknown names, bad parameters and
    parameters the instance builder rejects raise ConfigError.
    """
    if name not in _VERIFIERS:
        raise ConfigError(
            f"unknown instance {name!r}; verifiable: {', '.join(_VERIFIERS)}"
        )
    kv = {key: (str(value), None) for key, value in (params or {}).items()}
    resolved = _typed_params(kv, _VERIFY_SCHEMAS[name], f"verify {name}", "<params>")
    try:
        m = None if name == "groups" else _build(name, resolved)
        return _VERIFIERS[name](resolved, m)
    except ValueError as exc:
        raise ConfigError(f"<params>: cannot verify {name}: {exc}") from exc


# -- CSV -------------------------------------------------------------------------


def _fmt(x):
    return "%.9g" % x


def write_results_csv(table, path):
    """CSV rows sorted by (algo, seed, episode), with the regret mode and
    per-algorithm summary attached as comment lines.

    The file is written one run at a time: a run's rows are formatted from
    its reward, cumulative-reward and regret columns (NaN in off mode) and
    written before the next run's, so memory never holds the whole file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# regret_mode={table.regret_mode}\n")
        if table.v_star is not None:
            fh.write(f"# v_star={_fmt(table.v_star)}\n")
        fh.write(CSV_HEADER + "\n")
        for run in table.sorted_runs():
            n = len(run.rewards)
            regret = table.run_regret(run)
            regret = [math.nan] * n if regret is None else regret.tolist()
            prefix = f"{run.algo},{table.env_name},{run.seed},".replace("%", "%%")
            row = prefix + "%d,%.9g,%.9g,%.9g\n"
            columns = zip(
                range(1, n + 1),
                run.rewards.tolist(),
                np.cumsum(run.rewards).tolist(),
                regret,
            )
            fh.write("".join([row % values for values in columns]))
        for algo, stats in sorted(table.summary().items()):
            fh.write(
                f"# summary algo={algo} "
                f"mean_final_regret={_fmt(stats['mean_final_regret'])} "
                f"std_final_regret={_fmt(stats['std_final_regret'])} "
                f"mean_quarter_ratio={_fmt(stats['mean_quarter_ratio'])}\n"
            )
    return path


@dataclass
class CsvData:
    """Parsed results CSV: its regret mode, the env name of its first row and
    its (algo, seed, episodes, regrets) runs in (algo, seed) order, episodes
    ascending, which ``emit_plot_svg`` reads as a ``ResultsTable``'s."""

    regret_mode: str
    env_name: str
    runs: list

    def regret_columns(self):
        return iter(self.runs)


def _csv_lines(path):
    """(number, line) per line of a UTF-8 file, as ``str.splitlines`` splits it."""
    lineno = 0
    try:
        with open(path, "rb") as fh:
            for physical in fh:
                for line in physical.decode("utf-8").splitlines():
                    lineno += 1
                    yield lineno, line
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}:{lineno + 1}: {exc}") from None


def read_results_csv(path):
    """Parse a results CSV, one line at a time, into run columns.  A row that
    is malformed, has an infinite regret (off mode's NaN is accepted), an
    episode outside 1..MAX_TABLE_CELLS or an earlier row's (algo, seed,
    episode), a regret mode a run does not write, and a second regret mode
    line raise ConfigError naming file:line; finite regrets too far apart
    for the plot's scale, or too large for their mean over the runs to be a
    float, and a file with no regret mode line (checked after the rows)
    raise it naming the file."""
    mode = None
    env_name = ""
    runs = {}  # (algo, seed) -> episodes, regrets and line numbers in file order
    lo, hi = 0.0, -math.inf
    header_seen = False
    for lineno, line in _csv_lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# regret_mode="):
                if mode is not None:
                    raise ConfigError(
                        f"{path}:{lineno}: second '# regret_mode=' line; "
                        "a results CSV has one"
                    )
                mode = line.partition("=")[2].strip()
                if mode not in REGRET_MODES[1:]:  # the modes a run writes
                    raise ConfigError(
                        f"{path}:{lineno}: regret mode must be one of "
                        f"{REGRET_MODES[1:]}, got {mode!r}"
                    )
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ConfigError(
                    f"{path}:{lineno}: expected header {CSV_HEADER!r}, "
                    f"got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ConfigError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
        try:
            seed, episode = int(parts[2]), int(parts[3])
            _reward, _cum, regret = float(parts[4]), float(parts[5]), float(parts[6])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed row {line!r}") from None
        if not 1 <= episode <= MAX_TABLE_CELLS:
            raise ConfigError(
                f"{path}:{lineno}: episode must lie in 1..{MAX_TABLE_CELLS}, "
                f"got {episode}"
            )
        if math.isinf(regret):
            raise ConfigError(f"{path}:{lineno}: regret must be finite, got {regret}")
        lo = regret if regret < lo else lo  # a NaN changes neither
        hi = regret if regret > hi else hi
        run = runs.get((parts[0], seed))
        if run is None:
            env_name = env_name if runs else parts[1]  # the first row's
            run = runs[parts[0], seed] = (array("q"), array("d"), array("q"))
        run[0].append(episode)
        run[1].append(regret)
        run[2].append(lineno)
    if not header_seen:
        raise ConfigError(f"{path}: missing CSV header")
    columns, repeats = [], []
    for algo, seed in sorted(runs):
        episodes, regrets, lines = map(np.asarray, runs.pop((algo, seed)))
        order = np.argsort(episodes, kind="stable")  # equal episodes keep file order
        repeated = order[1:][np.diff(episodes[order]) == 0]
        if repeated.size:
            i = repeated.min()
            repeats.append((int(lines[i]), algo, seed, int(episodes[i])))
        columns.append((algo, seed, episodes[order], regrets[order]))
    if repeats:
        line, algo, seed, episode = min(repeats)
        raise ConfigError(
            f"{path}:{line}: repeats episode {episode} of algo {algo!r}, seed {seed}"
        )
    # lo, hi: min(0, *regrets) and max(regrets) as min() and max() take them;
    # max(hi - lo, -lo) bounds the plot's span and, times the runs, its sums
    if not math.isfinite(max(hi - lo, -lo) * len(columns)):
        raise ConfigError(
            f"{path}: regrets from {lo!r} to {hi!r} over {len(columns)} runs "
            "overflow the plot's scale"
        )
    if mode is None:
        raise ConfigError(f"{path}: no '# regret_mode=' line; a results CSV has one")
    return CsvData(regret_mode=mode, env_name=env_name, runs=columns)


# -- SVG -------------------------------------------------------------------------


def _decimate(n, limit=MAX_PLOT_POINTS):
    """Indices of the points a line of n points keeps on the plot."""
    if n <= limit:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, limit).astype(int))


def _tick_values(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def emit_plot_svg(table, path):
    """Self-contained SVG: cumulative regret vs episode, one color per
    algorithm, faint per-seed traces plus a solid mean line.

    ``table`` is a ``ResultsTable`` or a ``CsvData``; both supply
    per-(algo, seed) episode and regret columns.  NaN regrets are dropped;
    a line of more than ``MAX_PLOT_POINTS`` points keeps evenly spaced ones,
    and only those are formatted.  The mean line's value at an episode is
    the mean over the seeds that have a regret there, taken only at the
    episodes the line keeps."""
    series = {}  # algo -> [(episodes, regrets) per seed with any regret]
    max_x = -math.inf
    for algo, _seed, episodes, regrets in table.regret_columns():
        max_x = max(max_x, int(episodes[-1]))
        kept = ~np.isnan(regrets)
        lines = series.setdefault(algo, [])
        if kept.any():
            lines.append((episodes[kept], regrets[kept]))
    if not series:
        raise ConfigError("no rows to plot")
    plotted = [regrets for lines in series.values() for _, regrets in lines]
    if not plotted:
        raise ConfigError("no regret data to plot (regret reporting was off)")

    width, height = 760, 480
    left, right, top, bottom = 72, 180, 48, 56
    plot_w, plot_h = width - left - right, height - top - bottom
    max_y = max(float(regrets.max()) for regrets in plotted)
    lo_y = min(0.0, min(float(regrets.min()) for regrets in plotted))
    hi_y = max_y if max_y > lo_y else lo_y + 1.0

    def sx(x):
        return left + (x - 1) / max(max_x - 1, 1) * plot_w

    def sy(y):
        return top + (hi_y - y) / (hi_y - lo_y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">'
        f"{xml_escape(table.env_name)} &#8212; cumulative regret "
        f"({xml_escape(table.regret_mode)})</text>",
    ]
    for yt in _tick_values(lo_y, hi_y):
        y = sy(yt)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.4g}</text>'
        )
    for xt in _tick_values(1, max_x):
        x = sx(xt)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.5g}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" '
        'text-anchor="middle" font-family="sans-serif" font-size="13">'
        "episode</text>"
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">'
        "cumulative regret</text>"
    )

    def polyline(episodes, regrets, color, opacity, width_px):
        # sx and sy over arrays: the same float operations in the same order
        xs = sx(episodes).tolist()
        ys = sy(regrets).tolist()
        coords = " ".join(["%.1f,%.1f" % point for point in zip(xs, ys)])
        return (
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-opacity="{opacity}" stroke-width="{width_px}" '
            f'points="{coords}"/>'
        )

    for idx, (algo, lines) in enumerate(sorted(series.items())):
        color = SVG_PALETTE[idx % len(SVG_PALETTE)]
        for episodes, regrets in lines:
            keep = _decimate(len(episodes))
            parts.append(polyline(episodes[keep], regrets[keep], color, 0.25, 1))
        if lines:
            union = np.unique(np.concatenate([episodes for episodes, _ in lines]))
            mean_episodes = union[_decimate(len(union))]
            grids = []  # per seed, its regret at each kept episode it has
            for episodes, regrets in lines:
                pos = np.searchsorted(episodes, mean_episodes).clip(max=len(episodes) - 1)
                hit = episodes[pos] == mean_episodes
                grids.append(
                    dict(zip(mean_episodes[hit].tolist(), regrets[pos[hit]].tolist()))
                )
            means = [
                np.mean([g[e] for g in grids if e in g]) for e in mean_episodes.tolist()
            ]
            parts.append(polyline(mean_episodes, np.array(means), color, 1.0, 2))
        ly = top + 16 + 18 * idx
        lx = left + plot_w + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{xml_escape(algo)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
