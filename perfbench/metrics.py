"""Metric definitions and their computation from pass results.

End-to-end metrics come from untraced passes, in reference seconds (see
speed.py); per-layer metrics come from traced passes, in raw seconds.
Both are medians over the passes of one run.  Units here must match
BENCHMARK.json (selftest.py checks that they do).
"""

import statistics

from tracer import AGENT_METHODS, ENV_FUNCTIONS, LAYERS as SPAN_LAYERS

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# run_suite's self time is reported as harness.run_suite.self_s
LAYERS = tuple(layer for layer in SPAN_LAYERS if layer != "run_suite")


def _timing(name):
    return {f"{name}.us": "us", f"{name}.p99_us": "us", f"{name}.calls": "count"}


PER_LAYER = {}
for _fn in ENV_FUNCTIONS:
    PER_LAYER.update(_timing(f"envs.{_fn}"))
PER_LAYER["envs.share"] = "ratio"
PER_LAYER.update(_timing("agents.run_episode"))
PER_LAYER["agents.run_episode.self_us"] = "us"
for _m in AGENT_METHODS:
    PER_LAYER.update(_timing(f"agents.{_m}"))
PER_LAYER.update(_timing("agents.weights"))
PER_LAYER.update({"agents.plan.us": "us", "agents.plan.p99_us": "us"})
PER_LAYER.update(
    {
        "oracle.optimal_value.s": "s",
        "oracle.nodes": "count",
        "oracle.memo_hits": "count",
        "oracle.nodes_per_s": "1/s",
        "oracle.memo_hit_ratio": "ratio",
    }
)
PER_LAYER.update(_timing("oracle.evaluate_markov_policy"))
PER_LAYER["oracle.policy_cache_hit_ratio"] = "ratio"
PER_LAYER.update(_timing("pors.feedback_log_likelihood"))
PER_LAYER["pors.context_build.s"] = "s"
PER_LAYER.update(_timing("pors.evaluate_policy_value"))
PER_LAYER.update(
    {
        "pors.optimistic_plan.us": "us",
        "pors.optimistic_plan.p99_us": "us",
        "pors.conf_set_size.mean": "count",
        "harness.load_config.s": "s",
        "harness.run_suite.self_s": "s",
        "harness.write_results_csv.s": "s",
        "harness.csv_bytes": "bytes",
        "harness.emit_plot_svg.s": "s",
        "harness.svg_bytes": "bytes",
        "serialize.load_candidates.s": "s",
    }
)
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update(
    {
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.unattributed_frac": "ratio",
    }
)

# Counts that a seeded pass must repeat exactly.
EXACT = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")
)

# How much of a traced pass's wall time may fall outside every span (the
# command-line glue around the harness calls): 2%, or 20 ms if that is more.
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_FLOOR_S = 0.02


def unattributed_ok(values):
    wall = values["trace.wall_s"]
    outside_s = abs(values["trace.unattributed_frac"]) * wall
    return outside_s <= max(UNATTRIBUTED_SHARE * wall, UNATTRIBUTED_FLOOR_S)


def end_to_end(passes, scaled=True):
    """Medians over untraced passes (a non-empty list of results).

    With scaled, times are in reference seconds (speed.py): CPU seconds
    times the core speed sampled during the pass, wall-clock spans times
    that speed and the share of the pass the host did not steal.  The
    share is of CPU time wanted, so a pass that keeps n CPUs busy has its
    steal, summed over all CPUs, spread over n.  Unscaled medians are the
    raw perf_counter and rusage seconds.
    """
    per_pass = []
    for p in passes:
        cpu_k = wall_k = 1.0
        if scaled:
            cpu_k = p["speed"]
            wall_k = cpu_k * (1.0 - p["steal_s"] / max(p["wall_s"], p["cpu_s"]))
        per_pass.append({
            "wall_s": p["wall_s"] * wall_k,
            "setup_s": p["setup_s"] * wall_k,
            "episodes_per_s": p["csv_rows"] / (p["episode_phase_s"] * wall_k),
            "cpu_s": p["cpu_s"] * cpu_k,
            "peak_rss_mb": p["peak_rss_mb"],
        })
    return {
        name: statistics.median(v[name] for v in per_pass) for name in END_TO_END
    }


def _span(spans, name):
    return spans.get(name, {"calls": 0, "us": None, "p99_us": None, "total_s": 0.0})


def _timing_values(out, metric, span, calls=None):
    """us/p99_us/calls of one span; None marks a span that never ran."""
    calls = span["calls"] if calls is None else calls
    ran = calls > 0
    out[f"{metric}.us"] = span["us"] if ran else None
    out[f"{metric}.p99_us"] = span["p99_us"] if ran else None
    out[f"{metric}.calls"] = calls if ran else None


def layer_values(result, learner):
    """Per-layer values of one traced pass; None where not applicable.

    agents.* per-call figures are the workload learner's (its first
    [algo]); a baseline's calls count only in the layer totals.
    """
    trace = result["trace"]
    spans = trace["spans"]
    self_s = trace["self_s"]
    episodes = result["csv_rows"]
    out = {}
    for fn in ENV_FUNCTIONS:
        _timing_values(out, f"envs.{fn}", _span(spans, f"envs.{fn}"))
    out["envs.share"] = self_s["envs"] / result["episode_phase_s"]

    _timing_values(out, "agents.run_episode", _span(spans, f"agents.run_episode@{learner}"))
    out["agents.run_episode.self_us"] = _span(spans, f"agents.run_episode.self@{learner}")["us"]
    for m in AGENT_METHODS:
        _timing_values(out, f"agents.{m}", _span(spans, f"agents.{m}@{learner}"))
    # per begin_episode: the weight updates inside it; calls counts updates
    _timing_values(out, "agents.weights", _span(spans, f"agents.weights@{learner}"),
                   calls=_span(spans, "agents.weights_call")["calls"])
    plan = _span(spans, f"agents.plan@{learner}")
    out["agents.plan.us"] = plan["us"]
    out["agents.plan.p99_us"] = plan["p99_us"]

    opt = _span(spans, "oracle.optimal_value")
    nodes, hits = result["oracle"]["nodes"], result["oracle"]["memo_hits"]
    out["oracle.optimal_value.s"] = opt["total_s"]
    out["oracle.nodes"] = nodes
    out["oracle.memo_hits"] = hits
    out["oracle.nodes_per_s"] = nodes / opt["total_s"]
    out["oracle.memo_hit_ratio"] = hits / (hits + nodes)
    emp = _span(spans, "oracle.evaluate_markov_policy")
    _timing_values(out, "oracle.evaluate_markov_policy", emp)
    out["oracle.policy_cache_hit_ratio"] = (
        1.0 - emp["calls"] / episodes if emp["calls"] else None
    )

    _timing_values(out, "pors.feedback_log_likelihood",
                   _span(spans, "pors.feedback_log_likelihood"))
    build = _span(spans, "pors.context_build")
    out["pors.context_build.s"] = build["total_s"] if build["calls"] else None
    _timing_values(out, "pors.evaluate_policy_value",
                   _span(spans, "pors.evaluate_policy_value"))
    planned = _span(spans, "pors.optimistic_plan")
    out["pors.optimistic_plan.us"] = planned["us"]
    out["pors.optimistic_plan.p99_us"] = planned["p99_us"]
    out["pors.conf_set_size.mean"] = trace["conf_set_size_mean"]

    for fn in ("load_config", "write_results_csv", "emit_plot_svg"):
        out[f"harness.{fn}.s"] = _span(spans, f"harness.{fn}")["total_s"]
    out["harness.run_suite.self_s"] = self_s["run_suite"]
    out["harness.csv_bytes"] = result["csv_bytes"]
    out["harness.svg_bytes"] = result["svg_bytes"]
    loads = _span(spans, "serialize.load_candidates")
    out["serialize.load_candidates.s"] = loads["total_s"] if loads["calls"] else None

    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] or None  # 0: the layer never ran
    out["trace.wall_s"] = result["wall_s"]
    out["trace.unattributed_frac"] = 1.0 - sum(self_s.values()) / result["wall_s"]
    return out


def per_layer(traced, plain, learner):
    """Medians over traced passes of each per-layer value.

    Returns (values, not_applicable): a metric that does not apply to the
    workload (its layer never ran) reads 0 and is named in not_applicable.
    """
    per_pass = [layer_values(r, learner) for r in traced]
    values, not_applicable = {}, []
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        column = [v[name] for v in per_pass]
        if any(x is None for x in column):
            not_applicable.append(name)
            values[name] = 0
        else:
            values[name] = statistics.median(column)
    # raw seconds on both sides (the untraced ones include the speed
    # sampler's 1% or so); traced and untraced passes alternate, so a drift of
    # the machine's speed during the run falls on both medians alike
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: values[name] for name in PER_LAYER}, not_applicable


def exact_counts(values):
    return {name: values[name] for name in EXACT}
