"""Call tracing from outside the package.

Each traced function is wrapped where its caller looks it up (a module
global or a class attribute) and restored afterwards, so nothing under
src/ changes.  Every call's duration goes into an in-memory array; a stack
of open spans gives each layer its self time (a span's duration minus the
time its traced children cover).
"""

import time
from array import array

import numpy as np

# run_suite is its own entry: its self time is the harness loop around the
# traced layers, reported apart from the harness's I/O functions.
LAYERS = ("envs", "agents", "oracle", "pors", "harness", "serialize", "run_suite")

ENV_FUNCTIONS = ("sample_initial", "transition", "reward", "emit_observation")
AGENT_METHODS = ("begin_episode", "act", "observe", "end_episode")
WEIGHT_FUNCTIONS = (
    "optll_update",
    "opmll_global_update",
    "opmll_select_supporting",
    "opmll_local_update",
)


class Patches:
    """Attribute replacements that restore() undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, had_own, old = self._undo.pop()
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def install_marks(patches, harness, marks):
    """Record in marks when the first episode starts and when run_suite
    returns.  The episode hook removes itself after its first call, so an
    untraced pass pays for it once."""
    run_episode = harness.run_episode
    run_suite = harness.run_suite

    def first_episode(*args, **kwargs):
        marks["first_episode"] = time.perf_counter()
        harness.run_episode = run_episode
        return run_episode(*args, **kwargs)

    def marked_run_suite(*args, **kwargs):
        try:
            return run_suite(*args, **kwargs)
        finally:
            marks["run_suite_end"] = time.perf_counter()

    patches.set(harness, "run_episode", first_episode)
    patches.set(harness, "run_suite", marked_run_suite)


class Tracer:
    """Per-call durations by span name and self time by layer, in ns.

    Agent spans are kept per agent class (``name@Class``), because a
    workload's learner and its baseline cost very different amounts per
    call and a median over both would describe neither.
    """

    def __init__(self):
        self.series = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.conf_set_sizes = array("q")
        self._stack = [[0, 0]]  # per open span: [child ns, weights ns]

    def _series(self, name):
        return self.series.setdefault(name, array("q"))

    def wrap(self, fn, name, layer, weights=False, record=None):
        durations = self._series(name)
        stack, self_ns, clock = self._stack, self.self_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                durations.append(dt)
                self_ns[layer] += dt - frame[0]
                parent = stack[-1]
                parent[0] += dt
                if weights:
                    parent[1] += dt
                if record is not None:
                    record(dt, frame, args)

        return traced

    def _record_episode(self, dt, frame, args):
        cls = type(args[0]).__name__
        self._series(f"agents.run_episode@{cls}").append(dt)
        self._series(f"agents.run_episode.self@{cls}").append(dt - frame[0])

    def _begin_recorder(self, cls):
        plan = self._series(f"agents.plan@{cls}")
        weights = self._series(f"agents.weights@{cls}")

        def record(dt, frame, args):
            plan.append(dt - frame[1])
            weights.append(frame[1])

        return record

    def _record_conf_set(self, dt, frame, args):
        self.conf_set_sizes.append(len(args[0].indices))

    def install(self, patches):
        from hsilab import agents, harness, oracle, pors

        def patch(owner, attr, name, layer, **kw):
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name, layer, **kw))

        for fn in ENV_FUNCTIONS:
            patch(agents, fn, f"envs.{fn}", "envs")
        patch(harness, "run_episode", "agents.run_episode", "agents",
              record=self._record_episode)
        for cls in (
            agents.EpsilonGreedySequenceAgent,
            agents.UniformRandomAgent,
            agents.FixedPolicyAgent,
            agents.OptllAgent,
            agents.OpmllAgent,
            pors.PorsAgent,
        ):
            name = cls.__name__
            for method in AGENT_METHODS:
                record = self._begin_recorder(name) if method == "begin_episode" else None
                patch(cls, method, f"agents.{method}@{name}", "agents", record=record)
        for fn in WEIGHT_FUNCTIONS:
            patch(agents, fn, "agents.weights_call", "agents", weights=True)
        patch(oracle, "optimal_value", "oracle.optimal_value", "oracle")
        patch(oracle, "evaluate_markov_policy", "oracle.evaluate_markov_policy", "oracle")
        patch(pors, "feedback_log_likelihood", "pors.feedback_log_likelihood", "pors")
        # policy_value_table looks it up in pors, the regret path in harness
        patch(pors, "evaluate_policy_value", "pors.evaluate_policy_value", "pors")
        patch(harness, "evaluate_policy_value", "pors.evaluate_policy_value", "pors")
        patch(pors, "optimistic_plan", "pors.optimistic_plan", "pors",
              record=self._record_conf_set)
        build = self.wrap(pors.PlanningContext.build, "pors.context_build", "pors")
        patches.set(pors.PlanningContext, "build", staticmethod(build))
        patch(harness, "load_candidates", "serialize.load_candidates", "serialize")
        for fn in ("load_config", "write_results_csv", "emit_plot_svg"):
            patch(harness, fn, f"harness.{fn}", "harness")
        patch(harness, "run_suite", "harness.run_suite", "run_suite")

    def summary(self):
        """Per span name: calls, median and p99 in µs, total in s; self
        seconds per layer; mean confidence-set size (None if never
        planned)."""
        spans = {}
        for name, durations in self.series.items():
            ns = np.frombuffer(durations, dtype=np.int64) if len(durations) else None
            spans[name] = {
                "calls": len(durations),
                "us": None if ns is None else float(np.median(ns)) / 1e3,
                "p99_us": None if ns is None else float(np.percentile(ns, 99)) / 1e3,
                "total_s": 0.0 if ns is None else float(ns.sum()) / 1e9,
            }
        sizes = self.conf_set_sizes
        return {
            "spans": spans,
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "conf_set_size_mean": float(np.mean(sizes)) if len(sizes) else None,
        }
