"""hsilab benchmark: `hsilab run` end to end on three workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, so there is nothing to build.  The load is a closed loop:
one client runs passes one after another, as `hsilab run` does.  Each pass
is a fresh child process (perfbench/one_pass.py) so its CPU time and peak
RSS belong to it alone.  Passes repeat for about S seconds (at least
three; with --trace 1, at least two untraced and two traced passes,
alternating) and the reported figures are medians over the passes.

End-to-end times are reported in reference seconds: each untraced pass
samples the speed of its core while it runs (speed.py), its raw
perf_counter and rusage seconds are multiplied by that speed, and its
wall-clock spans leave out the share of the pass the host stole from the
virtual CPUs.  On a shared machine whose cores slow down by tens of
percent as other tenants come and go, raw seconds spread more between
runs than a regression bound can allow; the record carries them too, as
`raw_end_to_end`.

Every pass is checked.  Where reference.json records this workload and
seed, results.csv must match the recorded digest; on other seeds, every
pass of the run must write the same bytes.  The v_star in the CSV must
equal the V* recorded for the same env (on bandit-tree and pors-drift the
env does not depend on the seed), or, for an env never recorded, the
oracle's.  Traced passes must repeat every exact count across the run,
and their spans must cover the wall time; how the counts differ from the
recorded ones is reported in the record, not checked, since a faster
program may well change them.  A pass that raises or fails a check
counts in `failed`.

Standard output: one line per metric, a JSON record (provenance, per-pass
figures, not-applicable metrics), and as the last line the result
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# no new pass starts after LAST_START_S and every pass is stopped by
# DEADLINE_S, so a run ends inside 180 s
LAST_START_S = 110
DEADLINE_S = 160
MIN_PLAIN = 3
MIN_TRACED_PLAIN = 2
MIN_TRACED = 2


def use_checkout_sources():
    """Import hsilab from this checkout's src/, or exit if there is none."""
    if not (ROOT / "src" / "hsilab" / "__init__.py").is_file():
        sys.exit(f"no hsilab sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))


def provenance():
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "isolation": (
            "none: no CPU pinning, no cache drops, no cgroup changes; passes "
            "share the machine with whatever else runs on it"
        ),
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    parts = out.stdout.split()
    if out.returncode != 0 or len(parts) != 2 or Path(parts[0]).resolve() != ROOT:
        return None
    return parts[1]


@contextlib.contextmanager
def work_dir():
    """A scratch directory under .bench_work in the checkout, removed after."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()


def prepare(workload, seed, work, n_seeds=None, episodes=None):
    """Write the workload's config (and candidates file) into work."""
    from hsilab import controlled_drift_candidates
    from hsilab.serialize import dump_candidates

    candidates = None
    if workload.needs_candidates:
        candidates = work / "candidates.txt"
        dump_candidates(controlled_drift_candidates(), candidates)
    config = work / "suite.cfg"
    config.write_text(
        workload.config_text(seed, candidates, n_seeds, episodes), encoding="utf-8"
    )
    return config


def run_pass(config, out_dir, traced, timeout):
    """One pass in a child process; returns its result dict or an error."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), str(config), str(out_dir)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env.pop("HSILAB_MASTER_SEED", None)  # it would override the config's seed
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"pass timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
        return {"traced": traced, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def schedule(trace, seconds, started):
    """Kinds of the passes still to run: True for traced.  Once the minimum
    is met, a pass starts only if it should end less than half a pass after
    `seconds`, so that runs end near `seconds` on average."""
    n_plain = n_traced = 0
    while True:
        elapsed = time.perf_counter() - started
        if trace:
            short = n_plain < MIN_TRACED_PLAIN or n_traced < MIN_TRACED
        else:
            short = n_plain < MIN_PLAIN
        typical = elapsed / max(n_plain + n_traced, 1)
        if elapsed > LAST_START_S or (not short and elapsed + typical / 2 >= seconds):
            return
        traced = trace and n_traced < n_plain
        yield traced
        n_traced += traced
        n_plain += not traced


def fail(result, why):
    result.setdefault("error", why)


def majority(values):
    """The most common value; among equals, the first seen."""
    values = list(values)
    return max(values, key=values.count)


def check(passes, reference, v_star):
    """Mark each pass that fails an output check with an error; v_star is
    the value the CSV must carry."""
    done = [p for p in passes if "error" not in p]
    if reference:
        digest, other = reference["csv_sha256"], "the reference digest"
    else:
        digest = majority(p["csv_sha256"] for p in done) if done else None
        other = "the run's other passes"
    for p in done:
        if p["csv_sha256"] != digest:
            fail(p, "results.csv differs from " + other)
        if p["csv_v_star"] != v_star:
            fail(p, f"CSV v_star {p['csv_v_star']} != expected {v_star}")


def check_traced(traced, learner):
    """Exact counts must repeat across the run; spans must cover the wall
    time.  Returns the counts most passes gave."""
    counts = []
    for p in traced:
        values = metrics.layer_values(p, learner)
        if not metrics.unattributed_ok(values):
            fail(p, f"spans cover {1 - values['trace.unattributed_frac']:.4f} "
                    "of the traced wall time")
        counts.append(metrics.exact_counts(values))
    if not counts:
        return None
    expected = majority(counts)
    for p, c in zip(traced, counts):
        if c != expected:
            diff = sorted(k for k in c if c[k] != expected[k])
            fail(p, f"exact counts differ between passes: {', '.join(diff)}")
    return expected


def count_changes(counts, reference):
    """{name: [recorded, now]} for each exact count that differs from the
    recorded one."""
    if not counts or not reference:
        return {}
    return {
        k: [reference["counts"].get(k), v]
        for k, v in counts.items() if reference["counts"].get(k) != v
    }


def oracle_v_star(config):
    from hsilab import harness, oracle

    cfg = harness.load_config(str(config))
    return "%.9g" % oracle.oracle_report(cfg.env_model, cap=cfg.oracle_cap)["v_star"]


def recorded_v_star(workload, seed, recorded):
    """The V* recorded for this seed's env, or None.  V* depends on the env
    alone, so any recorded seed whose env section reads the same will do."""
    env = workload.env_section.format(seed=seed)
    for s, entry in recorded.items():
        if workload.env_section.format(seed=int(s)) == env:
            return entry["v_star"]
    return None


def run_benchmark(name, seed, seconds, trace, n_seeds=None, episodes=None):
    """Run passes of one workload; returns (result, record)."""
    workload = WORKLOADS[name]
    recorded = json.loads(REFERENCE.read_text()).get(name, {})
    sized = n_seeds is None and episodes is None
    reference = recorded.get(str(seed)) if sized else None
    v_star = recorded_v_star(workload, seed, recorded)
    with work_dir() as work:
        config = prepare(workload, seed, work, n_seeds, episodes)
        started = time.perf_counter()
        passes = [
            run_pass(config, work / f"pass-{i}", traced,
                     started + DEADLINE_S - time.perf_counter())
            for i, traced in enumerate(schedule(trace, seconds, started))
        ]
        measured_s = time.perf_counter() - started
        v_star_from = "oracle" if v_star is None else "reference"
        if v_star is None:
            reports = [p["oracle"]["v_star"] for p in passes if "oracle" in p]
            v_star = reports[0] if reports else oracle_v_star(config)

    check(passes, reference, v_star)
    # a failed check leaves a pass's timings valid; only a crash loses them
    completed = [p for p in passes if "wall_s" in p]
    plain = [p for p in completed if not p["traced"]]
    traced = [p for p in completed if p["traced"]]
    counts = check_traced(traced, workload.learner_class)
    failed = sum("error" in p for p in passes)
    if not plain or (trace and not traced):
        raise RuntimeError(
            "no pass completed: " + "; ".join(p["error"] for p in passes)
        )

    not_applicable = []
    if trace:
        values, not_applicable = metrics.per_layer(
            traced, plain, workload.learner_class
        )
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(plain)
        units = metrics.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "measured_s": measured_s,
        "error_rate": failed / len(passes),
        "v_star": v_star,
        "v_star_from": v_star_from,
        "reference_checked": reference is not None,
        "counts_changed_from_reference": count_changes(counts, reference),
        "raw_end_to_end": metrics.end_to_end(plain, scaled=False),
        "speed": statistics.median(p["speed"] for p in plain),
        "not_applicable": not_applicable,
        "provenance": provenance(),
        "passes": [
            {k: v for k, v in p.items() if k != "trace"} for p in passes
        ],
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    use_checkout_sources()
    result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        na = "  (not applicable)" if name in record["not_applicable"] else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{na}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} passes failed)")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
