"""One pass of `hsilab run` on a config, in a process of its own.

usage: python3 perfbench/one_pass.py CONFIG OUT_DIR [--trace]

Timing starts after `import hsilab` and covers the whole command-line run
path (load_config, run_suite, write_results_csv, emit_plot_svg).  CPU time
and peak RSS are this process's own, so they belong to this pass alone.
An untraced pass also samples the core's speed while it runs, and every
pass reads the time the host stole from the machine's CPUs (speed.py).
Prints one JSON object on its last line of standard output.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hsilab import cli, harness, oracle  # noqa: E402

from speed import Sampler, stolen_seconds  # noqa: E402
from tracer import Patches, Tracer, install_marks  # noqa: E402


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def describe_csv(path):
    data = Path(path).read_bytes()
    v_star = None
    rows = -1  # the header line is not a row
    for line in data.decode("utf-8").splitlines():
        if line.startswith("# v_star="):
            v_star = line.partition("=")[2]
        elif not line.startswith("#"):
            rows += 1
    return {
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "csv_rows": rows,
        "csv_v_star": v_star,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    patches = Patches()
    marks = {}
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(patches)
    install_marks(patches, harness, marks)
    # a traced pass samples nothing: the kernel would land inside its spans
    sampler = None if args.trace else Sampler()
    if sampler is not None:
        sampler.start()
    steal0 = stolen_seconds()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", args.config, "-o", args.out_dir])
    finally:
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        steal1 = stolen_seconds()
        if sampler is not None:
            sampler.stop()
        patches.restore()
    if code != 0:
        sys.exit(f"hsilab run exited with code {code}")

    out = Path(args.out_dir)
    result = {
        "wall_s": t1 - t0,
        "setup_s": marks["first_episode"] - t0,
        "episode_phase_s": marks["run_suite_end"] - marks["first_episode"],
        "cpu_s": cpu1 - cpu0,
        "steal_s": steal1 - steal0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "svg_bytes": (out / "results.svg").stat().st_size,
        **describe_csv(out / "results.csv"),
    }
    if sampler is not None:
        result["speed"] = sampler.speed()
        result["speed_samples"] = len(sampler.samples)
    if tracer is not None:
        result["trace"] = tracer.summary()
        # outside the timed span: the oracle's tree statistics for this env
        cfg = harness.load_config(args.config)
        report = oracle.oracle_report(cfg.env_model, cap=cfg.oracle_cap)
        result["oracle"] = {
            "nodes": report["nodes"],
            "memo_hits": report["memo_hits"],
            "v_star": "%.9g" % report["v_star"],
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
