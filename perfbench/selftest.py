"""Self-test of the benchmark: every workload once at a tiny size.

usage: python3 perfbench/selftest.py

Runs each workload untraced and traced at 2 seeds x 30 episodes and checks
that every metric BENCHMARK.json names is reported, finite and in its
unit, that no pass failed, and that each per-layer metric applies to at
least one workload.  Takes about a minute; writes only under .bench_work.
"""

import json
import math
import sys

import run
from workloads import WORKLOADS

TINY = {"n_seeds": 2, "episodes": 30}


def check_metrics(reported, expected, where):
    missing = sorted(set(expected) - set(reported))
    extra = sorted(set(reported) - set(expected))
    assert not missing and not extra, f"{where}: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        metric = reported[name]
        assert metric["unit"] == unit, f"{where}: {name} in {metric['unit']}, not {unit}"
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{where}: {name} = {value!r}"
        )


def main():
    run.use_checkout_sources()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"]: m["unit"] for m in bench[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    assert declared[0] == run.metrics.END_TO_END, "end_to_end differs from metrics.py"
    assert declared[1] == run.metrics.PER_LAYER, "per_layer differs from metrics.py"
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)

    not_applicable = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            where = f"{name} trace={trace}"
            result, record = run.run_benchmark(name, 0, 0, trace, **TINY)
            assert result["correct"] and result["failed"] == 0, (
                f"{where}: " + "; ".join(
                    p["error"] for p in record["passes"] if "error" in p
                )
            )
            assert result["attempted"] >= 3, f"{where}: {result['attempted']} passes"
            check_metrics(result["metrics"], declared[trace], where)
            if trace:
                not_applicable[name] = set(record["not_applicable"])
            print(f"ok {where}: {result['attempted']} passes")
    dead = set.intersection(*not_applicable.values())
    assert not dead, f"metrics no workload exercises: {sorted(dead)}"
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
