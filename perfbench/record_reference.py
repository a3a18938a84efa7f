"""Record reference.json: each workload's results.csv digest, V* and exact
counts at seeds 0..SEEDS-1, from one traced pass per seed.

usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: run.py fails
every later pass whose CSV or v_star differs from what is recorded here.
The counts are kept for comparison only; run.py reports how they moved.
"""

import json

import metrics
import run
from workloads import WORKLOADS

SEEDS = 32


def main():
    run.use_checkout_sources()
    reference = {}
    with run.work_dir() as work:
        for name, workload in WORKLOADS.items():
            reference[name] = {}
            for seed in range(SEEDS):
                config = run.prepare(workload, seed, work)
                p = run.run_pass(config, work / "pass", True, run.DEADLINE_S)
                if "error" in p:
                    raise SystemExit(f"{name} seed {seed}: {p['error']}")
                if p["csv_v_star"] != p["oracle"]["v_star"]:
                    raise SystemExit(f"{name} seed {seed}: CSV v_star disagrees")
                values = metrics.layer_values(p, workload.learner_class)
                reference[name][str(seed)] = {
                    "csv_sha256": p["csv_sha256"],
                    "v_star": p["csv_v_star"],
                    "counts": metrics.exact_counts(values),
                }
                print(name, seed, p["csv_sha256"])
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
