"""The experiment harness and its command-line interface.

Experiments are described by small sectioned config files: one
[experiment] block (episodes, seeds, optional master-seed / output-dir /
regret-mode), one [env] block naming a builder and its parameters, and
one [algo] block per learner.  The harness derives an independent RNG
stream for every (algorithm, environment, seed) triple from the master
seed, so runs are reproducible byte for byte, results are independent of
execution order, and adding an algorithm never perturbs the others.

This script writes a config, runs it through the library API, prints the
summary, saves CSV and SVG, re-reads the CSV, and finally drives the
installed `hsilab` command line the same way.  Everything it writes goes
into a temporary directory that is removed when it ends.
"""

import pathlib
import subprocess
import sys
import tempfile

from hsilab import load_config, read_results_csv, run_suite, write_results_csv
from hsilab.harness import emit_plot_svg

CONFIG = """\
# uniform baseline vs the single-query learner on a seeded random
# independent-transition environment
[experiment]
episodes = 1500
seeds = 0,1,2

[env builder=random-class1]
d = 3
alphabet-size = 2
d-query = 1
horizon = 3
n-actions = 2
env-seed = 0

[algo name=uniform label=baseline]

[algo name=op-tll label=learner]
"""


def main(workdir):
    cfg_path = workdir / "suite.cfg"
    cfg_path.write_text(CONFIG, encoding="utf-8")
    print(f"config: {cfg_path}")
    print(CONFIG)

    # --- library API -------------------------------------------------------
    table = run_suite(load_config(str(cfg_path)))
    print(f"environment: {table.env_name}, optimal value {table.v_star:.3f}")
    print(f"regret mode: {table.regret_mode} (exact policy values per episode)")
    # A learner that flattens out shows a last/first-quarter regret ratio
    # well below the 4.0 of a policy that never improves.
    for algo, stats in sorted(table.summary().items()):
        print(
            f"  {algo:>8}: final regret {stats['mean_final_regret']:7.2f}"
            f" +- {stats['std_final_regret']:.2f},"
            f" last/first-quarter ratio {stats['mean_quarter_ratio']:.2f}"
        )

    csv_path = workdir / "results.csv"
    svg_path = workdir / "results.svg"
    write_results_csv(table, csv_path)
    emit_plot_svg(table, svg_path)
    print(f"wrote {csv_path} ({csv_path.stat().st_size} bytes)")
    print(f"wrote {svg_path} ({svg_path.stat().st_size} bytes)")

    reloaded = read_results_csv(csv_path)
    rows = list(reloaded.iter_rows())
    print(f"reloaded {len(rows)} rows; first: {rows[0]}")

    # --- command line ------------------------------------------------------
    # The installed console script exposes the same operations:
    #
    #   hsilab run suite.cfg -o outdir   execute a config, write CSV + SVG
    #   hsilab oracle suite.cfg          exact optimal value of the config's env
    #   hsilab verify groups d=3         structural checks for a named instance
    #   hsilab plot results.csv -o out.svg
    #
    # Exit codes: 0 success, 1 config/parameter error, 2 verification failure.
    print()
    print("=== the same via the CLI ===")
    for argv in (
        ["oracle", str(cfg_path)],
        ["verify", "groups", "d=3"],
        ["run", str(cfg_path), "-o", str(workdir / "cli-out")],
    ):
        cmd = [sys.executable, "-m", "hsilab", *argv]
        print(f"$ hsilab {' '.join(argv)}")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print("\n".join("  " + line for line in proc.stdout.strip().splitlines()))
        print(f"  (exit code {proc.returncode})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="hsilab-demo-") as tmp:
        main(pathlib.Path(tmp))
