"""The experiment harness and its command-line interface.

Experiments are described by small sectioned config files: one
[experiment] block (episodes, seeds, optional master-seed / output-dir /
regret-mode), one [env] block naming a builder and its parameters, and
one [algo] block per learner.  The harness derives an independent RNG
stream for every (algorithm, environment, seed) triple from the master
seed, so runs are reproducible byte for byte, results are independent of
execution order, and adding an algorithm never perturbs the others.

This script writes a config, runs it through the library API, prints the
summary, saves CSV and SVG, re-reads the CSV as per-run columns, and
finally drives the installed `hsilab` command line the same way, ending
with a nonzero exit code if any `hsilab` call does.  Everything it writes
goes into a temporary directory that is removed when it ends.
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

    # The reader parses each (algo, seed) run into an episode column and a
    # regret column, the same columns the plot draws.
    reloaded = read_results_csv(csv_path)
    print(f"reloaded {reloaded.env_name} ({reloaded.regret_mode} regret):")
    for algo, seed, episodes, regrets in reloaded.regret_columns():
        print(
            f"  {algo:>8} seed {seed}: episodes {episodes[0]}..{episodes[-1]},"
            f" final regret {regrets[-1]:.2f}"
        )

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
    failed = 0
    for argv in (
        ["oracle", str(cfg_path)],
        ["verify", "groups", "d=3"],
        ["run", str(cfg_path), "-o", str(workdir / "cli-out")],
        ["plot", str(workdir / "cli-out" / "results.csv"), "-o", str(workdir / "replot.svg")],
    ):
        cmd = [sys.executable, "-m", "hsilab", *argv]
        print(f"$ hsilab {' '.join(argv)}")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        for line in (proc.stdout + proc.stderr).strip().splitlines():
            print("  " + line)
        print(f"  (exit code {proc.returncode})")
        failed += proc.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="hsilab-demo-") as tmp:
        sys.exit(main(pathlib.Path(tmp)))
