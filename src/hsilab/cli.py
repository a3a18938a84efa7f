"""Command-line interface.

Subcommands: run (execute a config suite, write CSV + SVG), oracle (exact
optimal value of a config's environment), verify (structural checks for a
named instance), plot (re-plot an existing results CSV).  Exit codes:
0 success, 1 config or parameter error, 2 verification failure.
"""

import argparse
import os
import sys

import numpy as np

from .core import ConfigError, OracleSizeError
from . import harness, oracle


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="hsilab",
        description=(
            "Simulation laboratory for episodic decision processes with "
            "queried hindsight state feedback."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config and write CSV + SVG")
    p_run.add_argument("config", help="path to a sectioned config file")
    p_run.add_argument(
        "-o", "--output-dir", default=None, help="override the config output dir"
    )

    p_oracle = sub.add_parser(
        "oracle", help="exact optimal value of the config's environment"
    )
    p_oracle.add_argument("config", help="path to a sectioned config file")

    p_verify = sub.add_parser(
        "verify", help="structural checks for a named instance"
    )
    p_verify.add_argument("instance", help="groups | flat-emission | tree")
    p_verify.add_argument(
        "params", nargs="*", help="key=value parameters (e.g. d=3 d-query=2)"
    )

    p_plot = sub.add_parser("plot", help="re-plot a results CSV as SVG")
    p_plot.add_argument("csv", help="path to a results CSV")
    p_plot.add_argument("-o", "--output", required=True, help="SVG output path")
    return parser


def _cmd_run(args):
    cfg = harness.load_config(args.config)
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    table = harness.run_suite(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, "results.csv")
    svg_path = os.path.join(cfg.output_dir, "results.svg")
    harness.write_results_csv(table, csv_path)
    if table.regret_mode != "off":
        harness.emit_plot_svg(table, svg_path)
    print(f"env: {table.env_name}")
    print(f"regret_mode: {table.regret_mode}")
    if table.v_star is not None:
        print(f"v_star: {table.v_star:.9g}")
    for algo, stats in sorted(table.summary().items()):
        print(
            f"{algo}: mean_final_regret={stats['mean_final_regret']:.9g} "
            f"std_final_regret={stats['std_final_regret']:.9g} "
            f"mean_quarter_ratio={stats['mean_quarter_ratio']:.9g}"
        )
    print(f"wrote {csv_path}")
    if table.regret_mode != "off":
        print(f"wrote {svg_path}")
    return 0


def _cmd_oracle(args):
    cfg = harness.load_config(args.config)
    report = oracle.oracle_report(cfg.env_model, cap=cfg.oracle_cap)
    print(f"model: {report['model']}")
    print(f"v_star: {report['v_star']:.12g}")
    print(f"first_action: {report['first_action']}")
    print("first_query: " + ",".join(str(i) for i in report["first_query"]))
    print(f"nodes: {report['nodes']}")
    print(f"memo_hits: {report['memo_hits']}")
    print(f"node_cap: {report['node_cap']}")
    return 0


def _cmd_verify(args):
    params = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"verify parameters are key=value, got {item!r}")
        params[key] = value
    report = harness.verify_instance(args.instance, params)
    print(report.format())
    return 0 if report.passed else 2


def _cmd_plot(args):
    data = harness.read_results_csv(args.csv)
    # only an off-mode run writes nan regrets; the plot names that mode alone
    if data.regret_mode != "off" and data.runs and all(
        np.isnan(regrets).all() for *_, regrets in data.runs
    ):
        raise ConfigError(
            f"{args.csv}: every regret is nan, though the file declares "
            f"regret mode {data.regret_mode!r}"
        )
    harness.emit_plot_svg(data, args.output)
    print(f"wrote {args.output}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except harness.VerificationFailure as exc:
        print(f"verification failure:\n{exc}", file=sys.stderr)
        return 2
    except (ConfigError, OracleSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
