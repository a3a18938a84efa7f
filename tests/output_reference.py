"""Row-wise references for the results writers.

``write_results_csv_reference`` and ``emit_plot_svg_reference`` are the
writers hsilab.harness had before it wrote from run columns: the CSV is
assembled from one formatted line per row and joined, and the plot reads
one (episode, regret) tuple per row, decimates point lists and takes the
mean line at every episode.  The column writers must produce the same
bytes.  ``table_rows`` is the per-row view of a ResultsTable they read.
"""

import math
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from hsilab.core import ConfigError
from hsilab.harness import (
    CSV_HEADER,
    MAX_PLOT_POINTS,
    SVG_PALETTE,
    ResultsTable,
    _tick_values,
)


def table_rows(table):
    """(algo, env, seed, episode, reward, cum_reward, regret) per episode,
    sorted by (algo, seed, episode); regret is NaN in off mode."""
    for run in table.sorted_runs():
        cum = np.cumsum(run.rewards)
        regret = table.run_regret(run)
        for idx in range(len(run.rewards)):
            yield (
                run.algo,
                table.env_name,
                run.seed,
                idx + 1,
                float(run.rewards[idx]),
                float(cum[idx]),
                float("nan") if regret is None else float(regret[idx]),
            )


def _rows(table):
    return table_rows(table) if isinstance(table, ResultsTable) else iter(table.rows)


def _fmt(x):
    return "%.9g" % x


def write_results_csv_reference(table, path):
    lines = [f"# regret_mode={table.regret_mode}"]
    if table.v_star is not None:
        lines.append(f"# v_star={_fmt(table.v_star)}")
    lines.append(CSV_HEADER)
    for algo, env, seed, episode, reward, cum, regret in table_rows(table):
        lines.append(
            f"{algo},{env},{seed},{episode},{_fmt(reward)},{_fmt(cum)},{_fmt(regret)}"
        )
    for algo, stats in sorted(table.summary().items()):
        lines.append(
            f"# summary algo={algo} "
            f"mean_final_regret={_fmt(stats['mean_final_regret'])} "
            f"std_final_regret={_fmt(stats['std_final_regret'])} "
            f"mean_quarter_ratio={_fmt(stats['mean_quarter_ratio'])}"
        )
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    return path


def _decimate(indices, limit=MAX_PLOT_POINTS):
    if len(indices) <= limit:
        return indices
    keep = np.unique(np.linspace(0, len(indices) - 1, limit).astype(int))
    return [indices[i] for i in keep]


def emit_plot_svg_reference(table, path):
    series = {}
    max_x = -math.inf
    regrets = []
    for algo, _env, seed, episode, _r, _c, regret in _rows(table):
        series.setdefault(algo, {}).setdefault(seed, []).append((episode, regret))
        max_x = max(max_x, episode)
        if not math.isnan(regret):
            regrets.append(regret)
    if not series:
        raise ConfigError("no rows to plot")
    if not regrets:
        raise ConfigError("no regret data to plot (regret reporting was off)")

    width, height = 760, 480
    left, right, top, bottom = 72, 180, 48, 56
    plot_w, plot_h = width - left - right, height - top - bottom
    max_y = max(regrets)
    lo_y = min(0.0, min(regrets))
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

    def polyline(points, color, opacity, width_px):
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
        return (
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-opacity="{opacity}" stroke-width="{width_px}" '
            f'points="{coords}"/>'
        )

    for idx, (algo, by_seed) in enumerate(sorted(series.items())):
        color = SVG_PALETTE[idx % len(SVG_PALETTE)]
        grids = []
        for seed in sorted(by_seed):
            pts = sorted(by_seed[seed])
            pts = [p for p in pts if not math.isnan(p[1])]
            if not pts:
                continue
            grids.append(dict(pts))
            parts.append(polyline(_decimate(pts), color, 0.25, 1))
        episodes = sorted(set().union(*grids)) if grids else []
        mean_pts = [
            (e, float(np.mean([g[e] for g in grids if e in g]))) for e in episodes
        ]
        if mean_pts:
            parts.append(polyline(_decimate(mean_pts), color, 1.0, 2))
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
