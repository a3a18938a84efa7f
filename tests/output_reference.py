"""Row-wise references for the results writers and reader.

``write_results_csv_reference`` and ``emit_plot_svg_reference`` are the
writers hsilab.harness had before it wrote from run columns: the CSV is
assembled from one formatted line per row and joined, and the plot reads
one (episode, regret) tuple per row, decimates point lists and takes the
mean line at every episode.  The column writers must produce the same
bytes.  ``table_rows`` is the per-row view of a ResultsTable they read.

``read_results_csv_reference`` is the reader hsilab.harness had before it
parsed into run columns: it keeps every row as a 7-tuple and a set of the
(algo, seed, episode) keys seen.  ``rows_to_columns`` regroups its rows
into the (algo, seed, episodes, regrets) runs that ``read_results_csv``
must return, and both readers must refuse a file with the same message.
"""

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from hsilab.core import ConfigError
from hsilab.harness import (
    CSV_HEADER,
    MAX_PLOT_POINTS,
    MAX_TABLE_CELLS,
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


@dataclass
class CsvRows:
    """A results CSV as read_results_csv_reference parses it: its regret
    mode and its (algo, env, seed, episode, reward, cum_reward, regret)
    rows in file order."""

    regret_mode: str
    rows: list

    @property
    def env_name(self):
        return self.rows[0][1] if self.rows else ""


def rows_to_columns(rows):
    """(algo, seed, episodes, regrets) per (algo, seed) in sorted order,
    each run's points sorted by episode."""
    groups = {}
    for algo, _env, seed, episode, _reward, _cum, regret in rows:
        groups.setdefault((algo, seed), []).append((episode, regret))
    columns = []
    for (algo, seed), points in sorted(groups.items()):
        points.sort()
        episodes, regrets = zip(*points)
        columns.append((algo, seed, np.array(episodes), np.array(regrets)))
    return columns


def read_results_csv_reference(path):
    """Parse a results CSV.  Besides malformed lines, a row is refused
    (ConfigError naming file:line) when its regret is infinite (the NaN of
    off mode is accepted), its episode lies outside 1..MAX_TABLE_CELLS, or
    it repeats an (algo, seed, episode) of an earlier row.  A file is
    refused (ConfigError naming it) when its finite regrets are too far
    apart for the plot's scale, or too large for its mean over the runs,
    to be a float."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    mode = "expected"
    rows = []
    seen = set()
    header_seen = False
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# regret_mode="):
                mode = line.partition("=")[2].strip()
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ConfigError(
                    f"{path}:{lineno}: expected header {CSV_HEADER!r}, "
                    f"got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ConfigError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
        try:
            row = (
                parts[0],
                parts[1],
                int(parts[2]),
                int(parts[3]),
                float(parts[4]),
                float(parts[5]),
                float(parts[6]),
            )
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed row {line!r}") from None
        algo, _env, seed, episode, _reward, _cum, regret = row
        if not 1 <= episode <= MAX_TABLE_CELLS:
            raise ConfigError(
                f"{path}:{lineno}: episode must lie in 1..{MAX_TABLE_CELLS}, "
                f"got {episode}"
            )
        if math.isinf(regret):
            raise ConfigError(f"{path}:{lineno}: regret must be finite, got {regret}")
        if (algo, seed, episode) in seen:
            raise ConfigError(
                f"{path}:{lineno}: repeats episode {episode} of algo {algo!r}, "
                f"seed {seed}"
            )
        seen.add((algo, seed, episode))
        rows.append(row)
    if not header_seen:
        raise ConfigError(f"{path}: missing CSV header")
    regrets = [row[6] for row in rows if not math.isnan(row[6])]
    if regrets:
        # the plot spans min(0, lo)..hi and sums up to one regret per run;
        # max(hi - lo, -lo) bounds both the span and every |regret|
        lo, hi = min(0.0, min(regrets)), max(regrets)
        runs = len({(row[0], row[2]) for row in rows})
        if not math.isfinite(max(hi - lo, -lo) * runs):
            raise ConfigError(
                f"{path}: regrets from {lo!r} to {hi!r} over {runs} runs "
                "overflow the plot's scale"
            )
    return CsvRows(regret_mode=mode, rows=rows)


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
