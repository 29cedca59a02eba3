"""Plot the committed benchmark CSVs (SVG always, PNG when matplotlib exists).

Every ``benchmarks/results/*.csv`` becomes one chart under
``benchmarks/results/plots/``.  A small per-file spec picks the x column,
the y column and the series-grouping columns; files without a spec fall
back to plotting every numeric column against the row index.

The renderer is dependency-free: charts are written as hand-rolled SVG so
the script works on the bare CI image.  When matplotlib happens to be
installed, a PNG twin of each chart is emitted as well — there is no hard
dependency on it.

    python benchmarks/plot.py                    # all results/*.csv
    python benchmarks/plot.py results/BENCH_core.csv -o /tmp/plots
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

try:  # optional; the SVG path below never needs it
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover - depends on the host image
    plt = None

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: stem -> (x column, y column, series-grouping columns).  The series label
#: is the joined values of the grouping columns, one polyline per label.
SPECS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "BENCH_core": ("load", "ops_per_sec", ("phase", "batch", "backend")),
    "BENCH_core_highload_rows": (
        "load", "ops_per_sec", ("phase", "batch", "backend")),
    "BENCH_serve": ("workers", "ops_per_sec", ()),
    "BENCH_recovery": ("ops", "speedup", ()),
}

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _to_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def read_rows(csv_path: pathlib.Path) -> List[Dict[str, str]]:
    with open(csv_path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def build_series(
    rows: List[Dict[str, str]], stem: str
) -> Tuple[str, str, Dict[str, List[Tuple[float, float]]]]:
    """(x label, y label, {series label: sorted (x, y) points})."""
    spec = SPECS.get(stem)
    if spec is not None and rows and all(c in rows[0] for c in spec[:2]):
        x_col, y_col, group_cols = spec
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in rows:
            x, y = _to_float(row.get(x_col)), _to_float(row.get(y_col))
            if x is None or y is None:
                continue
            label = "/".join(str(row.get(col, "")) for col in group_cols
                             if row.get(col) not in (None, ""))
            series.setdefault(label or y_col, []).append((x, y))
        for points in series.values():
            points.sort()
        return x_col, y_col, series
    # fallback: every numeric column vs row index
    series = {}
    for row_index, row in enumerate(rows):
        for col, raw in row.items():
            y = _to_float(raw)
            if y is not None:
                series.setdefault(col, []).append((float(row_index), y))
    return "row", "value", series


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}".rstrip("0").rstrip(".")
    return f"{value:.3f}".rstrip("0").rstrip(".") or "0"


def render_svg(title: str, x_label: str, y_label: str,
               series: Dict[str, List[Tuple[float, float]]],
               width: int = 720, height: int = 440) -> str:
    """A minimal multi-series line chart as a standalone SVG document."""
    margin_l, margin_r, margin_t, margin_b = 80, 180, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    points = [p for pts in series.values() for p in pts]
    if not points:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="20" y="30">{title}: '
                f'no numeric data</text></svg>')
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_l}" y="24" font-size="15" '
        f'font-weight="bold">{title}</text>',
    ]
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{margin_l}" y1="{y:.1f}" '
                     f'x2="{margin_l + plot_w}" y2="{y:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" '
                     f'x2="{x:.1f}" y2="{margin_t + plot_h + 4}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin_t + plot_h + 18}" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    parts.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" '
                 f'y="{height - 10}" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{margin_t + plot_h / 2:.1f}" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{margin_t + plot_h / 2:.1f})">{y_label}</text>')
    for index, (label, pts) in enumerate(sorted(series.items())):
        color = PALETTE[index % len(PALETTE)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                         f'r="2.4" fill="{color}"/>')
        ly = margin_t + 14 + index * 16
        lx = margin_l + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_png(png_path: pathlib.Path, title: str, x_label: str,
               y_label: str,
               series: Dict[str, List[Tuple[float, float]]]) -> bool:
    if plt is None:
        return False
    figure, axes = plt.subplots(figsize=(8, 5))
    for label, pts in sorted(series.items()):
        axes.plot([p[0] for p in pts], [p[1] for p in pts],
                  marker="o", markersize=3, label=label)
    axes.set_title(title)
    axes.set_xlabel(x_label)
    axes.set_ylabel(y_label)
    axes.grid(True, alpha=0.3)
    axes.legend(fontsize=8, loc="best")
    figure.tight_layout()
    figure.savefig(png_path, dpi=120)
    plt.close(figure)
    return True


def plot_file(csv_path: pathlib.Path, out_dir: pathlib.Path) -> List[pathlib.Path]:
    rows = read_rows(csv_path)
    stem = csv_path.stem
    x_label, y_label, series = build_series(rows, stem)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    svg_path = out_dir / f"{stem}.svg"
    svg_path.write_text(
        render_svg(stem, x_label, y_label, series), encoding="utf-8")
    written.append(svg_path)
    png_path = out_dir / f"{stem}.png"
    if render_png(png_path, stem, x_label, y_label, series):
        written.append(png_path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="*", type=pathlib.Path,
                        help="result CSVs (default: all committed CSVs "
                             "under benchmarks/results/)")
    parser.add_argument("-o", "--out-dir", type=pathlib.Path,
                        default=RESULTS_DIR / "plots",
                        help="output directory (default: results/plots/)")
    args = parser.parse_args(argv)
    inputs = args.inputs or sorted(RESULTS_DIR.glob("*.csv"))
    if not inputs:
        print("plot: no CSV inputs found", file=sys.stderr)
        return 2
    status = 0
    for csv_path in inputs:
        try:
            written = plot_file(csv_path, args.out_dir)
        except (OSError, csv.Error) as error:
            print(f"plot: {csv_path}: {error}", file=sys.stderr)
            status = 1
            continue
        for path in written:
            print(f"{csv_path.name} -> {path}")
    if plt is None:
        print("plot: matplotlib not installed; SVG only", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
