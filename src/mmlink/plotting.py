"""Self-contained, byte-deterministic SVG line charts of sweep results.

No plotting library: the chart is assembled from fixed-format strings so
identical input always produces identical bytes. Each series' data
coordinates are embedded as an SVG comment, which lets tests (and users)
extract the exact plotted values back out of the file.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

from .montecarlo import CSV_HEADER

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 46, 58

PALETTE = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]

_NUMERIC_X = ("k_factor_db", "velocity_kmh", "snr_db", "pilot_k_p")


@dataclass(frozen=True)
class PlotSpec:
    csv_path: str
    x_param: str
    out_path: str
    title: str = ""


def read_results_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("results CSV is empty")
        missing = set(CSV_HEADER.split(",")) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"results CSV lacks columns: {', '.join(sorted(missing))}")
        rows = list(reader)
    if not rows:
        raise ValueError("results CSV has no data rows")
    return rows


def _series(rows: list[dict], x_param: str) -> list[tuple[str, list, list]]:
    if x_param not in _NUMERIC_X:
        raise ValueError(
            f"unknown x-axis column '{x_param}' (choose from {', '.join(_NUMERIC_X)})"
        )
    grouped: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in rows:
        point = (float(row[x_param]), float(row["se_mean"]))
        for column, value in zip((x_param, "se_mean"), point):
            if not math.isfinite(value):
                raise ValueError(
                    f"results CSV column {column} must be finite (got {row[column]!r})"
                )
        grouped.setdefault((row["method"], row["pilot_k_p"]), []).append(point)
    out = []
    perfect_keys = [k for k in grouped if k[0] == "perfect"]
    for method, k_p in sorted(grouped):
        pts = sorted(grouped[(method, k_p)])
        if method == "perfect" and len(perfect_keys) == 1:
            label = "perfect"
        else:
            label = f"{method} K_P={k_p}"
        out.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    return out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def render_chart(spec: PlotSpec) -> str:
    """Build the chart SVG as a string (LF line endings)."""
    rows = read_results_csv(spec.csv_path)
    series = _series(rows, spec.x_param)
    x_all = [x for _, xs, _ in series for x in xs]
    y_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(x_all), max(x_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo = 0.0
    y_hi = max(y_all) * 1.08 if max(y_all) > 0 else 1.0

    px_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    px_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
        return MARGIN_TOP + px_h - (y - y_lo) / (y_hi - y_lo) * px_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    ]
    for label, xs, ys in series:
        xs_txt = ",".join(f"{v:.6g}" for v in xs)
        ys_txt = ",".join(f"{v:.6g}" for v in ys)
        lines.append(f"<!-- series label={label} x={xs_txt} y={ys_txt} -->")
    lines.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if spec.title:
        lines.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" font-family="sans-serif" '
            f'font-size="16" text-anchor="middle">{spec.title}</text>'
        )

    axis_color = "#303030"
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + px_h
    x1, y1 = MARGIN_LEFT + px_w, MARGIN_TOP
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        lines.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP}" x2="{px:.2f}" y2="{y0}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{tick:.6g}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        lines.append(
            f'<line x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{tick:.6g}</text>'
        )
    lines.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="{axis_color}" '
        f'stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{axis_color}" '
        f'stroke-width="1.5"/>'
    )
    lines.append(
        f'<text x="{MARGIN_LEFT + px_w / 2:.2f}" y="{HEIGHT - 14}" '
        f'font-family="sans-serif" font-size="14" text-anchor="middle">'
        f"{spec.x_param}</text>"
    )
    lines.append(
        f'<text x="20" y="{MARGIN_TOP + px_h / 2:.2f}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {MARGIN_TOP + px_h / 2:.2f})">SE [bit/s/Hz]</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            lines.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                f'fill="{color}"/>'
            )

    legend_x, legend_y = x1 - 190, MARGIN_TOP + 8
    for i, (label, _, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ly = legend_y + 18 * i
        lines.append(
            f'<line x1="{legend_x}" y1="{ly:.2f}" x2="{legend_x + 24}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{legend_x + 30}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_chart(spec: PlotSpec) -> None:
    svg = render_chart(spec)
    with open(spec.out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


_SERIES_RE = re.compile(r"<!-- series label=(.*?) x=(.*?) y=(.*?) -->")


def extract_series(svg_text: str) -> dict[str, tuple[list[float], list[float]]]:
    """Recover the plotted data points from an SVG's embedded comments."""
    out = {}
    for match in _SERIES_RE.finditer(svg_text):
        label, xs, ys = match.groups()
        out[label] = (
            [float(v) for v in xs.split(",")],
            [float(v) for v in ys.split(",")],
        )
    return out
