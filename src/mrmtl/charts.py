"""Minimal self-contained SVG line charts for sweep results.

Only needs to draw simple line plots (accuracy vs threshold, delay vs
threshold, accuracy vs delay), so everything is hand-assembled SVG text
with fixed margins and nice-number ticks.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 420
MARGIN = {"left": 64, "right": 20, "top": 40, "bottom": 48}
COLORS = ["#1f6fb2", "#c0392b", "#27903f", "#8e44ad"]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


def render_line_chart(series: list[tuple[str, list[float], list[float]]],
                      title: str, xlabel: str, ylabel: str) -> str:
    """Render one or more (label, xs, ys) series to an SVG string."""
    if not series:
        raise ValueError("no series to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{py0}" x2="{x:.1f}" y2="{py1}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{py0 + 18}" text-anchor="middle" '
                     f'font-size="11">{_fmt_tick(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        y = sy(t)
        parts.append(f'<line x1="{px0}" y1="{y:.1f}" x2="{px1}" y2="{y:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 6}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{_fmt_tick(t)}</text>')
    parts.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
                 f'fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{(px0 + px1) / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(py0 + py1) / 2}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 16 {(py0 + py1) / 2})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        ly = py1 + 16 + 16 * i
        parts.append(f'<line x1="{px1 - 110}" y1="{ly - 4}" x2="{px1 - 86}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{px1 - 80}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_sweep_charts(rows: list[dict], out_dir) -> list[Path]:
    """Write the three standard sweep views as SVG files."""
    if not rows:
        raise ValueError("empty sweep")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deltas = [r["delta"] for r in rows]
    accs = [r["accuracy"] for r in rows]
    delays = [r["avg_delay"] for r in rows]
    charts = [
        ("accuracy_vs_threshold.svg",
         [("accuracy", deltas, accs)],
         "Task accuracy vs escalation threshold", "threshold", "accuracy"),
        ("delay_vs_threshold.svg",
         [("avg delay", deltas, delays)],
         "Average delay vs escalation threshold", "threshold", "channel uses"),
        ("accuracy_vs_delay.svg",
         [("accuracy", delays, accs)],
         "Task accuracy vs average delay", "channel uses", "accuracy"),
    ]
    paths = []
    for name, series, title, xl, yl in charts:
        path = out / name
        path.write_text(render_line_chart(series, title, xl, yl))
        paths.append(path)
    return paths
