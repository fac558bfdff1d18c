"""Minimal deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so that identical
input data produces byte-identical output files (no timestamps, random
ids, or font probing).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["render_line_chart"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 24, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labelled (xs, ys) series to an SVG document string."""
    if not series:
        raise ValueError("nothing to plot: no series given")
    arrays = []  # (label, xs, ys), the values as float arrays
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has {len(xs)} x vs {len(ys)} y values")
        if len(xs) == 0:
            raise ValueError(f"series {label!r} is empty")
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series {label!r} has non-finite x or y values")
        arrays.append((label, xs, ys))

    x_lo = min(float(xs.min()) for _, xs, _ in arrays)
    x_hi = max(float(xs.max()) for _, xs, _ in arrays)
    y_lo = min(float(ys.min()) for _, _, ys in arrays)
    y_hi = max(float(ys.max()) for _, _, ys in arrays)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # px and py take a float or, with the same float operations per entry, an array
    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        if not (x_lo - 1e-12 <= t <= x_hi + 1e-12):
            continue
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not (y_lo - 1e-12 <= t <= y_hi + 1e-12):
            continue
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5:.2f}" y1="{y:.2f}" x2="{_MARGIN_L:.2f}" '
            f'y2="{y:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt(t)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 10}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">{ylabel}</text>'
    )

    for k, (label, xs, ys) in enumerate(arrays):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(map("{:.2f},{:.2f}".format, px(xs).tolist(), py(ys).tolist()))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 18 * k
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
