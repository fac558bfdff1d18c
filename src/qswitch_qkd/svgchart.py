"""Minimal deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so that identical
input data produces byte-identical output files (no timestamps, random
ids, or font probing).
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

__all__ = ["render_line_chart"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 24, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
# labels as character data: CR as a reference, which a parser does not fold into LF
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})


def _xml_text(label: str, what: str) -> str:
    """``label`` as XML character data.  No escape carries a code point outside XML 1.0's
    Char production (a C0 control but tab, LF and CR, a surrogate, U+FFFE or U+FFFF) into
    a document, so a label holding one is a ``ValueError`` naming it.  (A compiled ``re``
    class would allocate its 64K-entry charset map at import.)"""
    for c in label:
        if c < " " and c not in "\t\n\r" or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff":
            raise ValueError(f"{what} {label!r} holds U+{ord(c):04X}, "
                             "which an SVG (XML 1.0) cannot hold")
    return label.translate(_XML_TEXT)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Ticks over [lo, hi] at the finest step, 1, 2, 2.5, 5 or 10 x 10^k, spanning it in <= 6;
    ``hi > lo``, as ``render_line_chart`` checks each span to be at least the smallest normal."""
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= 6:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    # seven ticks at most fit; where the step is below the float spacing at t (5 at 1e17),
    # t moves on by one spacing, so the loop ends on every finite range
    while t <= hi + 1e-12 * span and len(ticks) < 7:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t = max(t + step, math.nextafter(t, math.inf))
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labelled (xs, ys) series to an SVG document string.  A label that holds a code
    point XML 1.0 cannot hold is a ``ValueError`` naming it."""
    if not series:
        raise ValueError("nothing to plot: no series given")
    xtext, ytext = _xml_text(xlabel, "x label"), _xml_text(ylabel, "y label")
    arrays = []  # (label, xs, ys), the label as XML character data, the values as float arrays
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has {len(xs)} x vs {len(ys)} y values")
        if len(xs) == 0:
            raise ValueError(f"series {label!r} is empty")
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series {label!r} has non-finite x or y values")
        arrays.append((_xml_text(label, "series"), xs, ys))

    x_lo = min(float(xs.min()) for _, xs, _ in arrays)
    x_hi = max(float(xs.max()) for _, xs, _ in arrays)
    y_lo = min(float(ys.min()) for _, _, ys in arrays)
    y_hi = max(float(ys.max()) for _, _, ys in arrays)
    data = {"x": (x_lo, x_hi), "y": (y_lo, y_hi)}  # to name in an error
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    for axis, span in (("x", x_hi - x_lo), ("y", y_hi - y_lo)):
        # an overflowing span has no scale, and one below the smallest normal float
        # underflows the tick step; equal values at 1e17 do not widen to a span at all
        if not sys.float_info.min <= span < math.inf:
            lo, hi = data[axis]
            raise ValueError(f"cannot scale the {axis} axis to values from {lo!r} to {hi!r}")

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
        f'font-size="13" text-anchor="middle">{xtext}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">{ytext}</text>'
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
