"""Brute-force CHSH maximization over measurement angles.

A verification-only cross-check for :func:`~qswitch_qkd.metrics.horodecki_bell_max` that
never touches the eigenvalue criterion.  For directions a1, a2 on Alice's side the best Bob
choices are analytic, leaving B(a1, a2) = |T^t a1 + T^t a2| + |T^t a1 - T^t a2|, taken in
Gram form and clamped at 0, to maximize in the three Bloch coordinate planes: a coarse grid
of [0, pi]^2, then six local refine rounds.  Two prunings cut the cost: each plane scores
only the band of cells that can hold its first maximum, and a plane that cannot hold its
matrix's maximum is not scanned.  Neither adds a value: every value is the float the full
scan computes, for a single matrix and for a ``(K, 3, 3)`` stack alike.  The README section
"The CHSH oracle's scan" derives the grid, the band, the plane skipping and their margins.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_rows
from .metrics import horodecki_bell_max
from .qstate import DensityMatrix

__all__ = ["chsh_bruteforce"]

_PLANES = ((0, 2), (0, 1), (1, 2))
# Points of the coarse grid over a full turn of each angle, every half degree.  Odd, so
# that the grid holds pi, and with it the antipode of each of its points.
_COARSE = 721
_ROWS, _COLS = 8, 16  # rows and columns of each scored window of the coarse grid
_BATCH = 128  # windows per batched product, in one (128, 8, 16) buffer of 128 KiB
_REFINE_ROUNDS = 6  # local grids around the coarse maximum, each 1/8 as wide as the last
_KAPPA = 2 * np.sqrt(32 * np.finfo(float).eps)  # round-off per unit R of a value and of theta


def _directions(ti: np.ndarray, tj: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions cos(angle)*axis_i + sin(angle)*axis_j mapped through T^t, one row per
    angle, and their squared norms.  ``ti`` and ``tj`` hold, per plane, columns i and j
    of T^t, shape ``(P, 3)``; ``angles`` is ``(n,)``, shared by every plane, or ``(P, n)``.
    The shapes returned are ``(P, n, 3)`` and ``(P, n)``."""
    # built along the angle axis, then laid out by row; sq has the bits of (u*u).sum(-1)
    u = np.cos(angles) * ti.T[:, :, None] + np.sin(angles) * tj.T[:, :, None]
    sq = u[0] * u[0] + u[1] * u[1]
    sq += u[2] * u[2]
    return np.ascontiguousarray(u.transpose(1, 2, 0)), sq


def _gram_value(cross: np.ndarray, sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|u1 + u2| + |u1 - u2| in Gram form clamped at 0 (README), elementwise from the dot
    products ``cross`` = u1.u2 and the sums ``sq`` = |u1|^2 + |u2|^2, written to ``out``
    and returned; ``cross`` and ``sq`` are overwritten."""
    cross *= 2.0
    np.add(sq, cross, out=out)
    np.subtract(sq, cross, out=sq)
    for v in (out, sq):
        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
    out += sq
    return out


def _live_planes(r2: np.ndarray, step: float) -> np.ndarray:
    """Which of the ``3K`` planes, of squared norms ``r2``, can hold their matrix's maximum
    on a coarse grid of ``step``: the ceiling 2R(1 + kappa) of each plane against the largest
    floor 2R(cos(step/2) - (rounds + 1) kappa) of its matrix's planes (README)."""
    r = np.sqrt(r2).reshape(-1, len(_PLANES))
    floor = r.max(axis=1, keepdims=True) * (np.cos(step / 2) - (_REFINE_ROUNDS + 1) * _KAPPA)
    return (r * (1 + _KAPPA) >= floor).ravel()


def _band(r2: np.ndarray, diff: np.ndarray, b: np.ndarray, n: int):
    """Plane, row and column of each cell of the band that can hold each plane's first
    maximum on a grid of ``n`` angles (README); the ``(P, 1)`` columns ``r2``, ``diff`` and
    ``b`` hold |M|_F^2, |t_i|^2 - |t_j|^2 and t_i.t_j."""
    step = np.pi / (n - 1)
    half_width = np.arccos(np.cos(step / 2) - _KAPPA) + _KAPPA
    s = np.arange(2 * n - 1)
    mean, wave = r2 / 2, diff / 2 * np.cos(s * step) + b * np.sin(s * step)
    theta = np.arctan2(np.sqrt(np.maximum(mean - wave, 0.0)), np.sqrt(np.maximum(mean + wave, 0.0)))
    lo = np.maximum(np.ceil((theta - half_width) * (2 / step)), 0.0).astype(int)
    lo += (lo - s) & 1  # t = k2 - k1 has the parity of s = k1 + k2
    hi = np.minimum(np.floor((theta + half_width) * (2 / step)), np.minimum(s, 2 * n - 2 - s))
    t = lo + 2 * np.arange(int(np.max(hi - lo, initial=0)) // 2 + 1)[:, None, None]
    band = t <= hi
    _, p, i = np.nonzero(band)
    s, t = s[i], t[band]
    return p, (s - t) // 2, (s + t) // 2


def _coarse_centres(r2: np.ndarray, diff: np.ndarray, b: np.ndarray, u: np.ndarray, sq: np.ndarray):
    """Row and column of each plane's first maximum on its grid, scored on its band's cells
    (arguments as for :func:`_band`)."""
    n_planes, n = sq.shape
    p, k1, k2 = _band(r2, diff, b, n)
    # each band cell lies in one window of _ROWS x _COLS cells, clamped inside the grid, of
    # flat id (plane * n_r + row block) * n_c + column block, whose product gives its cross
    # term; sorted by window, then by cell k1 * n + k2, the cells run plane by plane
    n_r, n_c = -(-n // _ROWS), -(-n // _COLS)
    key = ((p * n_r + k1 // _ROWS) * n_c + k2 // _COLS) * (n * n) + k1 * n + k2
    key.sort()
    window, cell = np.divmod(key, n * n)
    new = np.diff(window, prepend=-1) != 0
    first = np.flatnonzero(new)  # each window's first cell
    p, rows, cols = np.unravel_index(window[first], (n_planes, n_r, n_c))
    r0, c0 = np.minimum(rows * _ROWS, n - _ROWS), np.minimum(cols * _COLS, n - _COLS)
    window = np.cumsum(new) - 1  # numbered 0, 1, ... in order
    k1, k2 = np.divmod(cell, n)
    place = (window * _ROWS + k1 - r0[window]) * _COLS + k2 - c0[window]  # in the products
    u, sq = u.reshape(-1, 3), sq.ravel()  # row p * n + k: direction k of plane p
    r, c = ((p * n + x)[:, None] + np.arange(m) for x, m in ((r0, _ROWS), (c0, _COLS)))
    cross, work = np.empty(len(key)), np.empty((_BATCH, _ROWS, _COLS))
    for w in range(0, len(first), _BATCH):
        batch = slice(w, w + _BATCH)
        np.matmul(u.take(r[batch], axis=0), u.take(c[batch], axis=0).swapaxes(-1, -2),
                  out=work[:len(r[batch])])
        cells = slice(first[w], first[w + _BATCH] if w + _BATCH < len(first) else len(key))
        cross[cells] = work.take(place[cells] - w * _ROWS * _COLS)
    p = p[window]
    vals = _gram_value(cross, sq.take(p * n + k1) + sq.take(p * n + k2), np.empty(len(key)))
    # each plane's largest value, then its first cell in row-major order
    starts = np.searchsorted(p, np.arange(n_planes))
    cell = np.where(vals == np.maximum.reduceat(vals, starts)[p], cell, n * n)
    return np.divmod(np.minimum.reduceat(cell, starts), n)


def _correlations(rho_or_t) -> np.ndarray:
    """The ``(K, 3, 3)`` stack of correlation matrices to scan, checked to be finite and
    free of the y coupling the coordinate-plane search cannot handle."""
    if isinstance(rho_or_t, DensityMatrix):
        t = np.asarray(horodecki_bell_max(rho_or_t).t_matrix, dtype=float)
    else:
        t = np.asarray(rho_or_t)
        if t.dtype.kind not in "iuf":  # int, unsigned or float
            raise ValueError(f"correlation matrix must hold real numbers, got dtype {t.dtype}")
    if t.shape[-2:] != (3, 3) or t.ndim not in (2, 3):
        raise ValueError(f"correlation matrix must be 3x3 or a (K, 3, 3) stack, got {t.shape}")
    t = t.reshape(-1, 3, 3).astype(float)
    check_rows(~np.isfinite(t), lambda k: "correlation matrix contains non-finite entries")
    coupling = np.abs(t[:, [0, 1, 1, 2], [1, 0, 2, 1]]).max(axis=1)
    check_rows(coupling > 1e-8, lambda k: (
        f"correlation matrix couples the y axis to x/z ({coupling[k]:.3e}); "
        "the coordinate-plane scan would not be exhaustive"))
    return t


def chsh_bruteforce(rho_or_t) -> float | np.ndarray:
    """Maximum CHSH value found by scanning measurement directions.

    Accepts a two-qubit :class:`DensityMatrix` or a precomputed 3x3 real
    correlation matrix, and returns a float; a ``(K, 3, 3)`` stack of
    correlation matrices gives a ``(K,)`` array whose entry ``k`` equals
    the call on matrix ``k``.  The coarse grid is ``_COARSE`` points per
    full turn, and planes that cannot hold the maximum are skipped (module
    docstring).  A correlation matrix of ints or floats
    with a non-finite entry, or one that couples the y axis to the x/z plane
    (outside this search's domain), or whose CHSH value exceeds the float range,
    raises :class:`~qswitch_qkd.linalg.RowError` naming the first such matrix of the
    stack; any other dtype is a ValueError.
    """
    t = _correlations(rho_or_t)
    exponent = np.frexp(np.abs(t).max(axis=(1, 2), initial=0.0))[1]
    t = np.ldexp(t, -exponent[:, None, None])
    # one row per (matrix, plane), matrix k's planes at rows 3k, 3k + 1 and 3k + 2; row i
    # of T is column i of T^t
    i, j = np.array(_PLANES).T
    ti, tj = t[:, i].reshape(-1, 3), t[:, j].reshape(-1, 3)
    a, b, d = ((x * y).sum(axis=1, keepdims=True) for x, y in ((ti, ti), (ti, tj), (tj, tj)))
    r2 = a + d  # R^2 = |M|_F^2, from M^T M = [[a, b], [b, d]]
    angles = np.linspace(0.0, 2 * np.pi, _COARSE)[: (_COARSE + 1) // 2]  # [0, pi]
    width = angles[1] - angles[0]
    live = _live_planes(r2, width)  # the rest cannot hold the maximum; kept: R^2 ~ 1/4 or T = 0
    ti, tj, n_planes = ti[live], tj[live], np.count_nonzero(live)
    # rows p and P + p of each refine grid: plane p's first and second angle
    centres = angles[np.concatenate(_coarse_centres(
        r2[live], (a - d)[live], b[live], *_directions(ti, tj, angles)))]
    ti, tj = np.tile(ti, (2, 1)), np.tile(tj, (2, 1))
    rows, (cross, sums, vals) = np.arange(2 * n_planes), np.empty((3, n_planes, 41, 41))
    for _ in range(_REFINE_ROUNDS):
        grid = np.linspace(centres - width, centres + width, 41, axis=-1)
        u, sq = _directions(ti, tj, grid)
        np.matmul(u[:n_planes], u[n_planes:].swapaxes(-1, -2), out=cross)
        np.add(sq[:n_planes, :, None], sq[n_planes:, None, :], out=sums)
        _gram_value(cross, sums, vals)
        k1, k2 = np.divmod(np.argmax(vals.reshape(n_planes, 41 * 41), axis=1), 41)
        centres, value = grid[rows, np.concatenate((k1, k2))], vals[rows[:n_planes], k1, k2]
        width /= 8.0
    peak = np.zeros(len(live))  # a skipped plane enters as 0, below its matrix's kept planes
    peak[live] = value
    best = peak.reshape(-1, len(_PLANES)).max(axis=1, initial=0.0)
    check_rows(np.frexp(best)[1] + exponent > np.finfo(float).maxexp, lambda k: (
        f"CHSH value of correlation matrix {k} exceeds the float range"))
    best = np.ldexp(best, exponent)
    return best if np.ndim(rho_or_t) == 3 else float(best[0])
