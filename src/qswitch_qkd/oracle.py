"""Brute-force CHSH maximization over measurement angles.

A verification-only cross-check for :func:`~qswitch_qkd.metrics.horodecki_bell_max`:
it never touches the eigenvalue criterion.  For two observables per party
parameterized by directions a1, a2 on Alice's side, the best Bob choices
are analytic, leaving

    B(a1, a2) = |T^t a1 + T^t a2| + |T^t a1 - T^t a2|

to maximize over direction pairs, each norm taken in Gram form,
|u1 +- u2|^2 = |u1|^2 + |u2|^2 +- 2 u1.u2, so that one matrix product
u1^T u2 serves the whole grid of pairs.  Round-off can leave that sum a
few ulps below zero where u1 = -+u2 (for T = I the coarse scan meets such
pairs), so it is clamped at 0 before the square root; a NaN would
otherwise win ``np.argmax``.  The search scans the three Bloch
coordinate planes on a coarse grid and refines locally, which is exhaustive
whenever the correlation matrix couples the y axis to x/z only trivially —
true for every state in this package (all have real matrices).

Only half of each axis is scanned.  The direction of angle a + pi is minus
the direction of a, so u(a + pi) = -u(a), and B is unchanged when either
u1 or u2 changes sign: |-u1 + u2| + |-u1 - u2| = |u1 - u2| + |u1 + u2|.
Every cell of the [0, 2pi)^2 square therefore repeats a cell of [0, pi]^2
up to round-off.  ``_COARSE`` counts the points of the full turn,
``np.linspace(0, 2pi, _COARSE)``; the scan keeps its first
``(_COARSE + 1) // 2`` points, which end at pi, so it reads the same angle
floats and refines from the same step as a full-turn scan.

The first maximum of a plane in row-major order has ``k1 <= k2``: B is
symmetric, and so is every float of the Gram form, as both axes share one
angle grid (entry (k2, k1) is entry (k1, k2) with the operands of each
product and sum swapped), so a maximum below the diagonal repeats one above.

Only a band of that triangle is scored.  With M = [t_i t_j], m = (a1+a2)/2,
d = (a1-a2)/2 and e' = e(m + pi/2), u1 + u2 = 2 cos d M e(m) and u1 - u2 =
2 sin d M e'(m), so B = 2R cos(|d| - theta(m)), R = |M|_F, theta =
atan2(|M e'|, |M e|) in [0, pi/2].  Cell (k1, k2) of the grid of step
h = pi/(n-1) has m = s h/2 and |d| = |t| h/2, s = k1 + k2, t = k2 - k1; the
anti-diagonal s = n - 1 comes within h/2 of any theta, so the maximum is at
least 2R cos(h/2).  A value is off by at most kappa R, kappa = 2 sqrt(32 eps):
each Gram-form |u1 +- u2|^2 is off by at most about 18 eps R^2, its clamped
square root by sqrt(18 eps) R, with slack for the directions and angles.  So
the first maximum has ||t| h/2 - theta| <= acos(cos(h/2) - kappa) + kappa, the
last kappa for theta's own error (2 sqrt(8 eps) from the Gram entries of M):
h/2 + 3.9e-5 at 721 points, at most 2 values of t >= 0 per s.  Windows of
8 x 16 cells, clamped inside the grid (1 row or column would be a gemv, which
rounds otherwise), cover the band; each holds the full scan's floats, so
pruning can drop a cell but never add a value, and each plane keeps its first
maximum in row-major order.  A plane with R^2 below ``_R2_FLOOR``, where
squares can underflow, is scored whole.  Each matrix is first scaled by a
power of two to a largest entry in [0.5, 1), and its value back: exact for
normal numbers.

A plane that cannot hold its matrix's maximum is not scanned.  Every value of
plane p is at most its exact maximum 2R_p plus kappa R_p, below its ceiling
2R_p(1 + kappa).  A scanned plane q returns at least its floor 2R_q(cos(h/2) -
(rounds + 1) kappa): its coarse maximum is at least 2R_q cos(h/2) - kappa R_q,
and the grid of each refine round holds the last round's centre up to a few
ulps of angle, so the round returns at least the exact value there less kappa
R_q, and so at least the last round's value less 2 kappa R_q.  Six rounds lose
at most 12 kappa R_q, which leaves 2R_q(cos(h/2) - 6.5 kappa); the other half
kappa, 1.7e-7 R_q in value, covers the ulps of the centres (about 1e-15 R_q in
value), R = sqrt(|t_i|^2 + |t_j|^2) itself, off by a few eps R, and the
rounding of the two products compared.  So a plane whose ceiling lies below
the largest floor of its matrix's planes (at 721 points: R_p below R_max (1 -
1.1e-5)) returns less than another plane does.  It enters the matrix's maximum
as 0, and no value is below 0 (each is a sum of square roots), so the maximum
is the same float.  The largest-R plane meets its own floor, as 1 + kappa >
cos(h/2) - 7 kappa and a float product is monotone, so each matrix keeps it.
After the scaling that plane has R >= 1/2, so a plane whose squares underflow
(R below 1e-150) is dropped whatever the error of its R.  On verify's 7
SWAP-partner matrices 6 of the 21 planes go, plane (x, y) at every phi > 0.

A ``(K, 3, 3)`` stack is scanned as its ``3K`` planes less those skipped,
whose windows and refine stacks form the products and sums of a single
plane's scan, so each value of a stack equals, float for float, the call on
that matrix alone.
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
_BATCH = 128  # windows per batched product: three (128, 8, 16) float arrays, 0.4 MB
_R2_FLOOR = 1e-200  # |M|_F^2 below which a plane is scored whole: far above any underflow
_REFINE_ROUNDS = 6  # local grids around the coarse maximum, each 1/8 as wide as the last
_KAPPA = 2 * np.sqrt(32 * np.finfo(float).eps)  # round-off per unit R of a value and of theta


def _directions(ti: np.ndarray, tj: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions cos(angle)*axis_i + sin(angle)*axis_j mapped through T^t, one row per
    angle, and their squared norms.  ``ti`` and ``tj`` hold, per plane, columns i and j
    of T^t, shape ``(P, 3)``; ``angles`` is ``(n,)``, shared by every plane, or ``(P, n)``.
    The shapes returned are ``(P, n, 3)`` and ``(P, n)``."""
    u = np.cos(angles)[..., None] * ti[:, None, :] + np.sin(angles)[..., None] * tj[:, None, :]
    return u, (u * u).sum(axis=-1)


def _gram_value(u1: np.ndarray, sq1: np.ndarray, u2: np.ndarray, sq2: np.ndarray) -> np.ndarray:
    """|u1 + u2| + |u1 - u2| over every pair of rows of ``(..., n1, 3)`` and ``(..., n2, 3)``
    directions, shape ``(..., n1, n2)``, in Gram form clamped at 0 (module docstring)."""
    # in place, so a batch of windows holds three (..., n1, n2) arrays, not five
    cross = u1 @ u2.swapaxes(-1, -2)
    cross *= 2.0
    sq = sq1[..., :, None] + sq2[..., None, :]
    plus = sq + cross
    minus = np.subtract(sq, cross, out=sq)
    for v in (plus, minus):
        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
    plus += minus
    return plus


def _live_planes(r2: np.ndarray, step: float) -> np.ndarray:
    """Which of the ``3K`` planes, of squared norms ``r2``, can hold their matrix's maximum
    on a coarse grid of ``step``: the ceiling 2R(1 + kappa) of each plane against the largest
    floor 2R(cos(step/2) - (rounds + 1) kappa) of its matrix's planes (module docstring)."""
    r = np.sqrt(r2).reshape(-1, len(_PLANES))
    floor = r.max(axis=1, keepdims=True) * (np.cos(step / 2) - (_REFINE_ROUNDS + 1) * _KAPPA)
    return (r * (1 + _KAPPA) >= floor).ravel()


def _coarse_centres(r2: np.ndarray, diff: np.ndarray, b: np.ndarray, u: np.ndarray, sq: np.ndarray):
    """Row and column of each plane's first maximum on its grid, scored on its band's windows;
    the ``(P, 1)`` columns ``r2``, ``diff`` and ``b`` hold |M|_F^2, |t_i|^2 - |t_j|^2 and
    t_i.t_j."""
    n_planes, n = sq.shape
    step = np.pi / (n - 1)
    half_width = np.arccos(np.cos(step / 2) - _KAPPA) + _KAPPA
    s = np.arange(2 * n - 1)
    mean, wave = r2 / 2, diff / 2 * np.cos(s * step) + b * np.sin(s * step)
    theta = np.arctan2(np.sqrt(np.maximum(mean - wave, 0.0)), np.sqrt(np.maximum(mean + wave, 0.0)))
    lo = np.maximum(np.ceil((theta - half_width) * (2 / step)), 0.0).astype(int)
    lo += (lo - s) & 1  # t = k2 - k1 has the parity of s = k1 + k2
    hi = np.minimum(np.floor((theta + half_width) * (2 / step)), np.minimum(s, 2 * n - 2 - s))
    # each band cell marks its window; cells past hi mark the extra last row of windows
    covered = np.zeros((n_planes, -(-n // _ROWS) + 1, -(-n // _COLS)), dtype=bool)
    for t in lo + 2 * np.arange(int(np.max(hi - lo, initial=0)) // 2 + 1)[:, None, None]:
        covered[np.arange(n_planes)[:, None], np.where(t <= hi, (s - t) // (2 * _ROWS), -1),
                np.where(t <= hi, (s + t) // (2 * _COLS), 0)] = True
    covered = covered[:, :-1]
    covered[r2[:, 0] < _R2_FLOOR] = True
    plane, r0, c0 = np.unravel_index(np.flatnonzero(covered), covered.shape)
    r0, c0 = np.minimum(r0 * _ROWS, n - _ROWS), np.minimum(c0 * _COLS, n - _COLS)
    cell, top = np.zeros(len(plane), dtype=int), np.zeros(len(plane))  # each window's first maximum
    for w in range(0, len(plane), _BATCH):
        at = slice(w, w + _BATCH)
        r, c, p = r0[at, None] + np.arange(_ROWS), c0[at, None] + np.arange(_COLS), plane[at, None]
        vals = _gram_value(u[p, r], sq[p, r], u[p, c], sq[p, c]).reshape(len(p), _ROWS * _COLS)
        k = vals.argmax(axis=1)
        cell[at], top[at] = (r0[at] + k // _COLS) * n + c0[at] + k % _COLS, vals.max(axis=1)
    # by plane, then the largest value, then the first cell in row-major order
    first = np.lexsort((cell, -top, plane))[np.searchsorted(plane, np.arange(n_planes))]
    return np.divmod(cell[first], n)


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
    live = _live_planes(r2, width)  # planes that cannot hold the maximum are not scanned
    ti, tj, n_planes = ti[live], tj[live], np.count_nonzero(live)
    c1, c2 = (angles[k] for k in _coarse_centres(
        r2[live], (a - d)[live], b[live], *_directions(ti, tj, angles)))
    rows = np.arange(n_planes)
    for _ in range(_REFINE_ROUNDS):
        a1 = np.linspace(c1 - width, c1 + width, 41, axis=-1)
        a2 = np.linspace(c2 - width, c2 + width, 41, axis=-1)
        vals = _gram_value(*_directions(ti, tj, a1), *_directions(ti, tj, a2))
        k1, k2 = np.divmod(np.argmax(vals.reshape(n_planes, 41 * 41), axis=1), 41)
        c1, c2, value = a1[rows, k1], a2[rows, k2], vals[rows, k1, k2]
        width /= 8.0
    peak = np.zeros(len(live))  # a skipped plane enters as 0, below its matrix's kept planes
    peak[live] = value
    best = peak.reshape(-1, len(_PLANES)).max(axis=1, initial=0.0)
    check_rows(np.frexp(best)[1] + exponent > np.finfo(float).maxexp, lambda k: (
        f"CHSH value of correlation matrix {k} exceeds the float range"))
    best = np.ldexp(best, exponent)
    return best if np.ndim(rho_or_t) == 3 else float(best[0])
