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
up to round-off.  ``coarse`` counts the points of the full turn,
``np.linspace(0, 2pi, coarse)``; the scan keeps its first
``(coarse + 1) // 2`` points, which end at pi, so it reads the same angle
floats and refines from the same step as a full-turn scan.  ``coarse``
must be odd: only then does the grid hold pi, and with it the antipode of
each of its points.

The coarse scan covers only the upper triangle ``k1 <= k2`` of each plane,
in blocks of rows, and still finds the cell a full-square scan would.
B(a1, a2) is symmetric, and so is every float of the Gram form, because
both axes share one angle grid: entry (k2, k1) is entry (k1, k2) with
the operands of each product and sum swapped.  The first maximum in
row-major order therefore has ``k1 <= k2``; a maximum below the diagonal
repeats one in an earlier row.  Each block of rows is scanned against
the columns from its first row on, which hold every upper-triangle cell of
those rows, and a later block replaces the best cell only with a strictly
larger value, so the cell kept is the full square's first maximum.
"""

from __future__ import annotations

import numpy as np

from .metrics import horodecki_bell_max
from .qstate import DensityMatrix

__all__ = ["chsh_bruteforce"]

_PLANES = ((0, 2), (0, 1), (1, 2))
_BLOCK_ROWS = 64  # coarse-scan rows per block: three (64, n) float arrays stay in cache
_REFINE_ROUNDS = 6  # local grids around the coarse maximum, each 1/8 as wide as the last


def _plane_value(t: np.ndarray, axes: tuple[int, int], a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    i, j = axes
    # directions cos(angle)*axis_i + sin(angle)*axis_j mapped through T^t, one row per angle
    u1 = np.outer(np.cos(a1), t.T[:, i]) + np.outer(np.sin(a1), t.T[:, j])
    u2 = np.outer(np.cos(a2), t.T[:, i]) + np.outer(np.sin(a2), t.T[:, j])
    # |u1 +- u2|^2 in Gram form, clamped at 0 (see the module docstring);
    # in place, so a coarse scan holds three (n1, n2) arrays, not five
    cross = u1 @ u2.T
    cross *= 2.0
    sq = (u1 * u1).sum(axis=1)[:, None] + (u2 * u2).sum(axis=1)[None, :]
    plus = sq + cross
    minus = np.subtract(sq, cross, out=sq)
    for v in (plus, minus):
        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
    plus += minus
    return plus


def _coarse_max(t: np.ndarray, axes: tuple[int, int], angles: np.ndarray) -> tuple[int, int, float]:
    """Row, column and value of the first maximum, in row-major order, of the
    plane over ``angles`` x ``angles``, from its upper triangle (module docstring)."""
    k1, k2, best = 0, 0, -1.0
    for r0 in range(0, len(angles), _BLOCK_ROWS):
        vals = _plane_value(t, axes, angles[r0:r0 + _BLOCK_ROWS], angles[r0:])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best:
            k1, k2, best = r0 + i, r0 + j, vals[i, j]
    return k1, k2, best


def chsh_bruteforce(rho_or_t, coarse: int = 721) -> float:
    """Maximum CHSH value found by scanning measurement directions.

    Accepts a two-qubit :class:`DensityMatrix` or a precomputed 3x3 real
    correlation matrix.  ``coarse`` is the number of grid points over a
    full turn of each angle and must be odd and at least 3 (module
    docstring).  Raises if the correlation matrix couples the y axis to the
    x/z plane (outside this search's domain).
    """
    if coarse < 3 or coarse % 2 == 0:
        raise ValueError(
            f"coarse must be an odd number of points of at least 3, got {coarse}: "
            "the half-turn scan needs pi on the grid"
        )
    if isinstance(rho_or_t, DensityMatrix):
        t = np.asarray(horodecki_bell_max(rho_or_t).t_matrix, dtype=float)
    else:
        t = np.asarray(rho_or_t, dtype=float)
        if t.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {t.shape}")
    y_coupling = max(abs(t[0, 1]), abs(t[1, 0]), abs(t[1, 2]), abs(t[2, 1]))
    if y_coupling > 1e-8:
        raise ValueError(
            f"correlation matrix couples the y axis to x/z ({y_coupling:.3e}); "
            "the coordinate-plane scan would not be exhaustive"
        )

    best = 0.0
    angles = np.linspace(0.0, 2 * np.pi, coarse)[: (coarse + 1) // 2]  # [0, pi]
    for axes in _PLANES:
        k1, k2, value = _coarse_max(t, axes, angles)
        c1, c2 = angles[k1], angles[k2]
        width = angles[1] - angles[0]
        for _ in range(_REFINE_ROUNDS):
            a1 = np.linspace(c1 - width, c1 + width, 41)
            a2 = np.linspace(c2 - width, c2 + width, 41)
            vals = _plane_value(t, axes, a1, a2)
            k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
            c1, c2, value = a1[k1], a2[k2], vals[k1, k2]
            width /= 8.0
        best = max(best, float(value))
    return best
