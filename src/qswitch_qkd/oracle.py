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

A ``(K, 3, 3)`` stack is scanned as ``3K`` planes.  Each plane's directions
and squared norms are built once for the half-turn grid; its coarse blocks
read slices of them, the floats a block would build from its own angles.
The refine rounds of all planes run as ``(3K, 41, 41)`` stacks.  Every
product and sum is the one a single plane's scan forms, so each value of a
stack equals, float for float, the call on that matrix alone.
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
_BLOCK_ROWS = 64  # coarse-scan rows per block: three (64, n) float arrays stay in cache
_REFINE_ROUNDS = 6  # local grids around the coarse maximum, each 1/8 as wide as the last


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
    # in place, so a coarse block holds three (n1, n2) arrays, not five
    cross = u1 @ u2.swapaxes(-1, -2)
    cross *= 2.0
    sq = sq1[..., :, None] + sq2[..., None, :]
    plus = sq + cross
    minus = np.subtract(sq, cross, out=sq)
    for v in (plus, minus):
        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
    plus += minus
    return plus


def _coarse_max(u: np.ndarray, sq: np.ndarray) -> tuple[int, int]:
    """Row and column of the first maximum, in row-major order, of one plane over its
    half-turn grid, from its upper triangle (module docstring); ``u`` and ``sq`` are the
    plane's ``(n, 3)`` directions and ``(n,)`` squared norms."""
    # the columns from a second buffer: numpy computes a product of a buffer with its own
    # transpose by another BLAS routine, and the scan's products must be those of gemm
    cols = u.copy()
    k1, k2, best = 0, 0, -1.0
    for r0 in range(0, len(u), _BLOCK_ROWS):
        r1 = r0 + _BLOCK_ROWS
        vals = _gram_value(u[r0:r1], sq[r0:r1], cols[r0:], sq[r0:])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best:
            k1, k2, best = r0 + i, r0 + j, vals[i, j]
    return k1, k2


def _correlations(rho_or_t) -> np.ndarray:
    """The ``(K, 3, 3)`` stack of correlation matrices to scan, checked to be finite and
    free of the y coupling the coordinate-plane search cannot handle."""
    if isinstance(rho_or_t, DensityMatrix):
        t = np.asarray(horodecki_bell_max(rho_or_t).t_matrix, dtype=float)
    else:
        t = np.asarray(rho_or_t, dtype=float)
    if t.shape[-2:] != (3, 3) or t.ndim not in (2, 3):
        raise ValueError(f"correlation matrix must be 3x3 or a (K, 3, 3) stack, got {t.shape}")
    t = t.reshape(-1, 3, 3)
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
    full turn (module docstring).  A correlation matrix with a non-finite
    entry, or one that couples the y axis to the x/z plane (outside this
    search's domain), raises :class:`~qswitch_qkd.linalg.RowError` naming
    the first such matrix of the stack.
    """
    t = _correlations(rho_or_t)
    # one row per (matrix, plane), matrix k's planes at rows 3k, 3k + 1 and 3k + 2; row i
    # of T is column i of T^t
    i, j = np.array(_PLANES).T
    ti, tj = t[:, i].reshape(-1, 3), t[:, j].reshape(-1, 3)
    n_planes = len(ti)
    angles = np.linspace(0.0, 2 * np.pi, _COARSE)[: (_COARSE + 1) // 2]  # [0, pi]
    centres = np.array([_coarse_max(*plane) for plane in zip(*_directions(ti, tj, angles))],
                       dtype=int).reshape(n_planes, 2)
    c1, c2 = angles[centres[:, 0]], angles[centres[:, 1]]
    width = angles[1] - angles[0]
    rows = np.arange(n_planes)
    for _ in range(_REFINE_ROUNDS):
        a1 = np.linspace(c1 - width, c1 + width, 41, axis=-1)
        a2 = np.linspace(c2 - width, c2 + width, 41, axis=-1)
        vals = _gram_value(*_directions(ti, tj, a1), *_directions(ti, tj, a2))
        k1, k2 = np.divmod(np.argmax(vals.reshape(n_planes, 41 * 41), axis=1), 41)
        c1, c2, value = a1[rows, k1], a2[rows, k2], vals[rows, k1, k2]
        width /= 8.0
    best = value.reshape(-1, len(_PLANES)).max(axis=1, initial=0.0)
    return best if np.ndim(rho_or_t) == 3 else float(best[0])
