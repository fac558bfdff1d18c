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
"""

from __future__ import annotations

import numpy as np

from .metrics import horodecki_bell_max
from .qstate import DensityMatrix

__all__ = ["chsh_bruteforce"]

_PLANES = ((0, 2), (0, 1), (1, 2))


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


def chsh_bruteforce(rho_or_t, coarse: int = 721, refine_rounds: int = 6) -> float:
    """Maximum CHSH value found by scanning measurement directions.

    Accepts a two-qubit :class:`DensityMatrix` or a precomputed 3x3 real
    correlation matrix.  Raises if the correlation matrix couples the y
    axis to the x/z plane (outside this search's domain).
    """
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
    for axes in _PLANES:
        angles = np.linspace(0.0, 2 * np.pi, coarse)
        vals = _plane_value(t, axes, angles, angles)
        k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
        c1, c2 = angles[k1], angles[k2]
        width = angles[1] - angles[0]
        for _ in range(refine_rounds):
            a1 = np.linspace(c1 - width, c1 + width, 41)
            a2 = np.linspace(c2 - width, c2 + width, 41)
            vals = _plane_value(t, axes, a1, a2)
            k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
            c1, c2 = a1[k1], a2[k2]
            width /= 8.0
        best = max(best, float(vals[k1, k2]))
    return best
