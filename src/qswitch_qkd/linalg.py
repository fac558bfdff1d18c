"""Dense complex linear algebra for small operator matrices.

Everything here operates on plain numpy ``complex128`` arrays.  Matrices in
this package never exceed 16x16 (three qubits plus a control qubit), so the
helpers favour explicit validation and clear error messages over speed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "as_matrix",
    "hermitian_eigenvalues",
]

# Inputs to hermitian_eigenvalues may deviate from exact Hermiticity by at
# most this much (max entrywise |A - A^dagger|).
HERMITIAN_ATOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitian_eigenvalues(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Rejects inputs whose Hermiticity deviation exceeds ``atol``; the error
    reports the largest offending entry.  The solver is numpy's iterative
    LAPACK path for Hermitian matrices, ample for the <=16x16 operators
    used here, and doubles as the positivity check for density matrices.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues require a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dagger| entry is {dev:.3e} "
            f"(tolerance {atol:.1e})"
        )
    vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return vals[::-1].astype(float)
