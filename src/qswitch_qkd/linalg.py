"""Dense complex linear algebra for small operator matrices.

Everything here operates on plain numpy ``complex128`` arrays.  Matrices in
this package never exceed 16x16 (three qubits plus a control qubit), so the
helpers favour explicit validation and clear error messages over speed.

Checks run on stacks ``(N, d, d)`` of matrices at once.  A check that
fails raises :class:`RowError`, a ``ValueError`` that carries the index of
the first failing matrix in the stack; the single-matrix API is the N=1
case of the same code.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "RowError",
    "check_rows",
    "as_matrix",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
]

# Inputs to hermitian_eigenvalues may deviate from exact Hermiticity by at
# most this much (max entrywise |A - A^dagger|).
HERMITIAN_ATOL = 1e-10


class RowError(ValueError):
    """A check failed on one row of a stacked computation.

    ``row`` is the index of the failing row; the message is the one the
    single-row computation gives for it.
    """

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = int(row)


def check_rows(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise :class:`RowError` for the first row of the mask ``bad`` (rows along
    axis 0) that holds a ``True`` entry; ``message(row)`` gives the text."""
    if np.count_nonzero(bad):  # bad.any(), at a fraction of its call cost on small stacks
        row = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
        raise RowError(row, message(row))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitian_eigenvalues_stack(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Eigenvalues of each matrix in a finite ``(N, d, d)`` stack, each row sorted descending.

    Rejects a matrix whose Hermiticity deviation exceeds ``atol`` (see
    :func:`hermitian_eigenvalues`).
    """
    a = np.asarray(a, dtype=complex)
    a_dag = a.conj().transpose(0, 2, 1)
    dev = np.abs(a - a_dag).max(axis=(1, 2))
    check_rows(
        dev > atol,
        lambda i: f"matrix is not Hermitian: max |A - A^dagger| entry is {float(dev[i]):.3e} "
        f"(tolerance {atol:.1e})",
    )
    vals = np.linalg.eigvalsh((a + a_dag) / 2.0)
    return vals[:, ::-1].astype(float)


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
    return hermitian_eigenvalues_stack(a[None], atol)[0]
