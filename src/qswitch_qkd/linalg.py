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

HERMITIAN_ATOL = 1e-10  # the largest |A - A^dagger| entry hermitian_eigenvalues accepts


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


def _as_complex(a, name: str) -> np.ndarray:
    """``a`` as a complex array.  A dtype other than int, unsigned, float or complex (a str,
    bool or object entry, which the cast would parse or coerce) raises ``ValueError`` naming
    ``name``, before the cast."""
    a = np.asarray(a)
    if a.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers, got dtype {a.dtype}")
    return a.astype(complex, copy=False)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array (:func:`_as_complex`), rejecting NaN/Inf entries."""
    m = _as_complex(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitian_eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix in an ``(N, d, d)`` stack, each row sorted descending.

    Rejects a stack that is not numeric (:func:`_as_complex`), then a matrix with a
    non-finite entry, or whose Hermiticity deviation exceeds :data:`HERMITIAN_ATOL`
    (see :func:`hermitian_eigenvalues`).
    """
    a = _as_complex(a, "matrix stack")
    check_rows(~np.isfinite(a), lambda i: "matrix contains non-finite entries")
    a_dag = a.conj().transpose(0, 2, 1)
    dev = np.abs(a - a_dag).max(axis=(1, 2))
    check_rows(
        dev > HERMITIAN_ATOL,
        lambda i: f"matrix is not Hermitian: max |A - A^dagger| entry is {float(dev[i]):.3e} "
        f"(tolerance {HERMITIAN_ATOL:.1e})",
    )
    vals = np.linalg.eigvalsh((a + a_dag) / 2.0)
    return vals[:, ::-1].astype(float)


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending.

    Rejects inputs whose Hermiticity deviation exceeds :data:`HERMITIAN_ATOL`;
    the error reports the largest offending entry.  The solver is
    ``np.linalg.eigvalsh``, ample for the <=16x16 operators used here.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues require a square matrix, got shape {a.shape}")
    return hermitian_eigenvalues_stack(a[None])[0]
