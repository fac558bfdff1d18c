import re

import numpy as np
import pytest

from qswitch_qkd.linalg import (RowError, as_matrix, hermitian_eigenvalues,
                                hermitian_eigenvalues_stack)
from qswitch_qkd.qstate import PAULI_X

# np.asarray(a, dtype=complex) parses a str entry and casts a bool one
NOT_NUMBERS = [[["1", "0"], ["0", "1"]], np.eye(2, dtype=bool), np.array([[1, 0], [0, 1]], dtype=object)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=["str", "bool", "object"])
def test_matrix_that_is_not_numeric_rejected_by_name(bad):
    dtype = np.asarray(bad).dtype
    with pytest.raises(ValueError, match=f"^price must hold numbers, got dtype {dtype}$"):
        as_matrix(bad, "price")
    with pytest.raises(ValueError, match=f"^matrix must hold numbers, got dtype {dtype}$"):
        hermitian_eigenvalues(bad)
    with pytest.raises(ValueError, match=f"^matrix stack must hold numbers, got dtype {dtype}$"):
        hermitian_eigenvalues_stack(np.asarray(bad)[None])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: as_matrix(np.ones(4), "price"), "price must be 2-D, got shape (4,)",
                 id="1-d"),
    pytest.param(lambda: as_matrix([[1, np.nan], [0, 1]], "price"),
                 "price contains non-finite entries", id="nan"),
    pytest.param(lambda: hermitian_eigenvalues(np.ones((2, 3))),
                 "eigenvalues require a square matrix, got shape (2, 3)", id="not-square"),
])
def test_matrix_of_wrong_shape_or_entries_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numeric_dtypes_are_matrices():
    for a in ([[1, 0], [0, 1]], np.eye(2, dtype=np.uint8), np.eye(2, dtype=np.float32), np.eye(2) + 0j):
        assert as_matrix(a).tolist() == np.eye(2, dtype=complex).tolist()


class TestHermitianEigenvalues:
    def test_diagonal(self):
        vals = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3, 2, 1])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(PAULI_X), [1, -1])

    def test_bell_correlation_gram(self):
        # T = diag(1, -1, 1) is the Pauli correlation matrix of the
        # maximally entangled pair; T^T T has a triple eigenvalue 1.
        t = np.diag([1.0, -1.0, 1.0])
        assert np.allclose(hermitian_eigenvalues(t.T @ t), [1, 1, 1], atol=1e-12)

    def test_non_hermitian_reports_deviation(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian.*1\\.0"):
            hermitian_eigenvalues(bad)

    def test_sum_equals_trace(self, rng):
        for _ in range(20):
            g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h = (g + g.conj().T) / 2
            vals = hermitian_eigenvalues(h)
            assert np.sum(vals) == pytest.approx(np.trace(h).real, abs=1e-9)

    def test_unitary_invariance(self, rng):
        from conftest import random_unitary

        for _ in range(20):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = (g + g.conj().T) / 2
            u = random_unitary(rng, 5)
            before = hermitian_eigenvalues(h)
            after = hermitian_eigenvalues(u @ h @ u.conj().T)
            assert np.max(np.abs(before - after)) < 1e-9

    def test_descending_order(self, rng):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        vals = hermitian_eigenvalues((g + g.conj().T) / 2)
        assert list(vals) == sorted(vals, reverse=True)


class TestHermitianEigenvaluesStack:
    def test_rows_equal_single_matrix_results(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        h = g + g.conj().transpose(0, 2, 1)
        vals = hermitian_eigenvalues_stack(h)
        for n in range(6):
            assert np.array_equal(vals[n], hermitian_eigenvalues(h[n]))

    def test_first_non_hermitian_row_is_named(self):
        stack = np.array([np.eye(2), [[0, 1], [0, 0]], [[0, 2], [0, 0]]], dtype=complex)
        with pytest.raises(RowError, match="entry is 1.000e[+]00") as info:
            hermitian_eigenvalues_stack(stack)
        assert info.value.row == 1
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stack_rejected(self, value):
        with pytest.raises(RowError, match="non-finite") as info:
            hermitian_eigenvalues_stack(np.full((1, 2, 2), value, dtype=complex))
        assert info.value.row == 0
        stack = np.array([np.eye(2)] * 3, dtype=complex)
        stack[2, 1, 1] = value  # a lone non-finite diagonal entry, Hermitian otherwise
        with pytest.raises(RowError, match="non-finite") as info:
            hermitian_eigenvalues_stack(stack)
        assert info.value.row == 2
