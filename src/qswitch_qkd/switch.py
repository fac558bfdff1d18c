"""The quantum switch: two operations applied in a superposition of orders.

A control qubit decides the order: ``|0>`` applies the second operation
before the first, ``|1>`` the reverse; a superposed control puts the two
orderings in coherent superposition.  The switch is available in three
equivalent presentations:

* Kraus form on system (x) control (:func:`switch_kraus_ops`,
  :func:`apply_switch_full`);
* post-selected on a control measurement outcome |+> or |->, which applies
  the branch operator ``(UV +/- VU)/2`` and renormalizes
  (:func:`apply_switch_postselected`);
* control traced out, the probability-weighted mixture of the two branches
  (:func:`traced_switch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix
from .qstate import DensityMatrix, UnitaryGate

__all__ = [
    "KrausChannel",
    "ControlQubit",
    "SwitchSpec",
    "switch_kraus_ops",
    "apply_switch_full",
    "lambda_branch",
    "apply_switch_postselected",
    "traced_switch",
]


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel given by Kraus operators (sum K'K = I)."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(as_matrix(k, "Kraus operator") for k in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError(
                    f"Kraus operators must share one square shape; got {k.shape} vs ({d}, {d})"
                )
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > 1e-9:
            raise ValueError(f"channel is not trace preserving: |sum K'K - I| = {dev:.3e}")
        frozen = []
        for k in ops:
            k = k.copy()
            k.setflags(write=False)
            frozen.append(k)
        object.__setattr__(self, "operators", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class ControlQubit:
    """Order qubit amplitudes; defaults to |+> = (|0> + |1>)/sqrt(2)."""

    amp0: complex = 1 / np.sqrt(2)
    amp1: complex = 1 / np.sqrt(2)

    def __post_init__(self):
        a0, a1 = complex(self.amp0), complex(self.amp1)
        norm = abs(a0) ** 2 + abs(a1) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"control amplitudes are not normalized: {norm!r}")
        object.__setattr__(self, "amp0", a0)
        object.__setattr__(self, "amp1", a1)

    def density(self) -> np.ndarray:
        v = np.array([self.amp0, self.amp1], dtype=complex)
        return np.outer(v, v.conj())


def _as_kraus_list(op) -> tuple[np.ndarray, ...]:
    if isinstance(op, KrausChannel):
        return op.operators
    if isinstance(op, UnitaryGate):
        return (op.mat,)
    raise TypeError(f"expected KrausChannel or UnitaryGate, got {type(op).__name__}")


@dataclass(frozen=True)
class SwitchSpec:
    """A pair of operations plus the control qubit that orders them."""

    first: object
    second: object
    control: ControlQubit = field(default_factory=ControlQubit)

    def __post_init__(self):
        d1 = _as_kraus_list(self.first)[0].shape[0]
        d2 = _as_kraus_list(self.second)[0].shape[0]
        if d1 != d2:
            raise ValueError(f"switch operations act on different dimensions: {d1} vs {d2}")

    @property
    def dim(self) -> int:
        return _as_kraus_list(self.first)[0].shape[0]


def switch_kraus_ops(spec: SwitchSpec) -> list[np.ndarray]:
    """Kraus operators ``M_ij = E_i F_j (x) |0><0| + F_j E_i (x) |1><1|``.

    One operator per pair of Kraus elements of the two channels; the set
    satisfies ``sum M'M = I`` on system (x) control.
    """
    es = _as_kraus_list(spec.first)
    fs = _as_kraus_list(spec.second)
    p00 = np.array([[1, 0], [0, 0]], dtype=complex)
    p11 = np.array([[0, 0], [0, 1]], dtype=complex)
    return [np.kron(e @ f, p00) + np.kron(f @ e, p11) for e in es for f in fs]


def apply_switch_full(spec: SwitchSpec, rho: DensityMatrix) -> DensityMatrix:
    """Full switch output on system (x) control: S(rho (x) omega)."""
    d = int(np.prod(rho.dims))
    if d != spec.dim:
        raise ValueError(
            f"state dimension {d} does not match switch operation dimension {spec.dim}"
        )
    joint = np.kron(rho.mat, spec.control.density())
    out = np.zeros_like(joint)
    for m in switch_kraus_ops(spec):
        out += m @ joint @ m.conj().T
    return DensityMatrix(out, rho.dims + (2,))


def _branch_sign(branch) -> int:
    if branch in (+1, "+"):
        return +1
    if branch in (-1, "-"):
        return -1
    raise ValueError(f"branch must be '+'/'-' or +1/-1, got {branch!r}")


def _unitary_mat(u) -> np.ndarray:
    m = u.mat if isinstance(u, UnitaryGate) else as_matrix(u, "unitary")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    return m


def lambda_branch(u, v, branch) -> np.ndarray:
    """Branch operator ``(UV + VU)/2`` for '+', ``(UV - VU)/2`` for '-'."""
    um, vm = _unitary_mat(u), _unitary_mat(v)
    if um.shape != vm.shape:
        raise ValueError(f"dimension mismatch: {um.shape} vs {vm.shape}")
    sign = _branch_sign(branch)
    return (um @ vm + sign * vm @ um) / 2.0


def apply_switch_postselected(u, v, rho: DensityMatrix, branch) -> tuple[DensityMatrix, float]:
    """Switch two unitaries, post-selecting the control on |+> or |->.

    Returns the normalized branch state and its post-selection probability;
    the two branch probabilities sum to 1.  Requesting a branch whose
    probability vanishes raises a "branch unreachable" error.
    """
    lam = lambda_branch(u, v, branch)
    d = int(np.prod(rho.dims))
    if lam.shape[0] != d:
        raise ValueError(
            f"state dimension {d} does not match operator dimension {lam.shape[0]}"
        )
    out = lam @ rho.mat @ lam.conj().T
    prob = float(np.trace(out).real)
    if prob <= 1e-12:
        raise ValueError(
            f"branch unreachable: post-selection probability {prob:.3e} for branch {branch!r}"
        )
    return DensityMatrix(out / prob, rho.dims), prob


def traced_switch(u, v, rho: DensityMatrix) -> DensityMatrix:
    """Switch two unitaries and trace out the control.

    Equals the probability-weighted mixture of the two post-selected
    branches: ``L+ rho L+' + L- rho L-'``.
    """
    lp = lambda_branch(u, v, +1)
    lm = lambda_branch(u, v, -1)
    d = int(np.prod(rho.dims))
    if lp.shape[0] != d:
        raise ValueError(
            f"state dimension {d} does not match operator dimension {lp.shape[0]}"
        )
    out = lp @ rho.mat @ lp.conj().T + lm @ rho.mat @ lm.conj().T
    return DensityMatrix(out, rho.dims)
