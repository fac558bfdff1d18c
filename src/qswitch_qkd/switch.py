"""The quantum switch: two operations applied in a superposition of orders.

A control qubit decides the order: ``|0>`` applies the second operation
before the first, ``|1>`` the reverse; a superposed control puts the two
orderings in coherent superposition (Chiribella, D'Ariano, Perinotti and
Valiron, PRA 88, 022318 (2013)).  The switch is available in three
equivalent presentations:

* Kraus form on system (x) control (:func:`switch_kraus_ops`,
  :func:`apply_switch_full`);
* post-selected on a control measurement outcome |+> or |->, which applies
  the branch operator ``(UV +/- VU)/2`` and renormalizes
  (:func:`apply_switch_postselected`);
* control traced out, the probability-weighted mixture of the two branches
  (:func:`traced_switch`).

Every presentation also runs on stacks: ``(N, d, d)`` arrays of unitaries
and density matrices, or ``(N, K, d, d)`` arrays holding one Kraus set per
row (:func:`lambda_branch_stack`, :func:`switch_branch_stack`,
:func:`apply_switch_postselected_stack`, :func:`traced_switch_stack`,
:func:`switch_kraus_stack`, :func:`apply_switch_full_stack`,
:func:`check_kraus_stack`).  Each single-matrix function is the N=1 case of
its stack form, so row ``n`` of a stack result equals the single-matrix
result for row ``n``.  Stack forms take plain arrays and return them
unvalidated; a check that fails raises :class:`~qswitch_qkd.linalg.RowError`
naming the first failing row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, check_rows
from .qstate import DensityMatrix, UnitaryGate, _frozen_array

__all__ = [
    "KrausChannel",
    "ControlQubit",
    "SwitchSpec",
    "check_kraus_stack",
    "switch_kraus_stack",
    "switch_kraus_ops",
    "apply_switch_full_stack",
    "apply_switch_full",
    "lambda_branch_stack",
    "lambda_branch",
    "switch_branch_stack",
    "apply_switch_postselected_stack",
    "apply_switch_postselected",
    "traced_switch_stack",
    "traced_switch",
]


def _dagger(mats: np.ndarray) -> np.ndarray:
    return mats.conj().swapaxes(-1, -2)


def check_kraus_stack(ops: np.ndarray) -> None:
    """Validate an ``(N, K, d, d)`` stack of Kraus sets: each trace preserving to 1e-9."""
    total = (_dagger(ops) @ ops).sum(axis=1)
    dev = np.abs(total - np.eye(ops.shape[-1])).max(axis=(1, 2))
    check_rows(
        ~(dev <= 1e-9),  # NaN fails too
        lambda i: f"channel is not trace preserving: |sum K'K - I| = {float(dev[i]):.3e}",
    )


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
        check_kraus_stack(np.array(ops)[None])
        object.__setattr__(self, "operators", tuple(map(_frozen_array, ops)))


@dataclass(frozen=True)
class ControlQubit:
    """Order qubit amplitudes; defaults to |+> = (|0> + |1>)/sqrt(2).  Each must be one
    int, float or complex number (``complex`` would parse a str and take a bool)."""

    amp0: complex = 1 / np.sqrt(2)
    amp1: complex = 1 / np.sqrt(2)

    def __post_init__(self):
        for name in ("amp0", "amp1"):
            amp = getattr(self, name)
            if np.ndim(amp) or np.asarray(amp).dtype.kind not in "iufc":
                raise ValueError(f"control amplitude {name} must be a number, got {amp!r}")
        a0, a1 = complex(self.amp0), complex(self.amp1)
        norm = abs(a0) ** 2 + abs(a1) ** 2
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
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


def _kraus_stacks(spec: SwitchSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two Kraus sets of ``spec`` as ``(1, K, d, d)`` stacks."""
    return np.array(_as_kraus_list(spec.first))[None], np.array(_as_kraus_list(spec.second))[None]


def switch_kraus_stack(es: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """:func:`switch_kraus_ops` for Kraus stacks ``es`` ``(N, K, d, d)`` and ``fs``
    ``(N, L, d, d)``: an ``(N, K*L, 2d, 2d)`` stack, ordered ``M_00, M_01, ...``."""
    n, k, d, _ = es.shape
    l = fs.shape[1]
    # E_i F_j on the |0><0| block and F_j E_i on the |1><1| block; the
    # entries np.kron would multiply by 0 are left at 0
    m = np.zeros((n, k, l, d, 2, d, 2), dtype=complex)
    m[..., 0, :, 0] = es[:, :, None] @ fs[:, None, :]
    m[..., 1, :, 1] = fs[:, None, :] @ es[:, :, None]
    return m.reshape(n, k * l, 2 * d, 2 * d)


def switch_kraus_ops(spec: SwitchSpec) -> list[np.ndarray]:
    """Kraus operators ``M_ij = E_i F_j (x) |0><0| + F_j E_i (x) |1><1|``.

    One operator per pair of Kraus elements of the two channels; the set
    satisfies ``sum M'M = I`` on system (x) control.
    """
    return list(switch_kraus_stack(*_kraus_stacks(spec))[0])


def apply_switch_full_stack(
    es: np.ndarray, fs: np.ndarray, mats: np.ndarray, control: ControlQubit
) -> np.ndarray:
    """:func:`apply_switch_full` for Kraus stacks ``es``, ``fs`` and an ``(N, d, d)``
    stack of states: the ``(N, 2d, 2d)`` outputs on system (x) control."""
    n, d, _ = mats.shape
    # rho (x) omega, the products np.kron forms
    joint = (mats[:, :, None, :, None] * control.density()[None, None, :, None, :]).reshape(
        n, 2 * d, 2 * d
    )
    ms = switch_kraus_stack(es, fs)
    return (ms @ joint[:, None] @ _dagger(ms)).sum(axis=1)


def apply_switch_full(spec: SwitchSpec, rho: DensityMatrix) -> DensityMatrix:
    """Full switch output on system (x) control: S(rho (x) omega)."""
    d = math.prod(rho.dims)
    if d != spec.dim:
        raise ValueError(
            f"state dimension {d} does not match switch operation dimension {spec.dim}"
        )
    out = apply_switch_full_stack(*_kraus_stacks(spec), rho.mat[None], spec.control)
    return DensityMatrix(out[0], rho.dims + (2,))  # checked: the operators are the caller's


_BRANCH_SIGNS = {"+": +1, "-": -1, +1: +1, -1: -1}


def _branch_sign(branch) -> int:
    # True and 1.0 equal 1, so only a str or an int that is not a bool may look one up
    if (isinstance(branch, (str, int, np.integer)) and not isinstance(branch, bool)
            and branch in _BRANCH_SIGNS):
        return _BRANCH_SIGNS[branch]
    raise ValueError(f"branch must be '+'/'-' or the int +1/-1, got {branch!r}")


def _unitary_mat(u) -> np.ndarray:
    m = u.mat if isinstance(u, UnitaryGate) else as_matrix(u, "unitary")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    return m


def _unitary_pair(u, v, rho: DensityMatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices as ``(1, d, d)`` stacks, checked square, of one shape
    and, given ``rho``, of its dimension."""
    um, vm = _unitary_mat(u), _unitary_mat(v)
    if um.shape != vm.shape:
        raise ValueError(f"dimension mismatch: {um.shape} vs {vm.shape}")
    if rho is not None and um.shape[0] != (d := math.prod(rho.dims)):
        raise ValueError(f"state dimension {d} does not match operator dimension {um.shape[0]}")
    return um[None], vm[None]


def lambda_branch_stack(us: np.ndarray, vs: np.ndarray, branch) -> np.ndarray:
    """Branch operators ``(UV +/- VU)/2`` for ``(N, d, d)`` stacks ``us``, ``vs``;
    either may also be one ``(d, d)`` matrix shared by every row."""
    return _branch_op(us @ vs, vs @ us, _branch_sign(branch))


def _branch_op(uv: np.ndarray, vu: np.ndarray, sign: int) -> np.ndarray:
    """``(UV +/- VU)/2`` from the two products; ``-(VU)`` has the bits of ``(-V)U``."""
    return (uv + sign * vu) / 2.0


def lambda_branch(u, v, branch) -> np.ndarray:
    """Branch operator ``(UV + VU)/2`` for '+', ``(UV - VU)/2`` for '-'."""
    return lambda_branch_stack(*_unitary_pair(u, v), branch)[0]


def switch_branch_stack(us: np.ndarray, vs: np.ndarray, mats: np.ndarray, branch) -> np.ndarray:
    """Unnormalized branch outputs ``L rho L'`` for ``(N, d, d)`` stacks; the
    trace of row ``n`` is its post-selection probability."""
    lam = lambda_branch_stack(us, vs, branch)
    return lam @ mats @ _dagger(lam)


def apply_switch_postselected_stack(
    us: np.ndarray, vs: np.ndarray, mats: np.ndarray, branch
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`apply_switch_postselected` for ``(N, d, d)`` stacks: the normalized
    branch states and the ``(N,)`` post-selection probabilities.

    A row whose probability is at most 1e-12 raises the "branch unreachable"
    :class:`~qswitch_qkd.linalg.RowError`.
    """
    out = switch_branch_stack(us, vs, mats, branch)
    prob = np.trace(out, axis1=1, axis2=2).real
    check_rows(
        prob <= 1e-12,
        lambda i: f"branch unreachable: post-selection probability {float(prob[i]):.3e} "
        f"for branch {branch!r}",
    )
    return out / prob[:, None, None], prob


def apply_switch_postselected(u, v, rho: DensityMatrix, branch) -> tuple[DensityMatrix, float]:
    """Switch two unitaries, post-selecting the control on |+> or |->.

    Returns the normalized branch state and its post-selection probability;
    the two branch probabilities sum to 1.  Requesting a branch whose
    probability vanishes raises a "branch unreachable" error.
    """
    us, vs = _unitary_pair(u, v, rho)
    states, probs = apply_switch_postselected_stack(us, vs, rho.mat[None], branch)
    return DensityMatrix(states[0], rho.dims), float(probs[0])


def traced_switch_stack(us: np.ndarray, vs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """:func:`traced_switch` for ``(N, d, d)`` stacks: the bits of ``switch_branch_stack(us,
    vs, mats, +1) + switch_branch_stack(us, vs, mats, -1)``, with ``UV`` and ``VU`` formed once."""
    uv, vu = us @ vs, vs @ us
    lp, lm = _branch_op(uv, vu, +1), _branch_op(uv, vu, -1)
    return lp @ mats @ _dagger(lp) + lm @ mats @ _dagger(lm)


def traced_switch(u, v, rho: DensityMatrix) -> DensityMatrix:
    """Switch two unitaries and trace out the control.

    Equals the probability-weighted mixture of the two post-selected
    branches: ``L+ rho L+' + L- rho L-'``.
    """
    out = traced_switch_stack(*_unitary_pair(u, v, rho), rho.mat[None])
    return DensityMatrix(out[0], rho.dims)
