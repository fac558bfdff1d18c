"""Quantum states on labelled qubit subsystems, gates, and measurements.

Conventions used throughout the package:

* Subsystems are listed in the order Alice, Bob, Eve (control qubit last,
  when present).  Basis labels pack big-endian, so for three qubits the
  ket ``|abe>`` sits at index ``4a + 2b + e``.
* Measurement settings are angles ``theta`` in the x-z plane of the Bloch
  sphere.  The "+" outcome projects onto
  ``cos(theta/2)|0> + sin(theta/2)|1>``, the "-" outcome onto the
  orthogonal ``sin(theta/2)|0> - cos(theta/2)|1>``; ``theta = 0`` is the
  computational (Z) basis and ``theta = pi/2`` the Hadamard (X) basis.

All values are immutable after construction (array buffers are marked
read-only), so states and gates can be shared freely across threads.

The checks behind the classes also run on stacks: an ``(N, d)`` array of
state vectors or an ``(N, d, d)`` array of density matrices is validated in
one pass, naming the first failing row in a :class:`~qswitch_qkd.linalg.RowError`.
Reductions and measurements are checked in their :class:`DensityMatrix` form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import _as_complex, as_matrix, check_rows

__all__ = [
    "PureState",
    "DensityMatrix",
    "UnitaryGate",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "GATE_NAMES",
    "make_gate",
    "gate_stack",
    "embed",
    "check_pure_stack",
    "check_density_stack",
    "partial_trace",
    "expectations",
    "measure_probs",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_XZ = np.kron(PAULI_X, PAULI_Z)
for _m in (PAULI_X, PAULI_Y, PAULI_Z, _HADAMARD, _SWAP, _CNOT, _XZ):
    _m.setflags(write=False)
del _m

def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _derived(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, unchecked: the
    one way to wrap a value derived from checked input.  The caller freezes its arrays."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _integers(values: Iterable, name: str) -> list[int]:
    """``values`` as Python ints.  A scalar in place of the sequence, or a float, str or bool
    entry (which ``int`` would truncate or coerce), raises ``ValueError`` naming the argument
    ``name``; numpy integers are ints."""
    try:
        values = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must hold integers, got {v!r}")
        out.append(int(v))
    return out


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(_integers(dims, "dims"))
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    return dims


def _norm_sq_rows(amps: np.ndarray) -> np.ndarray:
    """``np.vdot(a, a).real`` of each vector of an ``(N, d)`` stack, bit for bit, as one
    stacked product (an ``einsum`` or a sum of ``|a|^2`` rounds differently)."""
    return (amps.conj()[:, None, :] @ amps[:, :, None])[:, 0, 0].real


def check_pure_stack(amps: np.ndarray) -> None:
    """Validate an ``(N, d)`` stack of state vectors: finite entries, unit norm to 1e-9."""
    check_rows(~np.isfinite(amps), lambda i: "amplitudes contain non-finite entries")
    norm_sq = _norm_sq_rows(amps)
    check_rows(
        np.abs(norm_sq - 1.0) > 1e-9,
        lambda i: f"state is not normalized: |psi|^2 = {float(norm_sq[i])!r}",
    )


def check_density_stack(mats: np.ndarray) -> None:
    """Validate an ``(N, d, d)`` stack of density matrices.

    Every matrix must be finite, Hermitian and of unit trace to 1e-9, with
    smallest eigenvalue >= -1e-8; the checks run in that order.
    """
    check_rows(~np.isfinite(mats), lambda i: "density matrix contains non-finite entries")
    mats_dag = mats.conj().transpose(0, 2, 1)
    herm_dev = np.abs(mats - mats_dag).max(axis=(1, 2))
    check_rows(
        herm_dev > 1e-9,
        lambda i: f"density matrix is not Hermitian (deviation {float(herm_dev[i]):.3e})",
    )
    tr = np.trace(mats, axis1=1, axis2=2)
    check_rows(
        np.abs(tr - 1.0) > 1e-9,
        lambda i: f"density matrix trace is {complex(tr[i])!r}, expected 1",
    )
    # hermitian_eigenvalues_stack's, without its 1e-10 Hermiticity check: 1e-9 holds here
    min_eig = np.linalg.eigvalsh((mats + mats_dag) / 2.0)[:, 0]
    check_rows(
        min_eig < -1e-8,
        lambda i: f"density matrix is not PSD (min eigenvalue {float(min_eig[i]):.3e})",
    )


def _check_unitary(name: str, mats: np.ndarray) -> None:
    dev = np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(mats.shape[-1])).max(axis=(1, 2))
    check_rows(
        dev > 1e-9,
        lambda i: f"gate {name!r} is not unitary (max |U'U - I| = {float(dev[i]):.3e})",
    )


@dataclass(frozen=True)
class PureState:
    """State vector over an ordered list of subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = _as_complex(self.amplitudes, "amplitudes").reshape(-1)
        if amps.size != (d := math.prod(dims)):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected "
                f"{d} for dims {dims}"
            )
        check_pure_stack(amps[None])
        object.__setattr__(self, "amplitudes", _frozen_array(amps))
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with subsystem dims.

    Constructing one from a matrix validates all three properties
    (Hermiticity and trace to 1e-9, smallest eigenvalue >= -1e-8); so do
    the switch outputs, whose operators are the caller's.  States the
    library derives from checked input are wrapped unchecked: |psi><psi|
    of checked scenario amplitudes, and every :func:`partial_trace`.  An
    outer product keeps the amplitude norm's 1e-9; a reduction keeps its
    input's guarantees only up to the traced dimension times the input's
    tolerances.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        m = as_matrix(self.mat, "density matrix")
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ValueError(
                f"density matrix has shape {m.shape}, expected ({d}, {d}) "
                f"for dims {dims}"
            )
        check_density_stack(m[None])
        object.__setattr__(self, "mat", _frozen_array(m))
        object.__setattr__(self, "dims", dims)


def _require_density(rho, name: str) -> None:
    """A ``rho`` that is not a :class:`DensityMatrix` is a ``ValueError`` naming ``name``."""
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"{name} must be a DensityMatrix, got {type(rho).__name__}")


def _param_tuple(gate: str, params) -> tuple:
    try:
        return tuple(params)
    except TypeError:
        raise ValueError(f"{gate} parameters must be a sequence, got {params!r}") from None


@dataclass(frozen=True)
class UnitaryGate:
    """Named, parameterized unitary; ``U^dagger U = I`` is enforced.  ``params`` is a
    sequence of real numbers (:func:`_real_number`); anything else is a ``ValueError``.
    A parameterized :func:`make_gate`, a rotation or reflection at a checked finite angle,
    is unitary by construction and wrapped unchecked, as :func:`gate_stack` returns it."""

    name: str
    params: tuple[float, ...]
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, f"gate {self.name!r}")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"gate {self.name!r} matrix is not square: {m.shape}")
        _check_unitary(self.name, m[None])
        object.__setattr__(self, "mat", _frozen_array(m))
        params = _param_tuple(f"gate {self.name!r}", self.params)
        object.__setattr__(self, "params", tuple(
            _real_number(p, f"gate {self.name!r} parameter") for p in params))


def _u_sg_matrices(phi) -> np.ndarray:
    # Planar rotation on the middle two levels of the (Bob, Eve) pair:
    # |00> -> |00>,  |01> -> cos|01> - sin|10>,
    # |10> -> cos|10> + sin|01>,  |11> -> |11>.
    # One matrix per entry of ``phi``: shape phi.shape + (4, 4).
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    m = np.zeros(phi.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = 1
    m[..., 1, 1] = m[..., 2, 2] = c
    m[..., 1, 2] = s
    m[..., 2, 1] = -s
    return m


def _v_draft_matrices(phi1) -> np.ndarray:
    # Reflection-type coupling: |00> -> cos|00> + sin|11>,
    # |01> -> cos|01> + sin|10>, |10> -> sin|01> - cos|10>,
    # |11> -> sin|00> - cos|11>.  Real, symmetric, and an involution.
    phi1 = np.asarray(phi1, dtype=float)
    c, s = np.cos(phi1), np.sin(phi1)
    m = np.zeros(phi1.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 2, 2] = m[..., 3, 3] = -c
    m[..., 0, 3] = m[..., 3, 0] = m[..., 1, 2] = m[..., 2, 1] = s
    return m


_PARAMETRIC_GATES = {"U_SG": _u_sg_matrices, "V_DRAFT": _v_draft_matrices}
#: The fixed gates, checked for unitarity once, here; :func:`make_gate` returns these instances.
_FIXED_GATES = {
    name: UnitaryGate(name, (), mat)
    for name, mat in (("X", PAULI_X), ("Y", PAULI_Y), ("Z", PAULI_Z), ("H", _HADAMARD),
                      ("XZ", _XZ), ("SWAP", _SWAP), ("CNOT", _CNOT))
}
#: Gate labels accepted by :func:`make_gate`, with their parameter counts.
GATE_NAMES = {**dict.fromkeys(_FIXED_GATES, 0), **dict.fromkeys(_PARAMETRIC_GATES, 1)}


def _gate_key(name: str) -> str:
    key = str(name).upper().replace("-", "_")
    if key not in GATE_NAMES:
        known = ", ".join(sorted(GATE_NAMES))
        raise ValueError(f"unknown gate {name!r}; known gates: {known}")
    return key


def make_gate(name: str, params: Iterable[float] = ()) -> UnitaryGate:
    """Build a gate from the library by label.

    Fixed gates: X, Y, Z, H (one qubit), XZ (= X tensor Z), SWAP, CNOT
    (two qubits, first qubit is the CNOT control).  Parameterized gates on
    the (Bob, Eve) pair: U_SG(phi), the attack unitary rotating within the
    {|01>, |10>} subspace, and V_DRAFT(phi1), the reflection coupling
    {|00>, |11>} and {|01>, |10>}.  ``params`` is a sequence; an angle that
    :func:`_real_number` rejects raises ``ValueError``.
    """
    key = _gate_key(name)
    params = _param_tuple(f"gate {key}", params)
    want = GATE_NAMES[key]
    if len(params) != want:
        raise ValueError(
            f"gate {key} takes {want} parameter(s), got {len(params)}"
        )
    if key in _FIXED_GATES:
        return _FIXED_GATES[key]
    angle = _real_number(params[0], f"gate {key} angle")
    mat = _frozen_array(_parametric_matrices(key, np.array([angle]))[0])
    return _derived(UnitaryGate, name=key, params=(angle,), mat=mat)


def _parametric_matrices(key: str, angles: np.ndarray) -> np.ndarray:
    """The gate ``key`` at every finite angle of a 1-D float array, unchecked for unitarity.

    The finite check runs before ``cos`` and ``sin`` see the angles.
    """
    check_rows(
        ~np.isfinite(angles),
        lambda i: f"gate {key} angle must be finite, got {float(angles[i])}",
    )
    return _PARAMETRIC_GATES[key](angles)


def gate_stack(name: str, angles) -> np.ndarray:
    """A parameterized gate (U_SG or V_DRAFT) at every angle, as an ``(N, 4, 4)`` stack.

    ``angles`` is a scalar or a 1-D grid of real numbers (:func:`_real_grid`).  Every
    angle must be finite; the first that is not raises
    :class:`~qswitch_qkd.linalg.RowError`.  A rotation or reflection built
    from finite angles is unitary, so the matrices are not checked again
    (``selfcheck.LAWS`` and ``tests/test_properties.py`` pin
    ``|U'U - I| <= 1e-9``).  A parameterized :func:`make_gate` is entry 0 of a
    one-angle stack, wrapped as :class:`UnitaryGate` unchecked in the same way.
    """
    key = _gate_key(name)
    if key not in _PARAMETRIC_GATES:
        raise ValueError(
            f"gate {key} takes no angle; parameterized gates: {sorted(_PARAMETRIC_GATES)}"
        )
    return _parametric_matrices(key, _real_grid(angles, f"gate {key} angle"))


def embed(gate, targets: Sequence[int], total_dims: Sequence[int]) -> np.ndarray:
    """Lift a gate to the full space: identity everywhere except ``targets``.

    ``targets`` is an ordered list of subsystem indices matching the tensor
    factors of ``gate``; it need not be contiguous or sorted.  An ``(N, d, d)``
    stack of gates lifts to the ``(N, D, D)`` stack of their lifts, each
    matrix byte for byte the lift of its gate alone.
    """
    if isinstance(gate, UnitaryGate):
        g = gate.mat
    elif np.ndim(gate) == 2:
        g = as_matrix(gate, "gate")
    else:
        g = _as_complex(gate, "gate")
        if g.ndim != 3:
            raise ValueError(f"gate must be 2-D or an (N, d, d) stack, got shape {g.shape}")
        check_rows(~np.isfinite(g), lambda i: "gate contains non-finite entries")
    dims = _check_dims(total_dims)
    n = len(dims)
    targets = _integers(targets, "targets")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices: {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target index {t} out of range for {n} subsystems")
    tgt_dim = math.prod(dims[t] for t in targets)
    lead = g.shape[:-2]  # () for one gate, (N,) for a stack
    if g.shape[-2:] != (tgt_dim, tgt_dim):
        raise ValueError(
            f"gate of shape {g.shape} does not fit targets {targets} "
            f"with dims {[dims[t] for t in targets]}"
        )
    rest = [i for i in range(n) if i not in targets]
    # kron(g, I) as one broadcast product: the same complex products np.kron forms
    eye = np.eye(math.prod(dims[i] for i in rest), dtype=complex)
    big = g[..., :, None, :, None] * eye[None, :, None, :]
    # ``big`` is ordered (targets..., rest...); permute back to 0..n-1.
    order = targets + rest
    perm = [order.index(i) for i in range(n)]
    tensor = big.reshape(lead + tuple(dims[i] for i in order) * 2)
    m = len(lead)
    tensor = tensor.transpose([*range(m)] + [m + p for p in perm] + [m + n + p for p in perm])
    full_dim = math.prod(dims)
    return tensor.reshape(lead + (full_dim, full_dim))


def _trace_out(mats: np.ndarray, dims, keep) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`partial_trace` of each matrix of an ``(N, d, d)`` stack, arguments unchecked:
    each traced subsystem, last first, is one ``np.trace`` of the ``(N, *dims, *dims)`` tensor."""
    dims = list(dims)
    tensor = mats.reshape([len(mats)] + dims * 2)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=1 + ax, axis2=1 + ax + len(dims))
        dims.pop(ax)
    return tensor.reshape(len(mats), math.prod(dims), math.prod(dims)), tuple(dims)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the subsystems in ``keep``, preserving their original order.

    The reduction of a state is a state, so it is not checked again.
    """
    _require_density(rho, "rho")
    keep = sorted(set(_integers(keep, "keep")))
    if not keep:
        raise ValueError("keep set must not be empty")
    n = len(rho.dims)
    for k in keep:
        if not 0 <= k < n:
            raise ValueError(f"keep index {k} out of range for {n} subsystems")
    mats, dims = _trace_out(rho.mat[None], rho.dims, keep)
    return _derived(DensityMatrix, mat=_frozen_array(mats[0]), dims=dims)


def _setting_kets(thetas: np.ndarray) -> np.ndarray:
    """The "+" and "-" kets of each angle of an ``(M,)`` array, shape ``(M, 2, 2)``."""
    half = thetas / 2.0
    c, s = np.cos(half), np.sin(half)
    kets = np.empty(thetas.shape + (2, 2), dtype=complex)
    kets[:, 0, 0], kets[:, 0, 1] = c, s
    kets[:, 1, 0], kets[:, 1, 1] = s, -c
    return kets


@lru_cache(maxsize=256)
def _measurement_ops(
    dims: tuple[int, ...], thetas: tuple
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Outcome keys and the read-only ``(n_outcomes, d, d)`` stack of their operators.

    ``thetas`` holds, per subsystem, ``None`` for a skipped one and a
    validated angle for a measured one.  Outcomes run in ``np.ndindex``
    order (+1 before -1); each operator is the Kronecker product, in
    subsystem order, of the outcome projectors and identities on the
    skipped subsystems.
    """
    n_measured = sum(t is not None for t in thetas)
    keys = tuple(
        tuple(+1 if c == 0 else -1 for c in combo) for combo in np.ndindex(*([2] * n_measured))
    )
    stack = np.ones((1, 1, 1), dtype=complex)
    for d, t in zip(dims, thetas):
        if t is None:
            factor = np.eye(d, dtype=complex)[None]
        else:
            kets = _setting_kets(np.array([t]))[0]
            factor = kets[:, :, None] * kets.conj()[:, None, :]  # the two projectors, as np.outer
        # every operator so far times every factor, the products np.kron forms
        n, m = len(stack) * len(factor), stack.shape[-1] * d
        stack = (stack[:, None, :, None, :, None] * factor[None, :, None, :, None, :]).reshape(n, m, m)
    stack.setflags(write=False)
    return keys, stack


def expectations(mats: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Real part of ``Tr(rho_n O_k)`` for an ``(N, d, d)`` stack and a ``(K, d, d)``
    stack of operators ``O_k`` shared by every row; shape ``(N, K)``.

    Every ``d`` but 4 computes ``np.trace(mats[:, None] @ ops[None], axis1=2,
    axis2=3).real``.  A two-qubit stack, all that the metrics score, takes one GEMM,
    ``mats.reshape(4 N, 4)`` times the ``(4, 4 K)`` matrix of operator columns, and adds
    the four diagonal terms as numpy's pairwise sum adds them, ``((c0 + c1) + (c2 +
    c3)) + 0.0``, real parts only (``+0.0`` is ``np.trace``'s start).  A Pauli string
    has one nonzero entry, +-1 or +-i, per row, so each diagonal term is one exact
    product and the floats are those of that ``np.trace``, byte for byte, on any
    OpenBLAS kernel.  The metrics' Z- and X-basis projectors give those bytes too under
    the SkylakeX and Haswell kernels (``tests/test_qstate.py``).  With dense operators
    the bytes depend on the kernel: they match under SkylakeX and differ under Haswell.
    At d = 4 a real stack, or a complex one whose imaginary parts are all zero (every
    state the package builds), meets ``Re O_k``, as ``Re Tr(rho O) = Tr(rho Re O)`` for a
    real ``rho``; at every ``d`` a real stack gives the bytes of its complex cast.
    """
    n, d = mats.shape[:2]
    k = len(ops)
    if ops.shape != (k, d, d):  # a stack per row would broadcast, silently, at d = 2
        raise ValueError(f"operators must be one ({k}, {d}, {d}) stack, got shape {ops.shape}")
    if d != 4:
        return np.trace(mats[:, None] @ ops[None], axis1=2, axis2=3).real
    if not np.iscomplexobj(mats) or not mats.imag.any():
        mats, ops = mats.real, ops.real
    # entry (i, j) of rho_n O_k lands at prod[n, 4 i + j, k]; the diagonal is every 5th
    prod = mats.reshape(n * 4, 4) @ ops.transpose(1, 2, 0).reshape(4, 4 * k)
    c = prod.reshape(n, 16, k)[:, ::5].real
    return ((c[:, 0] + c[:, 1]) + (c[:, 2] + c[:, 3])) + 0.0


def _real_number(e, name: str) -> float:
    """One real number (an angle, a bit count, ...) as a float.  A list or array in its
    place, or a str, bool or complex value (which ``float`` would coerce, or reject with a
    ``TypeError``), raises ``ValueError`` naming it ``name``; ints and numpy reals are reals."""
    if type(e) is float:  # the common case, ahead of the numpy tests
        return e
    if isinstance(e, (list, tuple)) or np.ndim(e) != 0:
        raise ValueError(f"{name} must be one number, got a {type(e).__name__}")
    if np.asarray(e).dtype.kind not in "iuf":  # int, unsigned or float
        raise ValueError(f"{name} must be a real number, got {e!r}")
    return float(e)


def _real_grid(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float grid; a scalar is one point, more axes are an error, and so
    is a point that :func:`_real_number` rejects, named ``name``."""
    try:
        grid = np.asarray(values)
    except ValueError:  # a ragged list: its first entry that is not one number names it
        for v in values:
            _real_number(v, name)
        raise
    if grid.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-D grid, got shape {grid.shape}")
    # a list may mix types that np.asarray would coerce, and an object array holds any;
    # the dtype of any other array speaks for all of its points
    if isinstance(values, (list, tuple)) or grid.dtype.kind not in "iuf":
        for v in values if isinstance(values, (list, tuple)) else grid.reshape(-1).tolist():
            _real_number(v, name)
    return grid.astype(float).reshape(-1)


def _setting_angles(per_subsystem: Sequence) -> tuple:
    """Per subsystem: ``None`` if skipped, else its validated angle, one for every row.

    An angle that :func:`_real_number` rejects, or one outside [0, pi] (or NaN),
    raises ``ValueError``.
    """
    thetas = []
    for i, e in enumerate(per_subsystem):
        if e is not None:
            e = _real_number(e, f"subsystem {i} measurement angle")
            if not 0.0 <= e <= np.pi:
                raise ValueError(f"measurement angle must lie in [0, pi], got {e}")
        thetas.append(e)
    return tuple(thetas)


def _checked_probs(probs: np.ndarray) -> np.ndarray:
    """``(N, K)`` outcome distributions, or ``(N, S, K)`` for S settings, clamped at the -1e-12
    noise floor and checked to sum to 1: by setting, each row's floor before any row's sum.

    The clamp is ``np.maximum(probs, 0.0)``, the floats of ``np.where(probs < 0.0, 0.0,
    probs)`` on what :func:`expectations` returns, which holds no -0.0 (its sum adds
    ``+0.0`` last).  A NaN sum fails the check, so the output holds no NaN either."""
    low = probs < -1e-12
    clamped = np.maximum(probs, 0.0)
    total = np.add.accumulate(clamped, axis=-1)[..., -1]  # summed outcome by outcome, in key order
    off = ~(np.abs(total - 1.0) <= 1e-9)  # NaN fails too
    if np.count_nonzero(low) or np.count_nonzero(off):  # find the first fault, setting by setting
        for setting in np.ndindex(probs.shape[1:-1]):
            at = (slice(None), *setting)
            check_rows(low[at], lambda i: "outcome probability "
                       f"{float(probs[at][i][low[at][i]][0])!r} below noise floor")
            check_rows(off[at], lambda i: "outcome probabilities sum to "
                       f"{float(total[at][i])!r}, expected 1")
    return clamped


def measure_probs(rho: DensityMatrix, per_subsystem: Sequence) -> dict[tuple[int, ...], float]:
    """Joint outcome distribution of per-subsystem projective measurements.

    ``per_subsystem`` holds one entry per subsystem: an angle in [0, pi]
    for measured subsystems and ``None`` for skipped ones, which are traced
    over.  Keys of the result are outcome tuples of +1/-1 over the measured
    subsystems, in order.  Probabilities, from the metrics' :func:`expectations` and
    :func:`_checked_probs`, are clamped at the -1e-12 noise floor and must sum to 1.
    """
    _require_density(rho, "rho")
    try:
        n_entries = len(per_subsystem)
    except TypeError:
        raise ValueError(f"per_subsystem must be a sequence, got {per_subsystem!r}") from None
    if n_entries != len(rho.dims):
        raise ValueError(f"need one entry per subsystem ({len(rho.dims)}), got {n_entries}")
    thetas = _setting_angles(per_subsystem)
    if any(d != 2 for d, t in zip(rho.dims, thetas) if t is not None):
        raise ValueError("only qubit subsystems can be measured")
    keys, ops = _measurement_ops(rho.dims, thetas)
    return dict(zip(keys, _checked_probs(expectations(rho.mat[None], ops))[0].tolist()))
