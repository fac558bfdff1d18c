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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import as_matrix, hermitian_eigenvalues

__all__ = [
    "PureState",
    "DensityMatrix",
    "UnitaryGate",
    "MeasurementSetting",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "GATE_NAMES",
    "pure_to_density",
    "make_gate",
    "embed",
    "partial_trace",
    "projector",
    "measure_probs",
    "bloch_vector",
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
for _m in (PAULI_X, PAULI_Y, PAULI_Z, _HADAMARD, _SWAP, _CNOT):
    _m.setflags(write=False)
del _m

#: Gate labels accepted by :func:`make_gate`, with their parameter counts.
GATE_NAMES = {
    "X": 0,
    "Y": 0,
    "Z": 0,
    "H": 0,
    "XZ": 0,
    "SWAP": 0,
    "CNOT": 0,
    "U_SG": 1,
    "V_DRAFT": 1,
}


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    return dims


@dataclass(frozen=True)
class PureState:
    """State vector over an ordered list of subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != int(np.prod(dims)):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected "
                f"{int(np.prod(dims))} for dims {dims}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen_array(amps))
        object.__setattr__(self, "dims", dims)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with subsystem dims.

    Construction validates all three properties (Hermiticity and trace to
    1e-9, smallest eigenvalue >= -1e-8), so any ``DensityMatrix`` in
    circulation is a physical state.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        m = as_matrix(self.mat, "density matrix")
        d = int(np.prod(dims))
        if m.shape != (d, d):
            raise ValueError(
                f"density matrix has shape {m.shape}, expected ({d}, {d}) "
                f"for dims {dims}"
            )
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > 1e-9:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm_dev:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        min_eig = float(hermitian_eigenvalues(m)[-1])
        if min_eig < -1e-8:
            raise ValueError(f"density matrix is not PSD (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "mat", _frozen_array(m))
        object.__setattr__(self, "dims", dims)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True)
class UnitaryGate:
    """Named, parameterized unitary; ``U^dagger U = I`` is enforced."""

    name: str
    params: tuple[float, ...]
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, f"gate {self.name!r}")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"gate {self.name!r} matrix is not square: {m.shape}")
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if dev > 1e-9:
            raise ValueError(
                f"gate {self.name!r} is not unitary (max |U'U - I| = {dev:.3e})"
            )
        object.__setattr__(self, "mat", _frozen_array(m))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class MeasurementSetting:
    """Projective measurement direction, an angle in radians in [0, pi]."""

    theta: float

    def __post_init__(self):
        t = float(self.theta)
        if not (0.0 <= t <= np.pi):
            raise ValueError(f"measurement angle must lie in [0, pi], got {t}")
        object.__setattr__(self, "theta", t)


def pure_to_density(psi, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Outer product |psi><psi| as a DensityMatrix.

    Accepts a :class:`PureState`, or a raw amplitude sequence together with
    ``dims``.  Raw input may be unnormalized by at most 1e-6 and is
    renormalized before the outer product.
    """
    if isinstance(psi, PureState):
        amps, d = psi.amplitudes, psi.dims
    else:
        if dims is None:
            raise ValueError("dims is required when passing raw amplitudes")
        amps = np.asarray(psi, dtype=complex).reshape(-1)
        d = _check_dims(dims)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-6:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps = amps / np.sqrt(norm_sq)
    return DensityMatrix(np.outer(amps, amps.conj()), d)


def _u_sg_matrix(phi: float) -> np.ndarray:
    # Planar rotation on the middle two levels of the (Bob, Eve) pair:
    # |00> -> |00>,  |01> -> cos|01> - sin|10>,
    # |10> -> cos|10> + sin|01>,  |11> -> |11>.
    c, s = np.cos(phi), np.sin(phi)
    return np.array(
        [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]], dtype=complex
    )


def _v_draft_matrix(phi1: float) -> np.ndarray:
    # Reflection-type coupling: |00> -> cos|00> + sin|11>,
    # |01> -> cos|01> + sin|10>, |10> -> sin|01> - cos|10>,
    # |11> -> sin|00> - cos|11>.  Real, symmetric, and an involution.
    c, s = np.cos(phi1), np.sin(phi1)
    return np.array(
        [[c, 0, 0, s], [0, c, s, 0], [0, s, -c, 0], [s, 0, 0, -c]], dtype=complex
    )


def make_gate(name: str, params: Iterable[float] = ()) -> UnitaryGate:
    """Build a gate from the library by label.

    Fixed gates: X, Y, Z, H (one qubit), XZ (= X tensor Z), SWAP, CNOT
    (two qubits, first qubit is the CNOT control).  Parameterized gates on
    the (Bob, Eve) pair: U_SG(phi), the attack unitary rotating within the
    {|01>, |10>} subspace, and V_DRAFT(phi1), the reflection coupling
    {|00>, |11>} and {|01>, |10>}.
    """
    key = str(name).upper().replace("-", "_")
    if key not in GATE_NAMES:
        known = ", ".join(sorted(GATE_NAMES))
        raise ValueError(f"unknown gate {name!r}; known gates: {known}")
    params = tuple(float(p) for p in params)
    want = GATE_NAMES[key]
    if len(params) != want:
        raise ValueError(
            f"gate {key} takes {want} parameter(s), got {len(params)}"
        )
    fixed = {
        "X": PAULI_X,
        "Y": PAULI_Y,
        "Z": PAULI_Z,
        "H": _HADAMARD,
        "XZ": np.kron(PAULI_X, PAULI_Z),
        "SWAP": _SWAP,
        "CNOT": _CNOT,
    }
    if key in fixed:
        mat = fixed[key]
    elif key == "U_SG":
        mat = _u_sg_matrix(params[0])
    else:
        mat = _v_draft_matrix(params[0])
    return UnitaryGate(key, params, mat)


def embed(gate, targets: Sequence[int], total_dims: Sequence[int]) -> np.ndarray:
    """Lift a gate to the full space: identity everywhere except ``targets``.

    ``targets`` is an ordered list of subsystem indices matching the tensor
    factors of ``gate``; it need not be contiguous or sorted.
    """
    g = gate.mat if isinstance(gate, UnitaryGate) else as_matrix(gate, "gate")
    dims = _check_dims(total_dims)
    n = len(dims)
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices: {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target index {t} out of range for {n} subsystems")
    tgt_dim = int(np.prod([dims[t] for t in targets])) if targets else 1
    if g.shape != (tgt_dim, tgt_dim):
        raise ValueError(
            f"gate of shape {g.shape} does not fit targets {targets} "
            f"with dims {[dims[t] for t in targets]}"
        )
    rest = [i for i in range(n) if i not in targets]
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(g, np.eye(rest_dim, dtype=complex))
    # ``big`` is ordered (targets..., rest...); permute back to 0..n-1.
    order = targets + rest
    perm = [order.index(i) for i in range(n)]
    tensor = big.reshape([dims[i] for i in order] * 2)
    tensor = tensor.transpose(perm + [p + n for p in perm])
    full_dim = int(np.prod(dims))
    return tensor.reshape(full_dim, full_dim)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the subsystems in ``keep``, preserving their original order."""
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep set must not be empty")
    n = rho.num_subsystems
    for k in keep:
        if not 0 <= k < n:
            raise ValueError(f"keep index {k} out of range for {n} subsystems")
    dims = list(rho.dims)
    tensor = rho.mat.reshape(dims * 2)
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        m = len(dims)
        tensor = np.trace(tensor, axis1=ax, axis2=ax + m)
        dims.pop(ax)
    d = int(np.prod(dims))
    return DensityMatrix(tensor.reshape(d, d), tuple(dims))


def _setting_ket(theta: float, outcome: int) -> np.ndarray:
    half = theta / 2.0
    if outcome > 0:
        return np.array([np.cos(half), np.sin(half)], dtype=complex)
    return np.array([np.sin(half), -np.cos(half)], dtype=complex)


def projector(setting: MeasurementSetting | float, outcome: int) -> np.ndarray:
    """Rank-1 projector for outcome +1 or -1 of a measurement setting."""
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    theta = setting.theta if isinstance(setting, MeasurementSetting) else float(
        MeasurementSetting(setting).theta
    )
    k = _setting_ket(theta, outcome)
    return np.outer(k, k.conj())


def _coerce_setting(entry) -> MeasurementSetting | None:
    if entry is None:
        return None
    if isinstance(entry, MeasurementSetting):
        return entry
    return MeasurementSetting(float(entry))


@lru_cache(maxsize=256)
def _measurement_ops(
    dims: tuple[int, ...], thetas: tuple[float | None, ...]
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Outcome keys and the read-only ``(n_outcomes, d, d)`` stack of their operators.

    ``thetas`` holds one validated angle per measured subsystem and ``None``
    for skipped ones.  Outcomes run in ``np.ndindex`` order (+1 before -1);
    each operator is the Kronecker product, in subsystem order, of the
    outcome projectors and identities on the skipped subsystems.
    """
    measured = [i for i, t in enumerate(thetas) if t is not None]
    keys = []
    ops = []
    for combo in np.ndindex(*([2] * len(measured))):
        outcomes = tuple(+1 if c == 0 else -1 for c in combo)
        op = np.eye(1, dtype=complex)
        for i, t in enumerate(thetas):
            if t is None:
                op = np.kron(op, np.eye(dims[i], dtype=complex))
            else:
                op = np.kron(op, projector(t, outcomes[measured.index(i)]))
        keys.append(outcomes)
        ops.append(op)
    stack = np.array(ops)
    stack.setflags(write=False)
    return tuple(keys), stack


def measure_probs(rho: DensityMatrix, per_subsystem: Sequence) -> dict[tuple[int, ...], float]:
    """Joint outcome distribution of per-subsystem projective measurements.

    ``per_subsystem`` holds one entry per subsystem: a setting (a
    :class:`MeasurementSetting` or plain angle) for measured subsystems and
    ``None`` for skipped ones, which are traced over.  Keys of the result
    are outcome tuples of +1/-1 over the measured subsystems, in order.
    Probabilities are clamped at the -1e-12 noise floor and must sum to 1.
    """
    if len(per_subsystem) != rho.num_subsystems:
        raise ValueError(
            f"need one entry per subsystem ({rho.num_subsystems}), "
            f"got {len(per_subsystem)}"
        )
    settings = [_coerce_setting(e) for e in per_subsystem]
    if any(d != 2 for i, d in enumerate(rho.dims) if settings[i] is not None):
        raise ValueError("only qubit subsystems can be measured")

    thetas = tuple(None if s is None else s.theta for s in settings)
    keys, ops = _measurement_ops(rho.dims, thetas)
    probs = np.trace(rho.mat @ ops, axis1=1, axis2=2).real
    out: dict[tuple[int, ...], float] = {}
    total = 0.0
    for outcomes, p in zip(keys, probs.tolist()):
        if p < -1e-12:
            raise ValueError(f"outcome probability {p!r} below noise floor")
        out[outcomes] = max(p, 0.0)
        total += out[outcomes]
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    return out


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (r_x, r_y, r_z) of a single-qubit state."""
    if rho.dims != (2,):
        raise ValueError(f"bloch_vector needs a single qubit, got dims {rho.dims}")
    r = np.array(
        [float(np.trace(rho.mat @ p).real) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    )
    if np.linalg.norm(r) > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector has length {np.linalg.norm(r)} > 1")
    return r
