"""Security metrics: information gain, mutual information, QBER, CHSH maxima.

Measurement conventions
-----------------------
All statistics use the two settings theta = 0 (Z basis) and theta = pi/2
(X basis), matching the sifted-key bases of the protocol.

* :func:`information_gain` compares Eve's outcome distributions under the
  two settings: G = 0.25 * sum_lambda |P(lambda|0) - P(lambda|pi/2)|.
  With this normalization the plain U_SG attack gives G = 0.25 cos^2(phi).
* :func:`mutual_information` measures both parties in the *same* setting,
  computes the classical mutual information of the joint outcome
  distribution per setting, and averages the two settings.
* :func:`qber` is the matched computational-basis (theta = 0) disagreement
  probability, the sifted-key error rate in the key basis; for the plain
  U_SG attack it equals sin^2(phi)/2.  The two matched bases disturb
  differently (the theta = pi/2 error is sin^2(phi/2));
  :func:`matched_error_rate` exposes the per-basis rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import RowError, as_matrix, check_rows
from .qstate import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    _checked_probs,
    _measurement_ops,
    _real_grid,
    _real_number,
    expectations,
    measure_probs_stack,
)
from .scenarios import AttackScenario, _pair_stack, scenario_amplitudes, scenario_pure_state

__all__ = [
    "MEASUREMENT_SETTINGS",
    "MetricsRow",
    "BellReport",
    "information_gain",
    "mutual_information",
    "security_condition",
    "matched_error_rate",
    "qber",
    "horodecki_bell_max",
    "fidelity_disturbance_shrink",
    "evaluate_row",
    "evaluate_rows",
]

#: The two measurement settings used for every statistic in this module.
MEASUREMENT_SETTINGS = (0.0, math.pi / 2)

_CHSH_CEILING = 2 * math.sqrt(2) + 1e-9

# sigma_i (x) sigma_j for i, j in x, y, z, row-major: the operators behind T_ij.
_PAULI_PAIRS = np.array(
    [np.kron(si, sj) for si in (PAULI_X, PAULI_Y, PAULI_Z) for sj in (PAULI_X, PAULI_Y, PAULI_Z)]
)
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
# E_i^T (x) s_k, row-major: the operators of a transit map (_transit_maps)
_TRANSIT_OPS = np.array([np.kron(e.T, s) for e in (np.diag([1, 0]), np.diag([0, 1]), PAULI_X,
                                                   PAULI_Y) for s in (np.eye(2), *_PAULIS)])
_TWO_QUBITS = (2, 2)

# Both measurement settings, Z then X, in one stack: Eve's marginal outcomes
# (+1, -1), and the matched joint outcomes.  Each setting's block is the stack
# measure_probs_stack scores for it, in its key order, with the floats of a call
# on that block alone (tests/test_metrics.py pins this); reshaped to (N, 2, K),
# the settings are an array axis that one _checked_probs call checks, Z first.
_GAIN_OPS = np.concatenate([_measurement_ops(_TWO_QUBITS, (None, t))[1]
                            for t in MEASUREMENT_SETTINGS])
_MI_OPS = np.concatenate([_measurement_ops(_TWO_QUBITS, (t, t))[1] for t in MEASUREMENT_SETTINGS])
for _ops in (_PAULI_PAIRS, _PAULIS, _TRANSIT_OPS, _GAIN_OPS, _MI_OPS):
    _ops.setflags(write=False)
del _ops

# Every metric below is computed on an ``(N, 4, 4)`` stack of two-qubit
# density matrices, with the float operations of a single matrix, so row n
# of a stack equals the single-matrix result bit for bit.  The public
# single-state functions are the N=1 case.


def _entropy_rows(ps: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis of ``ps``: unchecked, as its callers
    pass :func:`_checked_probs` output or sums of it."""
    # 0*log(0) = 0: a zero term in place of each non-positive probability
    positive = ps > 0.0
    terms = np.where(positive, ps * np.log2(np.where(positive, ps, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _require_two_qubits(rho: DensityMatrix, what: str) -> None:
    if rho.dims != _TWO_QUBITS:
        raise ValueError(f"{what} needs a two-qubit state, got dims {rho.dims}")


def _gain_rows(pairs_ae: np.ndarray) -> np.ndarray:
    # Eve's marginal outcome distributions, (setting, lambda = +1, -1)
    p = _checked_probs(expectations(pairs_ae, _GAIN_OPS).reshape(-1, 2, 2))
    return 0.25 * np.abs(p[:, 0] - p[:, 1]).sum(axis=1)  # a sum of two: their one addition


def information_gain(rho_ae: DensityMatrix) -> float:
    """Eve's average information gain from her two measurement settings.

    G = 0.25 * sum_lambda |P(lambda|theta=0) - P(lambda|theta=pi/2)| where
    P(lambda|theta) is Eve's marginal outcome distribution (identity on the
    other party).
    """
    _require_two_qubits(rho_ae, "information_gain")
    return float(_gain_rows(rho_ae.mat[None])[0])


def _matched_joint(pairs: np.ndarray, theta: float) -> np.ndarray:
    """Joint outcome distribution, both parties measuring ``theta``: columns
    (+1,+1), (+1,-1), (-1,+1), (-1,-1)."""
    return measure_probs_stack(pairs, _TWO_QUBITS, (theta, theta))[1]


def _joint_mi_rows(joint: np.ndarray) -> np.ndarray:
    # H(p) + H(q) - H(joint) along the last axis, for the marginals p (first party)
    # and q (second party), each padded with zero terms to the joint's four.
    dists = np.zeros((*joint.shape[:-1], 3, 4))
    dists[..., :2, :2] = joint[..., [[0, 2], [0, 1]]] + joint[..., [[1, 3], [2, 3]]]
    dists[..., 2, :] = joint
    h = _entropy_rows(dists)
    mi = h[..., 0] + h[..., 1] - h[..., 2]
    return np.where(mi < 0.0, 0.0, mi)


def _matched_mi_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MI per matched setting, shape ``(N, 2)``, and the key-basis (Z) joint distribution:
    one :func:`_checked_probs` call checks both settings' joints, Z first, and one entropy
    pass scores them."""
    joints = _checked_probs(expectations(pairs, _MI_OPS).reshape(-1, 2, 4))
    return _joint_mi_rows(joints), joints[:, 0]


def _average_settings(per_setting: np.ndarray) -> np.ndarray:
    total = 0.0
    for column in per_setting.T:
        total = total + column
    return total / per_setting.shape[1]


def mutual_information(rho_pq: DensityMatrix) -> float:
    """Mutual information of matched-setting measurement outcomes, in bits,
    averaged over the two settings."""
    _require_two_qubits(rho_pq, "mutual_information")
    per_setting, _ = _matched_mi_rows(rho_pq.mat[None])
    return float(_average_settings(per_setting)[0])


def _secure_rows(i_ab: np.ndarray, i_ae: np.ndarray, i_be: np.ndarray) -> np.ndarray:
    return i_ab > np.where(i_be < i_ae, i_be, i_ae)


def security_condition(i_ab: float, i_ae: float, i_be: float) -> bool:
    """Secret-key condition for one-way processing: I(A:B) > min(I(A:E), I(B:E)).

    Each argument must be one finite real number; anything else raises ``ValueError``
    naming it."""
    values = []
    for name, v in (("i_ab", i_ab), ("i_ae", i_ae), ("i_be", i_be)):
        v = _real_number(v, name)
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
        values.append(v)
    return bool(_secure_rows(*(np.array([v]) for v in values))[0])


def _error_rate_rows(joint: np.ndarray, theta: float) -> np.ndarray:
    err = joint[:, 1] + joint[:, 2]
    # Two outcomes that together carry all the weight can sum to a few ulps
    # above 1; anything beyond the 1e-12 noise floor is a real fault.
    check_rows(
        err - 1.0 > 1e-12,
        lambda i: f"matched error rate at theta={theta!r} is {float(err[i])!r}, "
        f"above 1 by more than the 1e-12 noise floor",
    )
    return np.where(err > 1.0, 1.0, err)


def matched_error_rate(rho_ab: DensityMatrix, theta: float) -> float:
    """Probability that the two parties disagree when both measure ``theta``."""
    _require_two_qubits(rho_ab, "matched_error_rate")
    return float(_error_rate_rows(_matched_joint(rho_ab.mat[None], theta), theta)[0])


def qber(rho_ab: DensityMatrix) -> float:
    """Sifted-key error rate: matched disagreement in the key (Z) basis."""
    return matched_error_rate(rho_ab, 0.0)


@dataclass(frozen=True)
class BellReport:
    """CHSH maximum of a two-qubit state via its Pauli correlation matrix.

    ``m_value`` is the sum of the two largest eigenvalues of T^T T and the
    achievable CHSH maximum is ``chsh_max = 2 sqrt(m_value)``; values above
    2 certify that no local realistic model reproduces the statistics.
    """

    t_matrix: np.ndarray
    m_value: float
    chsh_max: float

    def __post_init__(self):
        t = np.asarray(self.t_matrix)
        if t.dtype.kind not in "iuf":  # int, unsigned or float, as oracle.chsh_bruteforce
            raise ValueError(f"t_matrix must hold real numbers, got dtype {t.dtype}")
        if t.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {t.shape}")
        t = t.astype(float)  # a copy
        t.setflags(write=False)
        object.__setattr__(self, "t_matrix", t)
        for name in ("m_value", "chsh_max"):
            object.__setattr__(self, name, _real_number(getattr(self, name), name))
        m, chsh = self.m_value, self.chsh_max
        if m < 0.0:
            raise ValueError(f"m_value must be nonnegative, got {m!r}")
        if not abs(chsh - 2 * math.sqrt(m)) <= 1e-9:  # NaN fails too
            raise ValueError(f"chsh_max must equal 2*sqrt(m_value), got {chsh!r} and {m!r}")

    @property
    def violates_local_realism(self) -> bool:
        return self.chsh_max > 2.0


def _bell_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlation matrices T, m = sum of the two largest eigenvalues of T^T T,
    and the CHSH maxima 2 sqrt(m), for each matrix of the stack."""
    t = expectations(pairs, _PAULI_PAIRS).reshape(-1, 3, 3)
    # T^T T is exactly symmetric (a property test pins it); complex, for the solver's bits
    eigs = np.linalg.eigvalsh(np.matmul(t.transpose(0, 2, 1), t).astype(complex))
    m = eigs[:, 2] + eigs[:, 1]  # ascending: the largest plus the next
    return t, m, 2 * np.sqrt(np.where(m < 0.0, 0.0, m))


def horodecki_bell_max(rho_pq: DensityMatrix) -> BellReport:
    """Maximum CHSH value over all dichotomic observable choices.

    Builds T_ij = Tr(rho sigma_i (x) sigma_j) and returns
    2*sqrt(sum of two largest eigenvalues of T^T T).
    """
    _require_two_qubits(rho_pq, "horodecki_bell_max")
    t, m, chsh = _bell_rows(rho_pq.mat[None])
    return BellReport(t[0], float(m[0]), float(chsh[0]))


def _transit_maps(pairs_ab: np.ndarray) -> np.ndarray:
    """Bob's transit map read off each AB pair of an ``(N, 4, 4)`` stack, which is the map's
    Choi state (README, "Bob's transit map"): ``m[n, i, k] = Tr(rho_n (E_i^T (x) s_k))`` for
    ``E = (|0><0|, |1><1|, x, y)`` and ``s = (I, x, y, z)``.  An input ``(I + r.s)/2`` leaves
    with weight ``v[0]`` and Bloch vector ``v[1:] / v[0]``, ``v = (1 + r_z, 1 - r_z, r_x, r_y) m``.
    """
    return expectations(pairs_ab, _TRANSIT_OPS).reshape(-1, 4, 4)


@lru_cache(maxsize=128)
def _transit_map(scenario: AttackScenario) -> np.ndarray:
    """The scenario's map, read-only and memoised per scenario (the 128 most recent)."""
    m = _transit_maps(_pair_stack(scenario_pure_state(scenario).amplitudes[None])[:1])[0]
    m.setflags(write=False)
    return m


def fidelity_disturbance_shrink(
    scenario, input_bloch: Sequence[float]
) -> tuple[float, float, tuple[float, float, float]]:
    """Fidelity F, disturbance D = 1 - F, and per-axis Bloch shrink factors.

    ``scenario`` is an :class:`AttackScenario`, whose map (:func:`_transit_maps`) is read
    off its AB pair, or any callable mapping a 2x2 input density matrix to Bob's output
    density matrix, which must be a finite 2x2 matrix of numbers.  ``input_bloch`` must be
    a finite unit vector of real numbers (a pure input state); the shrink factor along axis
    i is ``r_out[i] / r_in[i]`` and is NaN for axes where the input component vanishes.  A
    bad argument or channel output raises ``ValueError`` naming it.
    """
    r_in = _real_grid(input_bloch, "input Bloch vector entry")
    if r_in.shape != (3,):
        raise ValueError(f"input Bloch vector must have 3 components, got {r_in.shape}")
    if not np.isfinite(r_in).all():
        raise ValueError(f"input Bloch vector must be finite, got {tuple(r_in.tolist())}")
    norm = float(np.linalg.norm(r_in))
    if norm < 1e-12:
        raise ValueError("input Bloch vector must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"input Bloch vector must be unit length, got |r| = {norm}")
    if callable(scenario):  # a caller's channel
        # one sum over the Pauli stack, term by term in stack order, and one
        # stacked trace: the floats of a sum and a trace per Pauli
        rho_in = 0.5 * (np.eye(2, dtype=complex) + (r_in[:, None, None] * _PAULIS).sum(axis=0))
        rho_out = as_matrix(scenario(rho_in), "channel output")
        if rho_out.shape != (2, 2):
            raise ValueError(f"channel output must be a 2x2 matrix, got shape {rho_out.shape}")
        fidelity = float(np.trace(rho_in @ rho_out).real)
        r_out = np.trace(rho_out @ _PAULIS, axis1=1, axis2=2).real.tolist()
    else:
        x, y, z = r_in.tolist()
        v = np.array([1.0 + z, 1.0 - z, x, y]) @ _transit_map(scenario)
        if v[0] <= 1e-12:
            raise ValueError("attack annihilates state: output trace vanishes")
        r_out = (v[1:] / v[0]).tolist()
        fidelity = 0.5 * (1.0 + (x * r_out[0] + y * r_out[1] + z * r_out[2]))
    alpha = tuple(out / r if abs(r) > 1e-12 else math.nan for out, r in zip(r_out, r_in.tolist()))
    return fidelity, 1.0 - fidelity, alpha


# Checked MetricsRow fields in check order: (ceiling, as shown); every floor is 0.
_ROW_BOUNDS = {
    **dict.fromkeys(("i_ab", "i_ae", "i_be"), (2.0, "2")),
    "gain": (0.5, "0.5"),
    **dict.fromkeys(("bell_ab", "bell_ae", "bell_be"), (_CHSH_CEILING, "2*sqrt(2)")),
    "qber": (1.0, "1"),
}
_ROW_CEILINGS = np.array([[ceiling] for ceiling, _ in _ROW_BOUNDS.values()])


@dataclass(frozen=True)
class MetricsRow:
    """All metrics for one attack strength."""

    phi: float
    i_ab: float
    i_ae: float
    i_be: float
    gain: float
    bell_ab: float
    bell_ae: float
    bell_be: float
    qber: float
    secure: bool

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        for name, (ceiling, shown) in _ROW_BOUNDS.items():
            v = getattr(self, name)
            if not (0.0 <= v <= ceiling):
                raise ValueError(f"{name} = {v!r} outside [0, {shown}]")

    @property
    def min_eve(self) -> float:
        return min(self.i_ae, self.i_be)


_ROW_FIELDS = tuple(f.name for f in fields(MetricsRow))


def _score_states(phis: np.ndarray, amps: np.ndarray) -> dict[str, np.ndarray]:
    """The metric columns of the three-qubit states of an ``(N, 8)`` stack of amplitudes.

    ``amps`` are checked, so their reductions are valid states by
    construction and are not checked again.  The AB, AE and BE reductions,
    formed from the amplitudes, are scored as one pair-major ``(3N, 4, 4)``
    stack, whose row ``i`` is point ``i % N``.  The round-off guards run
    stage by stage: the matched joints (all pairs in Z, then all pairs in
    X), gain, CHSH, QBER and the row bounds, checked as one ``(8, N)`` array;
    the first row out of bounds, built checked, raises its own error.  A
    failing row ``i`` of the pair stack is reported as point ``i % N``,
    which :func:`evaluate_rows` narrows to the first point that fails alone.
    """
    n = len(amps)
    pairs = _pair_stack(amps)
    try:
        per_setting, z_joint = _matched_mi_rows(pairs)
        mi = _average_settings(per_setting).reshape(3, n)
        gain = _gain_rows(pairs[n : 2 * n])
        bell = _bell_rows(pairs)[2].reshape(3, n)
        qber_ab = _error_rate_rows(z_joint[:n], 0.0)  # the key-basis joint of I(A:B)
    except RowError as exc:
        raise RowError(exc.row % n, str(exc)) from exc
    columns = dict(zip(_ROW_FIELDS, (phis, *mi, gain, *bell, qber_ab, _secure_rows(*mi))))
    bounded = np.concatenate((mi, gain[None], bell, qber_ab[None]))  # _ROW_BOUNDS, in order
    bad = ~((bounded >= 0.0) & (bounded <= _ROW_CEILINGS))
    if np.count_nonzero(bad):
        i = int(np.argmax(bad.any(axis=0)))
        try:
            MetricsRow(*(column[i].item() for column in columns.values()))
        except ValueError as exc:
            raise RowError(i, str(exc)) from exc
    return columns


def evaluate_rows(kind: str, phis, partner: str | None = None,
                  phi1: float | None = None) -> dict[str, np.ndarray]:
    """Metric columns of one scenario family over a grid of attack strengths, in one pass.

    One ``(N,)`` array per :class:`MetricsRow` field, in field order, boolean for ``secure``:
    entry ``n`` is that field of ``evaluate_row(AttackScenario(kind, phis[n], partner,
    phi1))``, bit for bit.  The bounds are checked by column; the only row built is the
    first that fails them, as a checked :class:`MetricsRow`.  A failure raises
    :class:`~qswitch_qkd.linalg.RowError` for the first failing row, with the message that
    row raises on its own; a failure shared by every row (an unknown kind or partner,
    ``phis`` with more than one axis) is a plain ``ValueError``.
    """
    phis = _real_grid(phis, "attack strength phi") + 0.0  # -0.0 -> +0.0, as AttackScenario
    try:
        return _score_states(phis, scenario_amplitudes(kind, phis, partner, phi1))
    except RowError as exc:
        if 0 < exc.row < len(phis):
            # an earlier row may fail a later stage; it is the one to report
            evaluate_rows(kind, phis[: exc.row], partner, phi1)
        raise


def evaluate_row(scenario: AttackScenario) -> MetricsRow:
    """Compute the full metrics row for one scenario point: the one-point case of
    :func:`evaluate_rows`, scored on the memoised :func:`scenario_pure_state`."""
    amps = scenario_pure_state(scenario).amplitudes[None]
    columns = _score_states(np.array([scenario.phi]), amps)
    row = object.__new__(MetricsRow)  # its one row, checked by column
    row.__dict__.update(zip(columns, [column.item() for column in columns.values()]))
    return row
