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
  distribution per setting, and averages the two settings.  Per-setting
  values are available from :func:`mutual_information_by_setting`.
* :func:`qber` is the matched computational-basis (theta = 0) disagreement
  probability, the sifted-key error rate in the key basis; for the plain
  U_SG attack it equals sin^2(phi)/2.  The two matched bases disturb
  differently (the theta = pi/2 error is sin^2(phi/2));
  :func:`matched_error_rate` exposes the per-basis rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import hermitian_eigenvalues
from .qstate import DensityMatrix, PAULI_X, PAULI_Y, PAULI_Z, measure_probs
from .scenarios import AttackScenario, reduced_pair, scenario_pure_state, scenario_state

__all__ = [
    "MEASUREMENT_SETTINGS",
    "MetricsRow",
    "BellReport",
    "shannon_entropy",
    "information_gain",
    "mutual_information",
    "mutual_information_by_setting",
    "security_condition",
    "matched_error_rate",
    "qber",
    "horodecki_bell_max",
    "transit_channel",
    "fidelity_disturbance_shrink",
    "evaluate_row",
]

#: The two measurement settings used for every statistic in this module.
MEASUREMENT_SETTINGS = (0.0, math.pi / 2)

_CHSH_CEILING = 2 * math.sqrt(2) + 1e-9

# sigma_i (x) sigma_j for i, j in x, y, z, row-major: the operators behind T_ij.
_PAULI_PAIRS = np.array(
    [np.kron(si, sj) for si in (PAULI_X, PAULI_Y, PAULI_Z) for sj in (PAULI_X, PAULI_Y, PAULI_Z)]
)
_PAULI_PAIRS.setflags(write=False)


def shannon_entropy(dist: Sequence[float]) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    ps = np.asarray(list(dist), dtype=float)
    if ps.size == 0:
        raise ValueError("empty distribution")
    if np.any(ps < -1e-12):
        raise ValueError(f"negative probability in distribution: {ps.min()!r}")
    total = float(ps.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    ps = ps[ps > 0.0]
    return float(-np.sum(ps * np.log2(ps)))


def _require_two_qubits(rho: DensityMatrix, what: str) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"{what} needs a two-qubit state, got dims {rho.dims}")


def _eve_marginal(rho_ae: DensityMatrix, theta: float) -> dict[int, float]:
    probs = measure_probs(rho_ae, [None, theta])
    return {lam: probs[(lam,)] for lam in (+1, -1)}


def information_gain(rho_ae: DensityMatrix) -> float:
    """Eve's average information gain from her two measurement settings.

    G = 0.25 * sum_lambda |P(lambda|theta=0) - P(lambda|theta=pi/2)| where
    P(lambda|theta) is Eve's marginal outcome distribution (identity on the
    other party).
    """
    _require_two_qubits(rho_ae, "information_gain")
    t1, t2 = MEASUREMENT_SETTINGS
    p1 = _eve_marginal(rho_ae, t1)
    p2 = _eve_marginal(rho_ae, t2)
    return 0.25 * sum(abs(p1[lam] - p2[lam]) for lam in (+1, -1))


def _joint_mi(rho: DensityMatrix, theta: float) -> float:
    joint = measure_probs(rho, [theta, theta])
    p = {lam: joint[(lam, +1)] + joint[(lam, -1)] for lam in (+1, -1)}
    q = {lam: joint[(+1, lam)] + joint[(-1, lam)] for lam in (+1, -1)}
    mi = (
        shannon_entropy(list(p.values()))
        + shannon_entropy(list(q.values()))
        - shannon_entropy(list(joint.values()))
    )
    return max(mi, 0.0)


def mutual_information_by_setting(rho_pq: DensityMatrix) -> dict[float, float]:
    """Classical mutual information per matched setting (both parties theta)."""
    _require_two_qubits(rho_pq, "mutual_information")
    return {t: _joint_mi(rho_pq, t) for t in MEASUREMENT_SETTINGS}


def mutual_information(rho_pq: DensityMatrix) -> float:
    """Mutual information of matched-setting measurement outcomes, in bits,
    averaged over the two settings."""
    vals = mutual_information_by_setting(rho_pq)
    return sum(vals.values()) / len(vals)


def security_condition(i_ab: float, i_ae: float, i_be: float) -> bool:
    """Secret-key condition for one-way processing: I(A:B) > min(I(A:E), I(B:E))."""
    for name, v in (("i_ab", i_ab), ("i_ae", i_ae), ("i_be", i_be)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    return i_ab > min(i_ae, i_be)


def matched_error_rate(rho_ab: DensityMatrix, theta: float) -> float:
    """Probability that the two parties disagree when both measure ``theta``."""
    _require_two_qubits(rho_ab, "matched_error_rate")
    joint = measure_probs(rho_ab, [theta, theta])
    err = joint[(+1, -1)] + joint[(-1, +1)]
    if err > 1.0:
        # Two outcomes that together carry all the weight can sum to a few
        # ulps above 1; anything beyond the 1e-12 noise floor is a real fault.
        if err - 1.0 > 1e-12:
            raise ValueError(
                f"matched error rate at theta={theta!r} is {err!r}, "
                f"above 1 by more than the 1e-12 noise floor"
            )
        err = 1.0
    return err


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
        t = np.asarray(self.t_matrix, dtype=float)
        if t.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {t.shape}")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "t_matrix", t)
        if abs(self.chsh_max - 2 * math.sqrt(self.m_value)) > 1e-9:
            raise ValueError("chsh_max must equal 2*sqrt(m_value)")

    @property
    def violates_local_realism(self) -> bool:
        return self.chsh_max > 2.0


def horodecki_bell_max(rho_pq: DensityMatrix) -> BellReport:
    """Maximum CHSH value over all dichotomic observable choices.

    Builds T_ij = Tr(rho sigma_i (x) sigma_j) and returns
    2*sqrt(sum of two largest eigenvalues of T^T T).
    """
    _require_two_qubits(rho_pq, "horodecki_bell_max")
    # Copied out of the strided ``.real`` view so that T^T T is a contiguous
    # BLAS product, the one a per-entry T would get.
    t = np.trace(rho_pq.mat @ _PAULI_PAIRS, axis1=1, axis2=2).real.reshape(3, 3).copy()
    eigs = hermitian_eigenvalues(t.T @ t)
    m = float(eigs[0] + eigs[1])
    return BellReport(t, m, 2 * math.sqrt(max(m, 0.0)))


def transit_channel(scenario: AttackScenario) -> Callable[[np.ndarray], np.ndarray]:
    """Single-qubit map seen by Bob's incoming qubit under the scenario.

    The returned callable takes and returns a 2x2 density matrix.  Every
    scenario state is (I (x) K)|Phi+>, with K taking Bob's transit qubit to
    (Bob, Eve), so K is read off the state vector (Choi-Jamiolkowski):
    K[be, a] = sqrt(2) psi[a, be].  The map is rho -> Tr_E(K rho K^dagger),
    renormalized; for switch scenarios that is the post-selected branch.
    """
    k = np.sqrt(2) * scenario_pure_state(scenario).amplitudes.reshape(2, 4).T
    k_dag = k.conj().T

    def channel(rho_in: np.ndarray) -> np.ndarray:
        joint = k @ rho_in @ k_dag
        tr = float(np.trace(joint).real)
        if tr <= 1e-12:
            raise ValueError("attack annihilates state: output trace vanishes")
        return np.trace((joint / tr).reshape(2, 2, 2, 2), axis1=1, axis2=3)

    return channel


def fidelity_disturbance_shrink(
    scenario, input_bloch: Sequence[float]
) -> tuple[float, float, tuple[float, float, float]]:
    """Fidelity F, disturbance D = 1 - F, and per-axis Bloch shrink factors.

    ``scenario`` is an :class:`AttackScenario` or any callable mapping a 2x2
    input density matrix to Bob's output density matrix.  ``input_bloch``
    must be a unit vector (a pure input state); the shrink factor along
    axis i is ``r_out[i] / r_in[i]`` and is NaN for axes where the input
    component vanishes.
    """
    r_in = np.asarray(list(input_bloch), dtype=float)
    if r_in.shape != (3,):
        raise ValueError(f"input Bloch vector must have 3 components, got {r_in.shape}")
    norm = float(np.linalg.norm(r_in))
    if norm < 1e-12:
        raise ValueError("input Bloch vector must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"input Bloch vector must be unit length, got |r| = {norm}")
    channel = scenario if callable(scenario) else transit_channel(scenario)
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    rho_in = 0.5 * (np.eye(2, dtype=complex) + sum(r_in[i] * paulis[i] for i in range(3)))
    rho_out = np.asarray(channel(rho_in), dtype=complex)
    fidelity = float(np.trace(rho_in @ rho_out).real)
    r_out = np.array([float(np.trace(rho_out @ p).real) for p in paulis])
    alpha = tuple(
        r_out[i] / r_in[i] if abs(r_in[i]) > 1e-12 else math.nan for i in range(3)
    )
    return fidelity, 1.0 - fidelity, alpha


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
        for name in ("i_ab", "i_ae", "i_be"):
            v = getattr(self, name)
            if not (0.0 <= v <= 2.0):
                raise ValueError(f"{name} = {v!r} outside [0, 2]")
        for name in ("bell_ab", "bell_ae", "bell_be"):
            v = getattr(self, name)
            if not (0.0 <= v <= _CHSH_CEILING):
                raise ValueError(f"{name} = {v!r} outside [0, 2*sqrt(2)]")
        if not (0.0 <= self.qber <= 1.0):
            raise ValueError(f"qber = {self.qber!r} outside [0, 1]")

    @property
    def min_eve(self) -> float:
        return min(self.i_ae, self.i_be)


def evaluate_row(scenario: AttackScenario) -> MetricsRow:
    """Compute the full metrics row for one scenario point."""
    rho = scenario_state(scenario)
    pairs = {p: reduced_pair(rho, p) for p in ("AB", "AE", "BE")}
    i_ab = mutual_information(pairs["AB"])
    i_ae = mutual_information(pairs["AE"])
    i_be = mutual_information(pairs["BE"])
    return MetricsRow(
        phi=scenario.phi,
        i_ab=i_ab,
        i_ae=i_ae,
        i_be=i_be,
        gain=information_gain(pairs["AE"]),
        bell_ab=horodecki_bell_max(pairs["AB"]).chsh_max,
        bell_ae=horodecki_bell_max(pairs["AE"]).chsh_max,
        bell_be=horodecki_bell_max(pairs["BE"]).chsh_max,
        qber=qber(pairs["AB"]),
        secure=security_condition(i_ab, i_ae, i_be),
    )
