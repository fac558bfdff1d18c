"""Tripartite (Alice, Bob, Eve) attack-state constructors.

All scenarios start from the entangled resource |Phi+> = (|00> + |11>)/sqrt(2)
shared by Alice and Bob, with Eve's probe prepared in |0>.  Eve acts on the
(Bob, Eve) pair:

* ``SG`` — she applies the attack unitary U_SG(phi) directly.
* ``SWITCH`` / ``DRAFT_SWITCH`` — she feeds U_SG(phi) and a partner gate
  into a quantum switch and keeps the |+> control branch, i.e. applies the
  normalized anticommutator ``(U_SG P + P U_SG)/2``.
* ``SYMMETRIC_CNOT`` — the basis-symmetric probe coupling, given directly
  by its state vector
  cos(phi)|000> + (sin(phi)/2)(|101> + |011> + |100> + |010>).

``phi`` in [0, pi/2] is the attack strength in every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import check_rows
from .qstate import (
    DensityMatrix,
    PureState,
    _norm_sq_rows,
    _real_grid,
    _real_number,
    _require_density,
    _trace_out,
    check_pure_stack,
    gate_stack,
    make_gate,
)
from .switch import lambda_branch_stack

__all__ = [
    "SCENARIO_KINDS",
    "SWITCH_PARTNERS",
    "AttackScenario",
    "sg_state",
    "switch_attack_state",
    "symmetric_cnot_state",
    "scenario_pure_state",
    "scenario_amplitudes",
    "scenario_state",
    "reduced_pair",
]

SCENARIO_KINDS = ("SG", "SWITCH", "SYMMETRIC_CNOT", "DRAFT_SWITCH")
#: Partner gates accepted for switch-based scenarios.
SWITCH_PARTNERS = ("XZ", "SWAP", "CNOT", "U_SG", "V_DRAFT")
_PARAMETRIC_PARTNERS = ("U_SG", "V_DRAFT")

_DIMS = (2, 2, 2)  # Alice, Bob, Eve
_INV_SQRT2 = 1 / np.sqrt(2)  # each |Phi+> amplitude


def _normal_kind(kind) -> str:
    out = str(kind).upper().replace("-", "_")
    if out not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; known: {SCENARIO_KINDS}")
    return out


def _check_phis(phis: np.ndarray) -> None:
    check_rows(
        ~((phis >= 0.0) & (phis <= np.pi / 2 + 1e-12)),
        lambda i: f"attack strength phi must lie in [0, pi/2], got {float(phis[i])}",
    )


def _normal_partner(kind: str, partner, phi1) -> tuple[str | None, float | None]:
    partner = None if partner is None else str(partner).upper().replace("-", "_")
    if kind in ("SWITCH", "DRAFT_SWITCH"):
        if partner is None:
            raise ValueError(f"scenario {kind} requires a partner gate")
        if partner not in SWITCH_PARTNERS:
            raise ValueError(f"unknown partner {partner!r}; allowed: {SWITCH_PARTNERS}")
        if kind == "DRAFT_SWITCH" and partner not in _PARAMETRIC_PARTNERS:
            raise ValueError(
                f"partner {partner!r} is not valid for {kind}; allowed: {_PARAMETRIC_PARTNERS}"
            )
    elif partner is not None:
        raise ValueError(f"scenario {kind} takes no partner gate")
    phi1 = None if phi1 is None else _real_number(phi1, "second angle phi1") + 0.0  # -0.0 -> +0.0
    if partner in _PARAMETRIC_PARTNERS and phi1 is None:
        raise ValueError(f"partner {partner} requires the second angle phi1")
    if phi1 is not None and partner not in _PARAMETRIC_PARTNERS:
        what = f"partner {partner}" if partner else f"scenario {kind}"
        raise ValueError(
            f"{what} takes no second angle, got phi1={phi1!r}; "
            f"phi1 applies only to partners {_PARAMETRIC_PARTNERS}"
        )
    if phi1 is not None and not np.isfinite(phi1):
        raise ValueError(f"second angle phi1 must be finite, got {phi1!r}")
    return partner, phi1


@dataclass(frozen=True)
class AttackScenario:
    """One attack configuration: kind, strength, and optional partner gate.  A signed zero
    ``phi`` or ``phi1`` is read as +0.0, so that equal scenarios are the same state."""

    kind: str
    phi: float
    partner: str | None = None
    phi1: float | None = None

    def __post_init__(self):
        kind = _normal_kind(self.kind)
        phi = _real_number(self.phi, "attack strength phi") + 0.0  # -0.0 -> +0.0
        _check_phis(np.array([phi]))
        partner, phi1 = _normal_partner(kind, self.partner, self.phi1)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "phi1", phi1)


def _attack_amplitudes(ops: np.ndarray) -> np.ndarray:
    """Amplitudes of (I (x) op)|Phi+>|0> for each ``op`` of an ``(N, 4, 4)`` stack
    acting on (Bob, Eve), shape ``(N, 8)``.

    Alice's |a> pairs with the column of ``op`` that takes Bob's |a> and
    Eve's |0>: psi[a, be] = op[be, (a, 0)] / sqrt(2).
    """
    return (_INV_SQRT2 * ops[:, :, [0b00, 0b10]].transpose(0, 2, 1)).reshape(len(ops), 8)


def sg_state(phi: float) -> DensityMatrix:
    """Attack without a switch: (I (x) U_SG(phi)) |Phi+>|0>.

    The result is the pure state
    (|000> + cos(phi)|110> + sin(phi)|101>)/sqrt(2).
    """
    return scenario_state(AttackScenario("SG", phi))


def _switch_amplitudes(u: np.ndarray, partner: str, phi1: float | None, phis) -> np.ndarray:
    """Normalized |+>-branch amplitudes for an ``(N, 4, 4)`` stack ``u`` of U_SG(phi)."""
    # make_gate's checked fixed gate, or the floats it wraps for U_SG and V_DRAFT
    p = make_gate(partner).mat if phi1 is None else gate_stack(partner, phi1)[0]
    psi = _attack_amplitudes(lambda_branch_stack(u, p, +1))
    norm_sq = _norm_sq_rows(psi)
    check_rows(
        norm_sq < 1e-12,
        lambda i: f"attack annihilates state: switch branch has norm {float(norm_sq[i]):.3e} "
        f"for partner {partner} at phi={float(phis[i])}",
    )
    return psi / np.sqrt(norm_sq)[:, None]


def switch_attack_state(phi: float, partner: str, phi1: float | None = None) -> DensityMatrix:
    """Post-selected switch attack state on (A, B, E).

    Applies ``I (x) L`` with ``L = (U_SG(phi) P + P U_SG(phi))/2`` to the
    resource and renormalizes.  ``P`` is the partner gate on (Bob, Eve);
    U_SG and V_DRAFT partners take their own angle ``phi1``.
    """
    return scenario_state(AttackScenario("SWITCH", phi, partner, phi1))


def _symmetric_cnot_amplitudes(phis: np.ndarray) -> np.ndarray:
    c, s = np.cos(phis), np.sin(phis)
    amps = np.zeros((len(phis), 8), dtype=complex)
    amps[:, 0b000] = c
    for idx in (0b101, 0b011, 0b100, 0b010):
        amps[:, idx] = s / 2
    return amps


def symmetric_cnot_state(phi: float) -> DensityMatrix:
    """Symmetric individual attack state |chi> on (A, B, E)."""
    return scenario_state(AttackScenario("SYMMETRIC_CNOT", phi))


def scenario_pure_state(scenario: AttackScenario) -> PureState:
    """State vector of the scenario (every scenario here produces a pure state); every
    point's state is made here, memoised per scenario (the 128 most recent) and shared.
    Its type is checked here, for every point builder, before the memo sees it."""
    if not isinstance(scenario, AttackScenario):
        raise ValueError(f"scenario must be an AttackScenario, got {type(scenario).__name__}")
    return _pure_state(scenario)


@lru_cache(maxsize=128)
def _pure_state(scenario: AttackScenario) -> PureState:
    """The memo behind :func:`scenario_pure_state`: row 0 of :func:`_amplitudes` at the
    fields that :class:`AttackScenario` has already checked."""
    amps = _amplitudes(scenario.kind, np.array([scenario.phi]), scenario.partner, scenario.phi1)
    return PureState._derived(amps[0], _DIMS)  # checked by _amplitudes


def scenario_amplitudes(kind: str, phis, partner: str | None = None,
                        phi1: float | None = None) -> np.ndarray:
    """State vectors of one scenario family over a grid of attack strengths.

    Row ``n`` is the state vector of ``AttackScenario(kind, phis[n], partner,
    phi1)``, shape ``(N, 8)``; the per-point constructors of this module are
    row 0 of a one-point grid; ``phis`` with more than one axis is a
    ``ValueError``.  Every check of :class:`AttackScenario`, the gates and
    :class:`PureState` runs on the whole grid; the first check that fails
    raises :class:`~qswitch_qkd.linalg.RowError` for its first failing row
    (:func:`~qswitch_qkd.metrics.evaluate_rows` narrows that down to the
    first failing row overall).
    """
    kind = _normal_kind(kind)
    phis = _real_grid(phis, "attack strength phi") + 0.0  # -0.0 -> +0.0, as AttackScenario
    _check_phis(phis)
    partner, phi1 = _normal_partner(kind, partner, phi1)
    return _amplitudes(kind, phis, partner, phi1)


def _amplitudes(kind: str, phis: np.ndarray, partner: str | None,
                phi1: float | None) -> np.ndarray:
    """:func:`scenario_amplitudes` on arguments it has checked and normalised: the states,
    their switch branch norms and their amplitude norms are checked here."""
    if kind == "SYMMETRIC_CNOT":
        amps = _symmetric_cnot_amplitudes(phis)
    else:
        u = gate_stack("U_SG", phis)
        if kind == "SG":
            amps = _attack_amplitudes(u)
        else:
            amps = _switch_amplitudes(u, partner, phi1, phis)
    check_pure_stack(amps)
    return amps


def scenario_state(scenario: AttackScenario) -> DensityMatrix:
    """Density matrix of the scenario state on (A, B, E): |a><a| for the amplitudes ``a``
    of :func:`scenario_pure_state`."""
    a = scenario_pure_state(scenario).amplitudes
    return DensityMatrix._derived(np.outer(a, a.conj()), _DIMS)  # of checked amplitudes


_PAIR_INDICES = {"AB": (0, 1), "AE": (0, 2), "BE": (1, 2)}
# The amplitude index 4a + 2b + e of each (traced qubit's bit, pair AB/AE/BE, kept pair's index)
_PAIR_COLUMNS = np.array([[[0, 2, 4, 6], [0, 1, 4, 5], [0, 1, 2, 3]],
                          [[1, 3, 5, 7], [2, 3, 6, 7], [4, 5, 6, 7]]])


def reduced_pair(rho_abe: DensityMatrix, pair: str) -> DensityMatrix:
    """Two-qubit reduced state for pair 'AB', 'AE', or 'BE', unchecked as in
    :func:`~qswitch_qkd.qstate.partial_trace`, whose floats it gives."""
    key = str(pair).upper()
    if key not in _PAIR_INDICES:
        raise ValueError(f"pair must be one of {sorted(_PAIR_INDICES)}, got {pair!r}")
    _require_density(rho_abe, "rho_abe")
    if rho_abe.dims != _DIMS:
        raise ValueError(f"expected a three-qubit state, got dims {rho_abe.dims}")
    mats, dims = _trace_out(rho_abe.mat[None], _DIMS, _PAIR_INDICES[key])
    return DensityMatrix._derived(mats[0], dims)


def _pair_stack(amps: np.ndarray) -> np.ndarray:
    """The AB, AE and BE reductions of an ``(N, 8)`` stack of checked three-qubit
    amplitudes, pair-major as one ``(3N, 4, 4)`` stack whose row ``i`` reduces
    point ``i % N``; unchecked, as reductions of valid states are valid.  Each pair
    is ``M M'``, ``M`` the (kept pair, traced qubit) matrix of ``psi``, added over the
    traced qubit from +0.0: the floats of ``np.trace`` on |psi><psi|, product for product.
    """
    if not amps.imag.any():  # every family's: reduce and score in real arithmetic
        amps = amps.real
    m = amps[:, _PAIR_COLUMNS].transpose(1, 2, 0, 3)  # (traced, pair, point, kept)
    terms = m[..., :, None] * m.conj()[..., None, :]  # the products np.outer forms
    pairs = terms[0] + 0.0  # the +0.0 start of np.trace
    pairs += terms[1]
    return pairs.reshape(-1, 4, 4)
