"""Named verification suites behind the ``verify`` CLI command.

Each suite re-derives a closed form, algebraic identity, or oracle
comparison and reports pass/fail with a short detail string.  All suites
pass on a healthy build; they exist so a binary installation can vouch for
itself without the test tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import hermitian_eigenvalues
from .metrics import (
    evaluate_rows,
    horodecki_bell_max,
    matched_error_rate,
    mutual_information,
)
from .oracle import chsh_bruteforce
from .qstate import (
    DensityMatrix,
    embed,
    make_gate,
    measure_probs,
    partial_trace,
    pure_to_density,
)
from .scenarios import (
    reduced_pairs,
    scenario_amplitudes,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from .switch import (
    ControlQubit,
    KrausChannel,
    SwitchSpec,
    apply_switch_full,
    apply_switch_postselected,
    lambda_branch,
    switch_kraus_ops,
    traced_switch,
)

__all__ = ["CheckResult", "ALL_SUITES", "run_all"]

_GRID = np.linspace(0.0, math.pi / 2, 101)
# Where the SWAP-partner gain overtakes the plain attack: the closed forms
# |1/(cos 2phi + 3) - 1/4| and cos^2(phi)/4 cross at tan^2(phi) = sqrt(2).
GAIN_RATIO_CROSSING = math.atan(2.0 ** 0.25)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_channel(rng: np.random.Generator, d: int, n_ops: int) -> KrausChannel:
    g = rng.normal(size=(d * n_ops, d)) + 1j * rng.normal(size=(d * n_ops, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * d:(i + 1) * d, :] for i in range(n_ops)))


def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m), dims)


def check_linalg_algebra(seed: int = 0) -> CheckResult:
    """Eigenvalue identities: sum equals trace, unitary invariance, descending order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (g + g.conj().T) / 2
        eigs = hermitian_eigenvalues(h)
        worst = max(worst, abs(float(np.sum(eigs)) - np.trace(h).real))
        u = _random_unitary(rng, 6)
        rotated = hermitian_eigenvalues(u @ h @ u.conj().T)
        worst = max(worst, float(np.max(np.abs(eigs - rotated))))
        if list(eigs) != sorted(eigs, reverse=True):
            return CheckResult("linalg-algebra", False, "eigenvalues not sorted descending")
    ok = worst <= 1e-9
    return CheckResult("linalg-algebra", ok, f"max deviation {worst:.3e}")


def check_state_operations(seed: int = 0) -> CheckResult:
    """Partial-trace invariance, embedding composition, measurement normalization."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        rho = _random_density(rng, (2, 2, 2))
        u = _random_unitary(rng, 2)
        # acting unitarily on a traced-out subsystem cannot move the kept marginal
        big = embed(u, [1], [2, 2, 2])
        rotated = DensityMatrix(big @ rho.mat @ big.conj().T, rho.dims)
        before = partial_trace(rho, [0, 2]).mat
        after = partial_trace(rotated, [0, 2]).mat
        worst = max(worst, float(np.max(np.abs(before - after))))
        u2, w2 = _random_unitary(rng, 4), _random_unitary(rng, 4)
        lhs = embed(u2 @ w2, [0, 2], [2, 2, 2])
        rhs = embed(u2, [0, 2], [2, 2, 2]) @ embed(w2, [0, 2], [2, 2, 2])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    if worst > 1e-9:
        return CheckResult("state-operations", False, f"identities off by {worst:.3e}")
    worst = 0.0
    for _ in range(1000):
        rho = _random_density(rng, (2, 2))
        probs = measure_probs(rho, [rng.uniform(0, math.pi), rng.uniform(0, math.pi)])
        worst = max(worst, abs(sum(probs.values()) - 1.0))
    ok = worst <= 1e-9
    return CheckResult("state-operations", ok, f"max probability-sum deviation {worst:.3e}")


def check_kraus_completeness(seed: int = 0) -> CheckResult:
    """sum M'M = I for the switch Kraus set, over random channel pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        spec = SwitchSpec(_random_channel(rng, 2, 2), _random_channel(rng, 2, 3))
        ms = switch_kraus_ops(spec)
        total = sum(m.conj().T @ m for m in ms)
        worst = max(worst, float(np.max(np.abs(total - np.eye(4)))))
    ok = worst <= 1e-9
    return CheckResult("switch-kraus-completeness", ok, f"max |sum M'M - I| = {worst:.3e}")


def check_branch_decomposition(seed: int = 0) -> CheckResult:
    """Traced switch equals control-traced full switch and branch mixing."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        u, v = _random_unitary(rng, 4), _random_unitary(rng, 4)
        rho = _random_density(rng, (2, 2))
        via_tracing = traced_switch(u, v, rho).mat
        full = apply_switch_full(
            SwitchSpec(KrausChannel((u,)), KrausChannel((v,)), ControlQubit()), rho
        )
        via_full = partial_trace(full, [0, 1]).mat
        worst = max(worst, float(np.max(np.abs(via_tracing - via_full))))
        lp, lm = lambda_branch(u, v, +1), lambda_branch(u, v, -1)
        ident = lp.conj().T @ lp + lm.conj().T @ lm
        worst = max(worst, float(np.max(np.abs(ident - np.eye(4)))))
        probs = []
        for branch in (+1, -1):
            try:
                probs.append(apply_switch_postselected(u, v, rho, branch)[1])
            except ValueError:
                probs.append(0.0)
        worst = max(worst, abs(sum(probs) - 1.0))
    ok = worst <= 1e-9
    return CheckResult("switch-branch-decomposition", ok, f"max deviation {worst:.3e}")


def check_scenario_states(seed: int = 0) -> CheckResult:
    """Scenario constructors against their closed-form state vectors."""
    worst = 0.0
    for phi in np.linspace(0.0, math.pi / 2, 11):
        c = math.cos(phi)
        target = np.zeros(8, dtype=complex)
        target[0b000] = 1.0 / math.sqrt(1 + c * c)
        target[0b101] = c / math.sqrt(1 + c * c)
        rho = switch_attack_state(phi, "SWAP")
        fid = float((target.conj() @ rho.mat @ target).real)
        worst = max(worst, abs(1.0 - fid))
        # independent route: post-selected switch on the embedded pair
        u = embed(make_gate("U_SG", [phi]), [1, 2], [2, 2, 2])
        v = embed(make_gate("SWAP"), [1, 2], [2, 2, 2])
        base = np.zeros(8, dtype=complex)
        base[0b000] = base[0b110] = 1 / math.sqrt(2)
        via_switch, _ = apply_switch_postselected(
            u, v, pure_to_density(base, (2, 2, 2)), +1
        )
        worst = max(worst, float(np.max(np.abs(via_switch.mat - rho.mat))))
        worst = max(worst, abs(sg_state(phi).purity() - 1.0))
        # the SWAP-partner state leaves Bob unentangled: his marginal is Z-diagonal
        rho_b = partial_trace(rho, [1]).mat
        worst = max(worst, float(abs(rho_b[0, 1])))
        chi = symmetric_cnot_state(phi)
        worst = max(worst, abs(float(np.trace(chi.mat).real) - 1.0))
    ok = worst <= 1e-9
    return CheckResult("scenario-states", ok, f"max deviation {worst:.3e}")


def _pair_states(kind: str, phis, partner: str | None, pair: str) -> list[DensityMatrix]:
    """The ``pair`` reduction of one scenario family at every ``phi``, from one state stack."""
    amps = scenario_amplitudes(kind, phis, partner)
    pairs = reduced_pairs(amps[:, :, None] * amps.conj()[:, None, :])[pair]
    return [DensityMatrix(m, (2, 2)) for m in pairs]


def check_gain_closed_forms(seed: int = 0) -> CheckResult:
    """Information gain against its closed forms on the sweep grid."""
    g_sg = np.array([row.gain for row in evaluate_rows("SG", _GRID)])
    worst_sg = 0.0
    for phi, g in zip(_GRID, g_sg):
        worst_sg = max(worst_sg, abs(g - 0.25 * math.cos(phi) ** 2))
    if worst_sg > 1e-9:
        return CheckResult("gain-closed-forms", False, f"plain attack gain off by {worst_sg:.3e}")
    inner = (_GRID >= 0.01) & (_GRID <= math.pi / 2 - 0.01)
    g_xz = [row.gain for row in evaluate_rows("SWITCH", _GRID[inner], "XZ")]
    worst_ratio = 0.0
    for phi, g, g_plain in zip(_GRID[inner], g_xz, g_sg[inner]):
        worst_ratio = max(worst_ratio, abs(g / g_plain - 1.0 / math.cos(phi)))
    if worst_ratio > 1e-7:
        return CheckResult("gain-closed-forms", False, f"XZ/plain ratio off by {worst_ratio:.3e}")
    g_swap = [row.gain for row in evaluate_rows("SWITCH", _GRID, "SWAP")]
    worst_swap = 0.0
    crossing_ok = True
    for phi, g, g_plain in zip(_GRID, g_swap, g_sg):
        worst_swap = max(worst_swap, abs(g - abs(1.0 / (math.cos(2 * phi) + 3.0) - 0.25)))
        if 0.0 < phi < math.pi / 2 and abs(phi - GAIN_RATIO_CROSSING) > 0.02:
            if (g / g_plain > 1.0) != (phi > GAIN_RATIO_CROSSING):
                crossing_ok = False
    if worst_swap > 1e-9:
        return CheckResult("gain-closed-forms", False, f"SWAP gain off by {worst_swap:.3e}")
    if not crossing_ok:
        return CheckResult(
            "gain-closed-forms",
            False,
            f"SWAP/plain gain ratio does not cross 1 at arctan(2^(1/4)) = {GAIN_RATIO_CROSSING:.6f}",
        )
    return CheckResult(
        "gain-closed-forms",
        True,
        f"grid errors: plain {worst_sg:.1e}, XZ ratio {worst_ratio:.1e}, SWAP {worst_swap:.1e}",
    )


def check_qber_closed_form(seed: int = 0) -> CheckResult:
    """Key-basis error sin^2(phi)/2 and conjugate-basis error sin^2(phi/2)."""
    rows = evaluate_rows("SG", _GRID)
    worst = 0.0
    for phi, row, rho_ab in zip(_GRID, rows, _pair_states("SG", _GRID, None, "AB")):
        worst = max(worst, abs(row.qber - math.sin(phi) ** 2 / 2.0))
        worst = max(
            worst,
            abs(matched_error_rate(rho_ab, math.pi / 2) - math.sin(phi / 2) ** 2),
        )
    ok = worst <= 1e-9
    return CheckResult("qber-closed-form", ok, f"max grid deviation {worst:.3e}")


def check_bell_horodecki(seed: int = 0) -> CheckResult:
    """CHSH maxima for the SWAP-partner attack, against closed form and oracle."""
    rows = evaluate_rows("SWITCH", _GRID, "SWAP")
    worst_closed = 0.0
    worst_cap = 0.0
    for phi, row in zip(_GRID, rows):
        c = math.cos(phi)
        conc = 2 * c / (1 + c * c)
        worst_closed = max(worst_closed, abs(row.bell_ae - 2 * math.sqrt(1 + conc * conc)))
        for b in (row.bell_ab, row.bell_be):
            worst_cap = max(worst_cap, b - 2.0)
    if worst_closed > 1e-9:
        return CheckResult("bell-horodecki", False, f"closed form off by {worst_closed:.3e}")
    if worst_cap > 1e-9:
        return CheckResult("bell-horodecki", False, f"AB/BE exceed the local bound by {worst_cap:.3e}")
    # the grid runs from phi = 0 to exactly pi/2
    endpoints = (
        abs(rows[0].bell_ae - 2 * math.sqrt(2)),
        abs(rows[-1].bell_ae - 2.0),
    )
    if max(endpoints) > 1e-6:
        return CheckResult("bell-horodecki", False, f"endpoint values off by {max(endpoints):.3e}")
    worst_oracle = 0.0
    for rho_ae in _pair_states("SWITCH", np.linspace(0.0, math.pi / 2, 7), "SWAP", "AE"):
        ana = horodecki_bell_max(rho_ae).chsh_max
        num = chsh_bruteforce(rho_ae)
        worst_oracle = max(worst_oracle, abs(ana - num))
    ok = worst_oracle <= 1e-4
    return CheckResult(
        "bell-horodecki",
        ok,
        f"closed form {worst_closed:.1e}, oracle gap {worst_oracle:.1e}",
    )


def check_mutual_information(seed: int = 0) -> CheckResult:
    """Basic MI behaviour plus the plain-attack crossing at pi/4."""
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[0b00] = phi_plus[0b11] = 1 / math.sqrt(2)
    if abs(mutual_information(pure_to_density(phi_plus, (2, 2))) - 1.0) > 1e-9:
        return CheckResult("mutual-information", False, "maximally correlated pair is not 1 bit")
    product = np.zeros(4, dtype=complex)
    product[0b00] = 1.0
    if mutual_information(pure_to_density(product, (2, 2))) > 1e-9:
        return CheckResult("mutual-information", False, "product state has nonzero MI")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        if mutual_information(_random_density(rng, (2, 2))) < -1e-12:
            return CheckResult("mutual-information", False, "negative MI")
    # I(A:B) and I(A:E) of the plain attack swap roles under phi -> pi/2 - phi,
    # so their difference must change sign inside one grid step of pi/4.
    diffs = [row.i_ab - row.i_ae for row in evaluate_rows("SG", _GRID)]
    sign_changes = [
        (float(_GRID[i]), float(_GRID[i + 1]))
        for i in range(len(_GRID) - 1)
        if diffs[i] > 0 >= diffs[i + 1]
    ]
    ok = any(lo <= math.pi / 4 <= hi for lo, hi in sign_changes)
    detail = f"I(A:B)-I(A:E) sign change brackets: {sign_changes}"
    return CheckResult("mutual-information", ok, detail)


def check_sweep_determinism(seed: int = 0) -> CheckResult:
    """Two identical sweep renders must be byte-identical."""
    from .cli import SweepConfig, render_sweep_csv  # local import; cli imports this module

    config = SweepConfig(
        kind="SG", partner=None, phi1=None,
        phi_start=0.0, phi_end=math.pi / 2, steps=21,
        metrics=("mi", "gain", "bell", "qber", "secure"), output_path=None,
    )
    first = render_sweep_csv(config)
    second = render_sweep_csv(config)
    ok = first == second
    return CheckResult("sweep-determinism", ok, f"{len(first)} bytes rendered twice")


ALL_SUITES: tuple[Callable[[int], CheckResult], ...] = (
    check_linalg_algebra,
    check_state_operations,
    check_kraus_completeness,
    check_branch_decomposition,
    check_scenario_states,
    check_gain_closed_forms,
    check_qber_closed_form,
    check_bell_horodecki,
    check_mutual_information,
    check_sweep_determinism,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite and collect the results."""
    return [suite(seed) for suite in ALL_SUITES]
