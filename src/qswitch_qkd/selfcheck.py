"""Named verification suites behind the ``verify`` CLI command.

Each suite re-derives a closed form, algebraic identity, or oracle
comparison and reports pass/fail with a short detail string.  All suites
pass on a healthy build; they exist so a binary installation can vouch for
itself without the test tree.  A suite that raises ``ValueError`` (a check
inside the library rejecting what the suite built) fails with the
exception as its detail; the other suites still run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import hermitian_eigenvalues
from .metrics import (
    _average_settings,
    _error_rate_rows,
    _matched_joint,
    _matched_mi_rows,
    MetricsRow,
    evaluate_rows,
    horodecki_bell_max,
    mutual_information,
)
from .oracle import chsh_bruteforce
from .qstate import (
    DensityMatrix,
    check_density_stack,
    embed,
    gate_stack,
    make_gate,
    measure_probs_stack,
    partial_trace_stack,
    pure_to_density,
)
from .scenarios import reduced_pairs, scenario_amplitudes
from .switch import (
    ControlQubit,
    apply_switch_full_stack,
    apply_switch_postselected_stack,
    check_kraus_stack,
    lambda_branch_stack,
    switch_branch_stack,
    switch_kraus_stack,
    traced_switch_stack,
)

__all__ = ["CheckResult", "ALL_SUITES", "run_all"]

_GRID = np.linspace(0.0, math.pi / 2, 101)
# Where the SWAP-partner gain overtakes the plain attack: the closed forms
# |1/(cos 2phi + 3) - 1/4| and cos^2(phi)/4 cross at tan^2(phi) = sqrt(2).
GAIN_RATIO_CROSSING = math.atan(2.0 ** 0.25)


# Rows of each family on _GRID, keyed by (kind, partner): a dict only while
# run_all runs, so each family is scored once per verify and a suite run on
# its own scores afresh.
_grid_rows: dict[tuple[str, str | None], list[MetricsRow]] | None = None


def _grid_family(kind: str, partner: str | None = None) -> list[MetricsRow]:
    """``evaluate_rows(kind, _GRID, partner)``, scored once per :func:`run_all`."""
    if _grid_rows is None:
        return evaluate_rows(kind, _GRID, partner)
    key = (kind, partner)
    if key not in _grid_rows:
        _grid_rows[key] = evaluate_rows(kind, _GRID, partner)
    return _grid_rows[key]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _suite(name: str):
    """Mark a check as the suite ``name``: a ``ValueError`` it raises becomes a
    failed :class:`CheckResult` naming the exception."""

    def wrap(check: Callable[[int], CheckResult]) -> Callable[[int], CheckResult]:
        @functools.wraps(check)
        def run(seed: int = 0) -> CheckResult:
            try:
                return check(seed)
            except ValueError as exc:
                return CheckResult(name, False, f"{type(exc).__name__}: {exc}")

        return run

    return wrap


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _unitaries(ginibres) -> np.ndarray:
    """Haar-random unitaries of :func:`_ginibre` draws by one stacked QR, unvalidated."""
    q, r = np.linalg.qr(np.asarray(ginibres))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _random_channel(rng: np.random.Generator, d: int, n_ops: int) -> np.ndarray:
    """Kraus operators of a random channel, an unvalidated ``(n_ops, d, d)`` array."""
    g = rng.normal(size=(d * n_ops, d)) + 1j * rng.normal(size=(d * n_ops, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(n_ops, d, d)


def _random_density_stack(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """``n`` random ``d``-dimensional density matrices, an unvalidated ``(n, d, d)`` stack."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2)[:, None, None]


@_suite("linalg-algebra")
def check_linalg_algebra(seed: int = 0) -> CheckResult:
    """Eigenvalue identities: sum equals trace, unitary invariance, descending order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    gs = [_ginibre(rng, 6) for _ in range(50)]  # drawn h, u, h, u, ...
    for g, u in zip(gs[0::2], _unitaries(gs[1::2])):
        h = (g + g.conj().T) / 2
        eigs = hermitian_eigenvalues(h)
        worst = max(worst, abs(float(np.sum(eigs)) - np.trace(h).real))
        rotated = hermitian_eigenvalues(u @ h @ u.conj().T)
        worst = max(worst, float(np.max(np.abs(eigs - rotated))))
        if list(eigs) != sorted(eigs, reverse=True):
            return CheckResult("linalg-algebra", False, "eigenvalues not sorted descending")
    ok = worst <= 1e-9
    return CheckResult("linalg-algebra", ok, f"max deviation {worst:.3e}")


@_suite("state-operations")
def check_state_operations(seed: int = 0) -> CheckResult:
    """Partial-trace invariance, embedding composition, measurement normalization."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    mats, bigs = _random_density_stack(rng, 8, 50), []
    gs = [_ginibre(rng, d) for _ in range(50) for d in (2, 4, 4)]  # drawn u1, u2, w2, u1, ...
    for u1, u2, w2 in zip(*(_unitaries(gs[k::3]) for k in range(3))):
        bigs.append(embed(u1, [1], [2, 2, 2]))
        lhs = embed(u2 @ w2, [0, 2], [2, 2, 2])
        rhs = embed(u2, [0, 2], [2, 2, 2]) @ embed(w2, [0, 2], [2, 2, 2])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    # acting unitarily on a traced-out subsystem cannot move the kept marginal
    bigs = np.array(bigs)
    rotated = bigs @ mats @ bigs.conj().swapaxes(1, 2)
    marginals = []
    for stack in (mats, rotated):
        check_density_stack(stack)
        marginals.append(partial_trace_stack(stack, (2, 2, 2), [0, 2])[0])
        check_density_stack(marginals[-1])
    worst = max(worst, float(np.max(np.abs(marginals[0] - marginals[1]))))
    if worst > 1e-9:
        return CheckResult("state-operations", False, f"identities off by {worst:.3e}")
    mats = _random_density_stack(rng, 4, 1000)
    settings = rng.uniform(0, math.pi, size=(1000, 2))
    check_density_stack(mats)
    # one setting pair per row
    _, probs = measure_probs_stack(mats, (2, 2), [settings[:, 0], settings[:, 1]])
    worst = max(abs(sum(row) - 1.0) for row in probs.tolist())
    ok = worst <= 1e-9
    return CheckResult("state-operations", ok, f"max probability-sum deviation {worst:.3e}")


@_suite("switch-kraus-completeness")
def check_kraus_completeness(seed: int = 0) -> CheckResult:
    """sum M'M = I for the switch Kraus set, over random channel pairs."""
    rng = np.random.default_rng(seed)
    firsts, seconds = [], []
    for _ in range(100):
        firsts.append(_random_channel(rng, 2, 2))
        seconds.append(_random_channel(rng, 2, 3))
    firsts, seconds = np.array(firsts), np.array(seconds)
    check_kraus_stack(firsts)
    check_kraus_stack(seconds)
    ms = switch_kraus_stack(firsts, seconds)
    total = (ms.conj().swapaxes(-1, -2) @ ms).sum(axis=1)
    worst = float(np.max(np.abs(total - np.eye(4))))
    ok = worst <= 1e-9
    return CheckResult("switch-kraus-completeness", ok, f"max |sum M'M - I| = {worst:.3e}")


@_suite("switch-branch-decomposition")
def check_branch_decomposition(seed: int = 0) -> CheckResult:
    """Traced switch equals control-traced full switch and branch mixing; each
    branch is the full switch with the control projected on |+> or |->."""
    rng = np.random.default_rng(seed)
    uvs = _unitaries([_ginibre(rng, 4) for _ in range(400)])  # drawn u, v, u, v, ...
    us, vs, mats = uvs[0::2], uvs[1::2], _random_density_stack(rng, 4, 200)
    check_density_stack(mats)
    check_kraus_stack(us[:, None])  # unitarity, the check of a one-operator channel
    check_kraus_stack(vs[:, None])
    full = apply_switch_full_stack(us[:, None], vs[:, None], mats, ControlQubit())
    via_full, _ = partial_trace_stack(full, (2, 2, 2), [0, 1])
    worst = float(np.max(np.abs(traced_switch_stack(us, vs, mats) - via_full)))
    lp, lm = lambda_branch_stack(us, vs, +1), lambda_branch_stack(us, vs, -1)
    ident = lp.conj().swapaxes(1, 2) @ lp + lm.conj().swapaxes(1, 2) @ lm
    worst = max(worst, float(np.max(np.abs(ident - np.eye(4)))))
    # <+-|_control S(rho (x) |+><+|) |+->_control, from the (system, control) blocks
    blocks = full.reshape(-1, 4, 2, 4, 2)
    same = blocks[:, :, 0, :, 0] + blocks[:, :, 1, :, 1]
    cross = blocks[:, :, 0, :, 1] + blocks[:, :, 1, :, 0]
    total = 0.0
    for branch in (+1, -1):
        out = switch_branch_stack(us, vs, mats, branch)
        worst = max(worst, float(np.max(np.abs(out - (same + branch * cross) / 2.0))))
        prob = np.trace(out, axis1=1, axis2=2).real
        total = total + np.where(prob <= 1e-12, 0.0, prob)  # unreachable: probability 0
    worst = max(worst, float(np.max(np.abs(total - 1.0))))
    ok = worst <= 1e-9
    return CheckResult("switch-branch-decomposition", ok, f"max deviation {worst:.3e}")


@_suite("scenario-states")
def check_scenario_states(seed: int = 0) -> CheckResult:
    """Scenario constructors against their closed-form state vectors."""
    phis = np.linspace(0.0, math.pi / 2, 11)
    rho = _density_stack(scenario_amplitudes("SWITCH", phis, "SWAP"))
    c = np.cos(phis)
    targets = np.zeros((len(phis), 8), dtype=complex)
    targets[:, 0b000] = 1.0 / np.sqrt(1 + c * c)
    targets[:, 0b101] = c / np.sqrt(1 + c * c)
    # independent route: post-selected switch on the embedded pair
    us = np.kron(np.eye(2), gate_stack("U_SG", phis))  # embedded on (Bob, Eve)
    v = embed(make_gate("SWAP"), [1, 2], [2, 2, 2])
    base = np.zeros(8, dtype=complex)
    base[0b000] = base[0b110] = 1 / math.sqrt(2)
    via_switch, _ = apply_switch_postselected_stack(
        us, v, pure_to_density(base, (2, 2, 2)).mat[None], +1
    )
    check_density_stack(via_switch)
    sg = _density_stack(scenario_amplitudes("SG", phis))
    # the SWAP-partner state leaves Bob unentangled: his marginal is Z-diagonal
    rho_b, _ = partial_trace_stack(rho, (2, 2, 2), [1])
    check_density_stack(rho_b)
    chi = _density_stack(scenario_amplitudes("SYMMETRIC_CNOT", phis))
    worst = 0.0
    for n, target in enumerate(targets):
        fid = float((target.conj() @ rho[n] @ target).real)
        worst = max(worst, abs(1.0 - fid))
        worst = max(worst, float(np.max(np.abs(via_switch[n] - rho[n]))))
        worst = max(worst, abs(float(np.trace(sg[n] @ sg[n]).real) - 1.0))
        worst = max(worst, float(abs(rho_b[n, 0, 1])))
        worst = max(worst, abs(float(np.trace(chi[n]).real) - 1.0))
    ok = worst <= 1e-9
    return CheckResult("scenario-states", ok, f"max deviation {worst:.3e}")


def _density_stack(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of an ``(N, d)`` amplitude stack, checked."""
    mats = amps[:, :, None] * amps.conj()[:, None, :]  # row by row, as np.outer
    check_density_stack(mats)
    return mats


def _pair_reduction(kind: str, phis, partner: str | None, pair: str) -> np.ndarray:
    """The checked ``(N, 4, 4)`` ``pair`` reduction of one scenario family at every ``phi``."""
    amps = scenario_amplitudes(kind, phis, partner)
    return reduced_pairs(amps[:, :, None] * amps.conj()[:, None, :])[pair]


@_suite("gain-closed-forms")
def check_gain_closed_forms(seed: int = 0) -> CheckResult:
    """Information gain against its closed forms on the sweep grid."""
    g_sg = np.array([row.gain for row in _grid_family("SG")])
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
    g_swap = [row.gain for row in _grid_family("SWITCH", "SWAP")]
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


@_suite("qber-closed-form")
def check_qber_closed_form(seed: int = 0) -> CheckResult:
    """Key-basis error sin^2(phi)/2 and conjugate-basis error sin^2(phi/2)."""
    rows = _grid_family("SG")
    theta = math.pi / 2
    x_err = _error_rate_rows(_matched_joint(_pair_reduction("SG", _GRID, None, "AB"), theta), theta)
    worst = 0.0
    for phi, row, err in zip(_GRID, rows, x_err.tolist()):
        worst = max(worst, abs(row.qber - math.sin(phi) ** 2 / 2.0))
        worst = max(worst, abs(err - math.sin(phi / 2) ** 2))
    ok = worst <= 1e-9
    return CheckResult("qber-closed-form", ok, f"max grid deviation {worst:.3e}")


@_suite("bell-horodecki")
def check_bell_horodecki(seed: int = 0) -> CheckResult:
    """CHSH maxima for the SWAP-partner attack, against closed form and oracle."""
    rows = _grid_family("SWITCH", "SWAP")
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
    for m in _pair_reduction("SWITCH", np.linspace(0.0, math.pi / 2, 7), "SWAP", "AE"):
        rho_ae = DensityMatrix(m, (2, 2))
        ana = horodecki_bell_max(rho_ae).chsh_max
        num = chsh_bruteforce(rho_ae)
        worst_oracle = max(worst_oracle, abs(ana - num))
    ok = worst_oracle <= 1e-4
    return CheckResult(
        "bell-horodecki",
        ok,
        f"closed form {worst_closed:.1e}, oracle gap {worst_oracle:.1e}",
    )


@_suite("mutual-information")
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
    mats = _random_density_stack(rng, 4, 50)
    check_density_stack(mats)
    if (_average_settings(_matched_mi_rows(mats)[0]) < -1e-12).any():
        return CheckResult("mutual-information", False, "negative MI")
    # I(A:B) and I(A:E) of the plain attack swap roles under phi -> pi/2 - phi,
    # so their difference must change sign inside one grid step of pi/4.
    diffs = [row.i_ab - row.i_ae for row in _grid_family("SG")]
    sign_changes = [
        (float(_GRID[i]), float(_GRID[i + 1]))
        for i in range(len(_GRID) - 1)
        if diffs[i] > 0 >= diffs[i + 1]
    ]
    ok = any(lo <= math.pi / 4 <= hi for lo, hi in sign_changes)
    detail = f"I(A:B)-I(A:E) sign change brackets: {sign_changes}"
    return CheckResult("mutual-information", ok, detail)


@_suite("sweep-determinism")
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
    global _grid_rows
    _grid_rows = {}
    try:
        return [suite(seed) for suite in ALL_SUITES]
    finally:
        _grid_rows = None
