"""Named verification suites behind the ``verify`` CLI command.

Four suites check algebraic identities on random draws, one renders a sweep
twice, and five score :data:`LAWS`, the paper's closed forms.  All pass on a
healthy build, so an installation can vouch for itself without the test tree.
A suite that raises ``ValueError`` (a library check rejecting what the suite
built) fails with the exception as its detail; the other suites still run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import hermitian_eigenvalues_stack
from .metrics import (_average_settings, _bell_rows, _error_rate_rows, _matched_joint,
                      _matched_mi_rows, evaluate_rows)
from .oracle import chsh_bruteforce
from .qstate import _setting_kets, _trace_out, check_density_stack, embed, gate_stack, make_gate
from .scenarios import _PAIR_INDICES, _pair_stack, scenario_amplitudes
from .switch import (ControlQubit, apply_switch_full_stack, apply_switch_postselected_stack,
                     check_kraus_stack, lambda_branch_stack, switch_branch_stack,
                     switch_kraus_stack, traced_switch_stack)

__all__ = ["CheckResult", "Law", "LAWS", "ALL_SUITES", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """A suite's outcome; ``laws`` holds ``(name, deviation, tol)`` for each law it scored."""

    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    laws: tuple[tuple[str, float, float], ...] = ()


def _suite(name: str):
    """Mark a check as the suite ``name``: a ``ValueError`` it raises becomes a
    failed :class:`CheckResult` naming the exception.  The result carries the
    suite's wall time."""

    def wrap(check: Callable[[int], CheckResult]) -> Callable[[int], CheckResult]:
        @functools.wraps(check)
        def run(seed: int = 0) -> CheckResult:
            start = time.perf_counter()
            try:
                result = check(seed)
            except ValueError as exc:
                result = CheckResult(name, False, f"{type(exc).__name__}: {exc}")
            return dataclasses.replace(result, seconds=time.perf_counter() - start)

        return run

    return wrap


def _ginibre_stacks(rng: np.random.Generator, n: int, shapes) -> list[np.ndarray]:
    """``n`` rows of complex Gaussian matrices, one ``(n, *shape)`` stack per shape, from
    one ``rng.standard_normal`` call.  The stream is read row by row and, within a row,
    shape by shape, real part then imaginary part: the order of per-matrix draws."""
    sizes = [math.prod(shape) for shape in shapes]
    z = rng.standard_normal((n, 2 * sum(sizes)))
    stacks, at = [], 0
    for shape, size in zip(shapes, sizes):
        stack = np.empty((n, size), dtype=complex)  # re + 1j * im, built in place
        stack.real, stack.imag = z[:, at:at + size], z[:, at + size:at + 2 * size]
        stacks.append(stack.reshape(n, *shape))
        at += 2 * size
    return stacks


def _unitaries(ginibres: np.ndarray) -> np.ndarray:
    """Haar-random unitaries of a stack of square Ginibre matrices by one stacked QR,
    unvalidated."""
    q, r = np.linalg.qr(ginibres)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _random_density_stack(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """``n`` random ``d``-dimensional density matrices, an ``(n, d, d)`` stack.  ``G G' / tr``
    is a state by construction, so it is not checked (``tests/test_cli.py`` pins it)."""
    g = np.empty((n, d, d), dtype=complex)  # re + 1j * im, built in place
    g.real = rng.standard_normal((n, d, d))
    g.imag = rng.standard_normal((n, d, d))
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2)[:, None, None]


@_suite("linalg-algebra")
def check_linalg_algebra(seed: int = 0) -> CheckResult:
    """Eigenvalue identities: sum equals trace, unitary invariance, descending order."""
    g, u = _ginibre_stacks(np.random.default_rng(seed), 25, [(6, 6), (6, 6)])
    h = (g + g.conj().swapaxes(1, 2)) / 2
    u = _unitaries(u)
    eigs = hermitian_eigenvalues_stack(h)
    rotated = hermitian_eigenvalues_stack(u @ h @ u.conj().swapaxes(1, 2))
    if np.any(eigs[:, :-1] < eigs[:, 1:]):
        return CheckResult("linalg-algebra", False, "eigenvalues not sorted descending")
    worst = np.maximum(np.max(np.abs(eigs.sum(axis=1) - np.trace(h, axis1=1, axis2=2).real)),
                       np.max(np.abs(eigs - rotated)))
    ok = bool(worst <= 1e-9)
    return CheckResult("linalg-algebra", ok, f"max deviation {worst:.3e}")


@_suite("state-operations")
def check_state_operations(seed: int = 0) -> CheckResult:
    """Partial-trace invariance, embedding composition, measurement normalization."""
    rng = np.random.default_rng(seed)
    mats = _random_density_stack(rng, 8, 50)
    u1, u2, w2 = map(_unitaries, _ginibre_stacks(rng, 50, [(2, 2), (4, 4), (4, 4)]))
    bigs = embed(u1, [1], [2, 2, 2])
    lhs = embed(u2 @ w2, [0, 2], [2, 2, 2])
    rhs = embed(u2, [0, 2], [2, 2, 2]) @ embed(w2, [0, 2], [2, 2, 2])
    worst = np.max(np.abs(lhs - rhs))
    # acting unitarily on a traced-out subsystem cannot move the kept marginal
    rotated = bigs @ mats @ bigs.conj().swapaxes(1, 2)
    check_density_stack(rotated)  # what embed returned, through the rotation
    marginals = [_trace_out(stack, (2, 2, 2), [0, 2])[0] for stack in (mats, rotated)]
    for marginal in marginals:
        check_density_stack(marginal)
    worst = np.maximum(worst, np.max(np.abs(marginals[0] - marginals[1])))
    if not worst <= 1e-9:
        return CheckResult("state-operations", False, f"identities off by {worst:.3e}")
    mats = _random_density_stack(rng, 4, 1000)
    settings = rng.uniform(0, math.pi, size=(1000, 2))
    # each row's setting pair (a, b) as a rotation into the Z basis: the rows of R_a (x) R_b
    # are the real outcome kets of a and b, so Z on R rho R' measures (a, b) on rho
    ra, rb = _setting_kets(settings[:, 0]), _setting_kets(settings[:, 1])
    rot = (ra[:, :, None, :, None] * rb[:, None, :, None, :]).reshape(-1, 4, 4)
    probs = _matched_joint(rot @ mats @ rot.conj().swapaxes(1, 2), 0.0)
    worst = np.max(np.abs(probs.sum(axis=1) - 1.0))
    ok = bool(worst <= 1e-9)
    return CheckResult("state-operations", ok, f"max probability-sum deviation {worst:.3e}")


@_suite("switch-kraus-completeness")
def check_kraus_completeness(seed: int = 0) -> CheckResult:
    """sum M'M = I for the switch Kraus set, over random channel pairs."""
    # each pair's Kraus operators: the columns of one QR factor, split into 2x2 blocks
    firsts, seconds = (np.linalg.qr(g)[0].reshape(100, -1, 2, 2) for g in
                       _ginibre_stacks(np.random.default_rng(seed), 100, [(4, 2), (6, 2)]))
    check_kraus_stack(firsts)
    check_kraus_stack(seconds)
    ms = switch_kraus_stack(firsts, seconds)
    total = (ms.conj().swapaxes(-1, -2) @ ms).sum(axis=1)
    worst = np.max(np.abs(total - np.eye(4)))
    ok = bool(worst <= 1e-9)
    return CheckResult("switch-kraus-completeness", ok, f"max |sum M'M - I| = {worst:.3e}")


@_suite("switch-branch-decomposition")
def check_branch_decomposition(seed: int = 0) -> CheckResult:
    """Traced switch equals control-traced full switch and branch mixing; each
    branch is the full switch with the control projected on |+> or |->."""
    rng = np.random.default_rng(seed)
    us, vs = _unitaries(np.stack(_ginibre_stacks(rng, 200, [(4, 4), (4, 4)])))
    mats = _random_density_stack(rng, 4, 200)
    check_kraus_stack(us[:, None])  # unitarity, the check of a one-operator channel
    check_kraus_stack(vs[:, None])
    full = apply_switch_full_stack(us[:, None], vs[:, None], mats, ControlQubit())
    via_full, _ = _trace_out(full, (2, 2, 2), [0, 1])
    worst = np.max(np.abs(traced_switch_stack(us, vs, mats) - via_full))
    lp, lm = lambda_branch_stack(us, vs, +1), lambda_branch_stack(us, vs, -1)
    ident = lp.conj().swapaxes(1, 2) @ lp + lm.conj().swapaxes(1, 2) @ lm
    worst = np.maximum(worst, np.max(np.abs(ident - np.eye(4))))
    # <+-|_control S(rho (x) |+><+|) |+->_control, from the (system, control) blocks
    blocks = full.reshape(-1, 4, 2, 4, 2)
    same = blocks[:, :, 0, :, 0] + blocks[:, :, 1, :, 1]
    cross = blocks[:, :, 0, :, 1] + blocks[:, :, 1, :, 0]
    total = 0.0
    for branch in (+1, -1):
        out = switch_branch_stack(us, vs, mats, branch)
        worst = np.maximum(worst, np.max(np.abs(out - (same + branch * cross) / 2.0)))
        prob = np.trace(out, axis1=1, axis2=2).real
        total = total + np.where(prob <= 1e-12, 0.0, prob)  # unreachable: probability 0
    worst = np.maximum(worst, np.max(np.abs(total - 1.0)))
    ok = bool(worst <= 1e-9)
    return CheckResult("switch-branch-decomposition", ok, f"max deviation {worst:.3e}")


_GRID = np.linspace(0.0, math.pi / 2, 101)
# The grids a law is scored on; "inner" drops the ends of "sweep", where the plain gain vanishes.
_GRIDS = {"sweep": _GRID, "inner": _GRID[1:-1], "oracle": np.linspace(0.0, math.pi / 2, 7)}


def _outer(amps: np.ndarray) -> np.ndarray:
    return amps[:, :, None] * amps.conj()[:, None, :]  # row by row, as np.outer


class _Family:
    """A scenario family on a named grid; its amplitudes, pairs and metric columns are built on
    first use."""

    def __init__(self, kind: str, partner: str | None, grid: str):
        self.kind, self.partner, self.phis = kind, partner, _GRIDS[grid]

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        return scenario_amplitudes(self.kind, self.phis, self.partner)

    @functools.cached_property
    def pairs(self) -> dict[str, np.ndarray]:
        pairs = _pair_stack(self.amplitudes)
        return dict(zip(_PAIR_INDICES, pairs.reshape(3, -1, 4, 4)))

    @functools.cached_property
    def columns(self) -> dict[str, np.ndarray]:
        return evaluate_rows(self.kind, self.phis, self.partner)


# The families of the run_all in progress by (kind, partner, grid); a lone law scores afresh.
_families: dict[tuple[str, str | None, str], _Family] | None = None


def _family(kind: str, partner: str | None, grid: str) -> _Family:
    new = _Family(kind, partner, grid)
    return new if _families is None else _families.setdefault((kind, partner, grid), new)


@dataclass(frozen=True)
class Law:
    """A closed form of the paper: ``measured`` on a family against ``closed`` at its ``phi``.

    The deviation, passing at ``tol`` or below, is by ``test`` the distance ("equal"), the excess
    over ``closed`` ("bound"), or the largest ``|closed|`` at a sign mismatch ("crossing").
    """

    suite: str
    name: str
    family: tuple[str, str | None]  # kind, partner
    grid: str
    measured: Callable[[_Family], np.ndarray]
    closed: Callable[[np.ndarray], np.ndarray]
    tol: float
    test: str = "equal"

    def deviation(self) -> float:
        family = _family(*self.family, self.grid)
        measured, closed = self.measured(family), self.closed(family.phis)
        if self.test == "bound":
            return float(np.max(measured - closed, initial=0.0))
        if self.test == "crossing":
            wrong = (measured > 0) != (closed > 0)
            return float(np.max(np.abs(closed[wrong]), initial=0.0))
        return float(np.max(np.abs(measured - closed)))


def _swap_state(phis: np.ndarray) -> np.ndarray:
    """The SWAP-partner state (|000> + cos(phi)|101>)/sqrt(1 + cos^2 phi)."""
    c = np.cos(phis)
    amps = np.zeros((len(phis), 8))
    amps[:, 0b000], amps[:, 0b101] = 1.0, c
    return _outer(amps / np.sqrt(1 + c * c)[:, None])


def _swap_chsh(phis: np.ndarray) -> np.ndarray:
    """2 sqrt(1 + C^2), C = 2 cos(phi)/(1 + cos^2 phi) the SWAP-partner AE concurrence."""
    return 2 * np.sqrt(1 + (2 * np.cos(phis) / (1 + np.cos(phis) ** 2)) ** 2)


def _via_switch(family: _Family) -> np.ndarray:
    """The post-selected switch of U_SG and SWAP on (Bob, Eve) with a Bell pair AB."""
    us = np.kron(np.eye(2), gate_stack("U_SG", family.phis))  # embedded on (Bob, Eve)
    swap = embed(make_gate("SWAP"), [1, 2], [2, 2, 2])
    bell = np.zeros((1, 8))
    bell[0, [0b000, 0b110]] = 1 / math.sqrt(2)
    return apply_switch_postselected_stack(us, swap, _outer(bell), +1)[0]


def _unitarity_gap(family: _Family) -> np.ndarray:
    """max |U'U - I| of U_SG and of V_DRAFT at each angle: gate_stack builds them unchecked."""
    gates = np.stack([gate_stack(name, family.phis) for name in ("U_SG", "V_DRAFT")])
    return np.abs(gates.conj().swapaxes(-1, -2) @ gates - np.eye(4)).max(axis=(0, 2, 3))


LAWS: tuple[Law, ...] = (
    Law("scenario-states", "swap-state", ("SWITCH", "SWAP"), "sweep",
        lambda f: _outer(f.amplitudes), _swap_state, 1e-9),
    Law("scenario-states", "swap-state-via-switch", ("SWITCH", "SWAP"), "sweep",
        _via_switch, _swap_state, 1e-9),
    Law("scenario-states", "gate-unitarity", ("SG", None), "sweep", _unitarity_gap,
        lambda p: 0.0, 1e-9, "bound"),
    Law("gain-closed-forms", "plain-gain", ("SG", None), "sweep",
        lambda f: f.columns["gain"], lambda p: np.cos(p) ** 2 / 4, 1e-9),
    Law("gain-closed-forms", "xz-gain-ratio", ("SWITCH", "XZ"), "inner",
        lambda f: f.columns["gain"] / _family("SG", None, "sweep").columns["gain"][1:-1],
        lambda p: 1 / np.cos(p), 1e-7),
    Law("gain-closed-forms", "swap-gain", ("SWITCH", "SWAP"), "sweep",
        lambda f: f.columns["gain"], lambda p: np.abs(1 / (np.cos(2 * p) + 3) - 0.25), 1e-9),
    # the SWAP/plain gain ratio exceeds 1 where tan^2(phi) > sqrt(2), division-free
    Law("gain-closed-forms", "swap-plain-gain-crossing", ("SWITCH", "SWAP"), "sweep",
        lambda f: f.columns["gain"] - _family("SG", None, "sweep").columns["gain"],
        lambda p: p - math.atan(2 ** 0.25), 0.02, "crossing"),
    Law("qber-closed-form", "key-basis-qber", ("SG", None), "sweep",
        lambda f: f.columns["qber"], lambda p: np.sin(p) ** 2 / 2, 1e-9),
    Law("qber-closed-form", "x-basis-error", ("SG", None), "sweep",
        lambda f: _error_rate_rows(_matched_joint(f.pairs["AB"], math.pi / 2), math.pi / 2),
        lambda p: np.sin(p / 2) ** 2, 1e-9),
    Law("bell-horodecki", "swap-chsh-ae", ("SWITCH", "SWAP"), "sweep",
        lambda f: f.columns["bell_ae"], _swap_chsh, 1e-9),
    Law("bell-horodecki", "local-cap-ab-be", ("SWITCH", "SWAP"), "sweep",
        lambda f: np.maximum(f.columns["bell_ab"], f.columns["bell_be"]), lambda p: 2.0, 1e-9,
        "bound"),
    Law("bell-horodecki", "oracle-chsh-ae", ("SWITCH", "SWAP"), "oracle",
        lambda f: chsh_bruteforce(_bell_rows(f.pairs["AE"])[0]),
        _swap_chsh, 1e-4),
    # I(A:B) and I(A:E) of the plain attack swap roles under phi -> pi/2 - phi, so their
    # difference changes sign within a grid step of pi/4: only pi/4 itself may miss
    Law("mutual-information", "plain-mi-crossing", ("SG", None), "sweep",
        lambda f: f.columns["i_ab"] - f.columns["i_ae"], lambda p: math.pi / 4 - p,
        float(_GRID[1]) / 2, "crossing"),
)


def _law_suite(name: str, extra: Callable[[int], list[str]] = lambda seed: []):
    """The suite ``name``: its rows of :data:`LAWS`, then ``extra(seed)``, the faults it finds."""

    def check(seed: int = 0) -> CheckResult:
        scored = [(law, law.deviation()) for law in LAWS if law.suite == name]
        failed = [f"{law.name} off by {dev:.1e} (tol {law.tol:.0e})"
                  for law, dev in scored if not dev <= law.tol] + extra(seed)
        passed = ", ".join(f"{law.name} {dev:.1e}" for law, dev in scored)
        return CheckResult(name, not failed, "; ".join(failed) or passed,
                           laws=tuple((law.name, dev, law.tol) for law, dev in scored))

    check.__name__ = check.__qualname__ = "check_" + name.replace("-", "_")
    return _suite(name)(check)


def _mi_basics(seed: int) -> list[str]:
    """MI of a Bell pair (1 bit), a product state (0) and random states (never negative)."""
    pure = np.zeros((2, 4))
    pure[0, [0b00, 0b11]], pure[1, 0b00] = 1 / math.sqrt(2), 1.0
    mats = np.concatenate([_outer(pure), _random_density_stack(np.random.default_rng(seed), 4, 50)])
    mi = _average_settings(_matched_mi_rows(mats)[0])
    faults = {"maximally correlated pair is not 1 bit": abs(mi[0] - 1.0) > 1e-9,
              "product state has nonzero MI": mi[1] > 1e-9,
              "negative MI": (mi[2:] < -1e-12).any()}
    return [fault for fault, found in faults.items() if found]


check_scenario_states = _law_suite("scenario-states")
check_gain_closed_forms = _law_suite("gain-closed-forms")
check_qber_closed_form = _law_suite("qber-closed-form")
check_bell_horodecki = _law_suite("bell-horodecki")
check_mutual_information = _law_suite("mutual-information", _mi_basics)


@_suite("sweep-determinism")
def check_sweep_determinism(seed: int = 0) -> CheckResult:
    """Two identical sweep renders must be byte-identical."""
    from .cli import SweepConfig, compute_sweep, render_sweep_csv  # cli imports this module

    config = SweepConfig(
        kind="SG", partner=None, phi1=None,
        phi_start=0.0, phi_end=math.pi / 2, steps=21,
        metrics=("mi", "gain", "bell", "qber", "secure"), output_path=None,
    )
    first, second = (render_sweep_csv(compute_sweep(config)) for _ in range(2))
    ok = first == second
    return CheckResult("sweep-determinism", ok, f"{len(first)} bytes rendered twice")


ALL_SUITES: tuple[Callable[[int], CheckResult], ...] = (
    check_linalg_algebra, check_state_operations, check_kraus_completeness,
    check_branch_decomposition, check_scenario_states, check_gain_closed_forms,
    check_qber_closed_form, check_bell_horodecki, check_mutual_information,
    check_sweep_determinism,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite and collect the results; reject a negative seed before any runs."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    global _families
    _families = {}
    try:
        return [suite(seed) for suite in ALL_SUITES]
    finally:
        _families = None
