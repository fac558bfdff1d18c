"""The three benchmark workloads: inputs from a seed, the timed operation, and its check.

Each workload yields rounds of inputs; a round has a fixed composition
(one cycle over the sweep configs, one stratified block of points, one
``verify``), and the seed only draws the order and the free angles, so a
whole number of rounds always carries the same mix of work.

``run`` is the timed operation.  It calls the library only through module
attributes (``cli.main``, ``metrics.evaluate_row`` ...) so that the traced
run's wrappers, which replace those attributes, see every call.  ``check``
runs outside the timed region and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from qswitch_qkd import cli, metrics, qstate, scenarios, switch

HALF_PI = math.pi / 2
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Outcome:
    """Result of checking one operation."""

    attempted: int
    failed: int
    completed: bool  # the operation ran to the end, so its wall time is a latency sample
    problems: list[str] = field(default_factory=list)
    rows: int = 0  # sweep CSV rows written
    error: str = ""  # why a failed operation failed


# The library raises ``qber = 1.0000000000000002 outside [0, 1]`` on some valid
# inputs: a QBER that round-off lifts above 1.  The timed mixes leave those
# inputs out, so that every timed operation completes; each run replays them
# once, untimed, as ``defect_probes``, and prints how many still fail.  Once the
# round-off is fixed they complete and are checked like any other output.
def known_defect(kind: str, partner, phi: float, phi1) -> bool:
    """Whether an input is one the QBER round-off can fail on."""
    return (partner == "XZ" and phi == 0.0) or (partner == "V_DRAFT" and phi1 == HALF_PI)


# --------------------------------------------------------------------------- grid-sweep

# Every scenario the CLI accepts, on the default 101-point phi grid.  The grid
# of three more configs holds points the QBER round-off fails on (see
# ``known_defect``): they are the grid-sweep's defect probes.
GRID_CONFIGS = (
    ("sg", None, None),
    ("symmetric-cnot", None, None),
    ("switch", "swap", None),
    ("switch", "cnot", None),
    ("switch", "usg", 0.9),
    ("switch", "vdraft", 0.9),
    ("draft-switch", "usg", HALF_PI),
)
DEFECT_CONFIGS = (
    ("switch", "xz", None),
    ("switch", "vdraft", HALF_PI),
    ("draft-switch", "vdraft", HALF_PI),
)
GRID = np.linspace(0.0, HALF_PI, 101)  # the CLI's default sweep grid
PLOT_COLUMNS = ("i_ab", "i_ae", "i_be")
_KINDS = {"sg": "SG", "symmetric-cnot": "SYMMETRIC_CNOT", "switch": "SWITCH",
          "draft-switch": "DRAFT_SWITCH"}
_PARTNERS = {"xz": "XZ", "swap": "SWAP", "cnot": "CNOT", "usg": "U_SG", "vdraft": "V_DRAFT"}


def config_label(config) -> str:
    scenario, partner, phi1 = config
    label = scenario + (f"/{partner}" if partner else "")
    return label + (f" phi1={phi1!r}" if phi1 is not None else "")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_sweep_csv(config, text: str, golden: dict, verified: set) -> list[str]:
    """Problems with one completed sweep CSV: digest, shape, and recomputed MI/QBER/gain."""
    label = config_label(config)
    digest = sha256(text)
    want = golden.get(label)
    if want is not None and digest != want:
        return [f"{label}: CSV sha256 {digest[:16]}... differs from the recorded {want[:16]}..."]
    if digest in verified:
        return []
    lines = text.splitlines()
    if lines[:1] != [cli.CSV_HEADER] or len(lines) != len(GRID) + 1:
        return [f"{label}: CSV has header {lines[:1]} and {len(lines) - 1} rows"]
    kind, partner, phi1 = _KINDS[config[0]], _PARTNERS.get(config[1]), config[2]
    problems = []
    for phi, line in zip(GRID, lines[1:]):
        cells = dict(zip(cli.CSV_HEADER.split(","), line.split(",")))
        if cells["phi"] != f"{phi:.9g}":
            problems.append(f"{label}: row phi {cells['phi']} is not grid point {phi:.9g}")
            continue
        state = scenarios.scenario_pure_state(scenarios.AttackScenario(kind, float(phi), partner, phi1))
        for name, value in reference.pure_scores(state.amplitudes).items():
            if not abs(value - float(cells[name])) <= reference.printed_tolerance(cells[name]):
                problems.append(f"{label} phi={cells['phi']}: {name} {cells[name]} != {value!r}")
    if not problems:
        verified.add(digest)
    return problems


def check_plot_svg(label: str, text: str) -> list[str]:
    ok = (text.startswith("<svg") and text.endswith("</svg>\n")
          and text.count("<polyline") == len(PLOT_COLUMNS)
          and all(f">{c}</text>" in text for c in PLOT_COLUMNS))
    return [] if ok else [f"{label}: SVG plot is malformed"]


class GridSweep:
    """``sweep`` then ``plot`` through ``cli.main``; one operation per scenario config."""

    def __init__(self, workdir: Path, configs=GRID_CONFIGS, defect_probes=DEFECT_CONFIGS):
        self.workdir = workdir
        self.configs = configs
        self.defect_probes = defect_probes
        self.golden = json.loads(GOLDEN_PATH.read_text())
        self.verified: set[str] = set()  # digests whose rows were recomputed already

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [self.configs[i] for i in rng.permutation(len(self.configs))]

    def _paths(self, config):
        stem = config_label(config).replace("/", "-").replace(" ", "_")
        return self.workdir / f"{stem}.csv", self.workdir / f"{stem}.svg"

    def warmup(self):
        csv_path = self.workdir / "warmup.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--scenario", "sg", "--steps", "3", "--out", str(csv_path)])
            cli.main(["plot", str(csv_path), "--columns", ",".join(PLOT_COLUMNS),
                      "--out", str(self.workdir / "warmup.svg")])

    def run(self, config):
        scenario, partner, phi1 = config
        csv_path, svg_path = self._paths(config)
        csv_path.unlink(missing_ok=True)
        svg_path.unlink(missing_ok=True)
        argv = ["sweep", "--scenario", scenario, "--out", str(csv_path)]
        if partner:
            argv += ["--partner", partner]
        if phi1 is not None:
            argv += ["--phi1", repr(phi1)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc_sweep = cli.main(argv)
            rc_plot = None
            if rc_sweep == 0:
                rc_plot = cli.main(["plot", str(csv_path), "--columns", ",".join(PLOT_COLUMNS),
                                    "--out", str(svg_path)])
        return rc_sweep, rc_plot, err.getvalue()

    def check(self, config, result) -> Outcome:
        rc_sweep, rc_plot, err = result
        label = config_label(config)
        csv_path, svg_path = self._paths(config)
        if rc_sweep != 0:
            # A failed sweep is counted, not fatal, as long as it fails cleanly.
            problems = [] if rc_sweep == 1 and not csv_path.exists() else [
                f"{label}: sweep exited {rc_sweep} ({err.strip()})"]
            return Outcome(1, 1, False, problems, error=f"{label}: {err.strip()}")
        problems = check_sweep_csv(config, csv_path.read_text(), self.golden, self.verified)
        if rc_plot != 0:
            return Outcome(1, 1, False, problems, rows=len(GRID))
        problems += check_plot_svg(label, svg_path.read_text())
        return Outcome(1, 0, True, problems, rows=len(GRID))


# --------------------------------------------------------------------------- point-mix

POINT_COMBOS = (
    ("SG", None), ("SYMMETRIC_CNOT", None),
    ("SWITCH", "XZ"), ("SWITCH", "SWAP"), ("SWITCH", "CNOT"),
    ("SWITCH", "U_SG"), ("SWITCH", "V_DRAFT"),
    ("DRAFT_SWITCH", "U_SG"), ("DRAFT_SWITCH", "V_DRAFT"),
)
# Per block, each combo appears this often; two of its points sit at the phi
# endpoints 0 and pi/2 and, for partners with an angle, two at the phi1
# endpoints, so every block has the same endpoint rate.  The two endpoints the
# QBER round-off fails on (XZ at phi=0, V_DRAFT at phi1=pi/2) are drawn
# uniformly instead and replayed as defect probes.
POINTS_PER_COMBO = 16
BLOCH_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
CHECK_ATOL = 1e-9  # comparisons are written as ``not (... <= tol)`` so that NaN fails
_PAIRS = ("AB", "AE", "BE")


def point_block(rng: np.random.Generator, per_combo: int = POINTS_PER_COMBO) -> list[tuple]:
    points = []
    for kind, partner in POINT_COMBOS:
        takes_phi1 = partner in ("U_SG", "V_DRAFT")
        for i in range(per_combo):
            phi = 0.0 if i == 0 else HALF_PI if i == 1 else float(rng.uniform(0.0, HALF_PI))
            phi1 = None
            if takes_phi1:
                phi1 = 0.0 if i == 2 else HALF_PI if i == 3 else float(rng.uniform(0.0, HALF_PI))
            if known_defect(kind, partner, phi, phi1):
                if partner == "XZ":
                    phi = float(rng.uniform(0.0, HALF_PI))
                else:
                    phi1 = float(rng.uniform(0.0, HALF_PI))
            points.append((kind, partner, phi, phi1))
    return [points[i] for i in rng.permutation(len(points))]


def score_pairs(rho) -> dict:
    """The traced-state scoring: every metric of ``evaluate_row`` on a mixed state."""
    pairs = {p: scenarios.reduced_pair(rho, p) for p in _PAIRS}
    out = {"i_" + p.lower(): metrics.mutual_information(pairs[p]) for p in _PAIRS}
    out["gain"] = metrics.information_gain(pairs["AE"])
    out["qber"] = metrics.qber(pairs["AB"])
    out["bell"] = [metrics.horodecki_bell_max(pairs[p]).chsh_max for p in _PAIRS]
    return out


class PointMix:
    """Single points over kind x partner x phi x phi1, each scored on its own."""

    def __init__(self, per_combo: int = POINTS_PER_COMBO):
        self.per_combo = per_combo
        self.defect_probes = [("SWITCH", "XZ", 0.0, None)] + [
            (kind, "V_DRAFT", float(phi), HALF_PI)
            for kind in ("SWITCH", "DRAFT_SWITCH") for phi in GRID[::10]]

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield point_block(rng, self.per_combo)

    def warmup(self):
        for point in point_block(np.random.default_rng(0), 1)[:4]:
            self.run(point)

    def run(self, point):
        kind, partner, phi, phi1 = point
        try:
            scenario = scenarios.AttackScenario(kind, phi, partner, phi1)
            row = metrics.evaluate_row(scenario)
            fds = [metrics.fidelity_disturbance_shrink(scenario, axis) for axis in BLOCH_AXES]
            traced = None
            if partner is not None:
                dims = (2, 2, 2)
                u = qstate.embed(qstate.make_gate("U_SG", [phi]), [1, 2], dims)
                v = qstate.embed(qstate.make_gate(partner, [] if phi1 is None else [phi1]), [1, 2], dims)
                rho = switch.traced_switch(u, v, scenarios.sg_state(0.0))
                traced = (rho, score_pairs(rho))
        except ValueError as exc:
            return exc
        return row, fds, traced

    def check(self, point, result) -> Outcome:
        kind, partner, phi, phi1 = point
        label = f"{kind}/{partner} phi={phi!r} phi1={phi1!r}"
        if isinstance(result, ValueError):
            return Outcome(1, 1, False, error=f"{label}: {result}")
        row, fds, traced = result
        problems = []
        state = scenarios.scenario_pure_state(scenarios.AttackScenario(kind, phi, partner, phi1))
        for name, value in reference.pure_scores(state.amplitudes).items():
            if not abs(value - getattr(row, name)) <= CHECK_ATOL:
                problems.append(f"{label}: {name} {getattr(row, name)!r} != {value!r}")
        for axis, (fid, dist, shrink) in zip(BLOCH_AXES, fds):
            k = axis.index(1.0)
            others = [shrink[i] for i in range(3) if i != k]
            if not (-1e-12 <= fid <= 1 + 1e-12 and abs(fid + dist - 1.0) <= 1e-12
                    and abs(shrink[k]) <= 1 + CHECK_ATOL and all(math.isnan(a) for a in others)):
                problems.append(f"{label}: fidelity/shrink {fid!r}, {dist!r}, {shrink!r} on axis {k}")
        if traced is not None:
            rho, got = traced
            mat = np.asarray(rho.mat)
            if not (abs(np.trace(mat) - 1.0) <= CHECK_ATOL and np.max(np.abs(mat - mat.conj().T)) <= CHECK_ATOL):
                problems.append(f"{label}: traced switch state is not a unit-trace Hermitian matrix")
            for name, value in reference.scores(mat).items():
                if not abs(value - got[name]) <= CHECK_ATOL:
                    problems.append(f"{label}: traced {name} {got[name]!r} != {value!r}")
            if not all(b <= 2 * math.sqrt(2) + CHECK_ATOL for b in got["bell"]):
                problems.append(f"{label}: traced CHSH maxima {got['bell']!r} above 2*sqrt(2)")
        return Outcome(1, 0, True, problems)


# --------------------------------------------------------------------------- verify

class Verify:
    """The built-in verification suites through ``cli.main(["verify", ...])``."""

    defect_probes = ()

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [int(rng.integers(0, 2**31))]

    def warmup(self):
        import qswitch_qkd.selfcheck  # noqa: F401  (cmd_verify imports it lazily)

    def run(self, verify_seed: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--seed", str(verify_seed)])
        return rc, out.getvalue()

    def check(self, verify_seed: int, result) -> Outcome:
        rc, text = result
        lines = text.splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        failed = [line for line in lines if line.startswith("[FAIL]")]
        total = passed + len(failed)
        problems = [f"verify --seed {verify_seed}: {line}" for line in failed]
        if rc != 0 or total == 0 or not lines or lines[-1] != f"{passed}/{total} suites passed":
            problems.append(f"verify --seed {verify_seed} exited {rc}: {lines[-1:]}")
        return Outcome(max(total, 1), len(failed) if total else 1, True, problems)
