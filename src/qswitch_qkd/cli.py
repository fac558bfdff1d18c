"""Command-line interface: parameter sweeps, state dumps, self-verification, plots.

Subcommands
-----------
``sweep``   evaluate every metric on a phi grid and write one CSV row per point
``state``   print a scenario's tripartite state and its two-qubit reductions
``verify``  run the built-in verification suites (exit code 2 on failure)
``plot``    render columns of a sweep CSV to a standalone SVG line chart

The ``--scenario`` and ``--partner`` flags are the library's names (``SCENARIO_KINDS``
hyphenated, ``SWITCH_PARTNERS`` without ``_``).  Angles are radians unless ``--degrees`` is
given.  Exit codes: 0 success, 1 usage error or a closed stdout (``... | head -1``, which
ends the run quietly, or a stdout closed at launch), 2 verification failure.  A path or
column name that is not printable appears in messages as its ``repr``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .metrics import evaluate_rows
from .scenarios import (_PAIR_INDICES, SCENARIO_KINDS, SWITCH_PARTNERS, AttackScenario,
                        _pair_stack, scenario_pure_state)
from .svgchart import render_line_chart

__all__ = [
    "CSV_HEADER",
    "METRIC_GROUPS",
    "SweepConfig",
    "render_sweep_csv",
    "main",
]

CSV_HEADER = "phi,i_ab,i_ae,i_be,min_eve,gain,bell_ab,bell_ae,bell_be,qber,secure"
METRIC_GROUPS = ("mi", "gain", "bell", "qber", "secure")

_SCENARIO_FLAGS = {kind.lower().replace("_", "-"): kind for kind in SCENARIO_KINDS}
_PARTNER_FLAGS = {partner.lower().replace("_", ""): partner for partner in SWITCH_PARTNERS}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: scenario, phi grid, metric selection, output path (None: stdout)."""

    kind: str
    partner: str | None
    phi1: float | None
    phi_start: float
    phi_end: float
    steps: int
    metrics: tuple[str, ...]
    output_path: Path | None

    def __post_init__(self):
        for flag, value in (("phi-start", self.phi_start), ("phi-end", self.phi_end)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if self.phi_start > self.phi_end:
            raise ValueError(
                f"phi-start ({self.phi_start}) must not exceed phi-end ({self.phi_end})"
            )
        if not math.isfinite(self.phi_end - self.phi_start):
            raise ValueError(f"phi-end ({self.phi_end}) - phi-start ({self.phi_start}) overflows")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        metrics = tuple(self.metrics)
        if not metrics:
            raise ValueError("at least one metric must be requested")
        unknown = [m for m in metrics if m not in METRIC_GROUPS]
        if unknown:
            raise ValueError(
                f"unknown metrics {unknown}; available: {', '.join(METRIC_GROUPS)}"
            )
        object.__setattr__(self, "metrics", metrics)

    def grid(self) -> np.ndarray:
        return np.linspace(self.phi_start, self.phi_end, self.steps)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


# One CSV row, for any block of rows: each column as _fmt gives it, secure as true/false.
_CSV_ROW = ",".join(["{:.9g}"] * 10 + ["{}"]).format


def compute_sweep(config: SweepConfig) -> dict[str, np.ndarray]:
    """The metric columns of :func:`~qswitch_qkd.metrics.evaluate_rows` for the sweep, in
    ascending phi order, scored in one pass.

    A ``ValueError`` is re-raised naming the scenario, partner and both
    angles of the first failing point.
    """
    grid = config.grid()
    try:
        return evaluate_rows(config.kind, grid, config.partner, config.phi1)
    except ValueError as exc:
        phi = float(grid[getattr(exc, "row", 0)])  # a failure without a row fails every row
        raise ValueError(
            f"sweep scenario={config.kind} partner={config.partner} "
            f"phi={phi!r} phi1={config.phi1!r}: {exc}"
        ) from exc


def _min_eve(rows: dict[str, np.ndarray]) -> np.ndarray:
    # min(i_ae, i_be) of each row: i_be only where it is strictly smaller
    return np.where(rows["i_be"] < rows["i_ae"], rows["i_be"], rows["i_ae"])


def render_sweep_csv(rows: dict[str, np.ndarray]) -> str:
    """The sweep CSV of the metric columns ``rows`` (:func:`compute_sweep`)."""
    table = dict(rows, min_eve=_min_eve(rows), secure=np.where(rows["secure"], "true", "false"))
    lines = [CSV_HEADER, *map(_CSV_ROW, *(table[name].tolist() for name in CSV_HEADER.split(",")))]
    return "\n".join(lines) + "\n"


def _summary_line(config: SweepConfig, rows: dict[str, np.ndarray], dest: str) -> str:
    phi = rows["phi"].tolist()
    parts = [
        f"sweep {config.kind.lower()}"
        + (f"/{config.partner.lower()}" if config.partner else ""),
        f"{len(phi)} rows",
        f"phi [{_fmt(phi[0])}, {_fmt(phi[-1])}] -> {dest}",
    ]
    for group, name in (("mi", "i_ab"), ("mi", "min_eve"), ("gain", "gain"),
                        ("bell", "bell_ae"), ("qber", "qber")):
        if group in config.metrics:
            values = (_min_eve(rows) if name == "min_eve" else rows[name]).tolist()
            parts.append(f"{name} [{_fmt(min(values))}, {_fmt(max(values))}]")
    if "secure" in config.metrics:
        secure = rows["secure"]
        flips = [_fmt(phi[i + 1]) for i in np.flatnonzero(secure[1:] != secure[:-1]).tolist()]
        flip_note = f", flips before phi={'; '.join(flips)}" if flips else ""
        parts.append(f"secure {np.count_nonzero(secure)}/{len(phi)}{flip_note}")
    return " | ".join(parts)


def _shown(name: str | Path | None) -> str:
    """A column name or path (None: stdin) as a message line prints it: as is when printable,
    else as its repr, so that no name can split the line."""
    text = "<stdin>" if name is None else str(name)
    return text if text.isprintable() else repr(text)


def _write(text: str, path: Path | None, summary) -> int:
    """Write ``text`` to ``path`` (None: stdout), then the line ``summary(dest)``: to stdout
    after a file, to stderr after stdout."""
    if path is not None:
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {_shown(path)}: {exc}") from exc
        # a name that stdout's encoding cannot carry (an ASCII locale's) is shown escaped
        encoding = getattr(sys.stdout, "encoding", None) or "utf-8"  # None: closed at launch
        print(summary(_shown(path)).encode(encoding, "backslashreplace").decode(encoding))
    elif sys.stdout is not None:  # None: closed at launch, which main reports
        sys.stdout.flush()  # the text layer's own output goes first
        if hasattr(sys.stdout, "buffer"):  # UTF-8, as a file is, whatever stdout's encoding
            sys.stdout.buffer.write(text.encode("utf-8"))
        else:  # a text-only stream, such as io.StringIO
            sys.stdout.write(text)
        sys.stdout.flush()  # a closed stdout fails here, before anything reaches stderr
        print(summary("<stdout>"), file=sys.stderr)
    return 0


def cmd_sweep(config: SweepConfig) -> int:
    rows = compute_sweep(config)
    return _write(render_sweep_csv(rows), config.output_path,
                  lambda dest: _summary_line(config, rows, dest))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+10.6f}{z.imag:+10.6f}i"


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(amps)))
    phase = amps[k] / abs(amps[k]) if abs(amps[k]) > 0 else 1.0
    return amps * np.conj(phase)


def cmd_state(scenario: AttackScenario) -> int:
    psi = scenario_pure_state(scenario)
    label = scenario.kind.lower() + (f"/{scenario.partner.lower()}" if scenario.partner else "")
    angles = f"phi={scenario.phi:.6f}" + (
        f" phi1={scenario.phi1:.6f}" if scenario.phi1 is not None else ""
    )
    print(f"scenario {label} {angles}")
    print("pure state amplitudes (A,B,E):")
    for idx, amp in enumerate(_canonical_phase(psi.amplitudes)):
        print(f"  |{idx:03b}>  {_fmt_complex(complex(amp))}")
    for pair, mat in zip(_PAIR_INDICES, _pair_stack(psi.amplitudes[None])):
        print(f"reduced {pair}:")
        for row in mat:
            print("  " + "  ".join(_fmt_complex(complex(z)) for z in row))
    return 0


def _verify_json(res) -> str:
    """One suite's result as a JSON line; a law suite adds its laws' deviations, a
    non-finite one as null."""
    import json  # only --json needs it; kept out of the CLI's import time

    record = {"suite": res.name, "passed": res.passed, "detail": res.detail,
              "seconds": res.seconds}
    if res.laws:
        record["laws"] = [{"name": name, "deviation": dev if math.isfinite(dev) else None,
                           "tol": tol} for name, dev, tol in res.laws]
    return json.dumps(record)


def cmd_verify(seed: int = 0, as_json: bool = False) -> int:
    from .selfcheck import run_all

    results = run_all(seed)
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(_verify_json(res) if as_json else f"[{tag}] {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    if not as_json:
        print(f"{len(results) - failures}/{len(results)} suites passed")
    return 0 if failures == 0 else 2


_BOOLS = {"true": 1.0, "false": 0.0}


def _read_csv(path: Path | None) -> tuple[list[str], list[list[float]]]:
    """The header of a CSV file (None: stdin) and one list of floats per header column
    (true/false: 1/0).  Parsed by column; a file that does not parse so is walked by row,
    checking a row's extra cell, then each cell, then a missing one, to name the line of a
    fault.  Skips blank lines."""
    try:
        if path is None and sys.stdin is None:  # closed at launch
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        data = sys.stdin.buffer.read() if path is None else path.read_bytes()
        text = data.decode("utf-8")  # stdin and a file alike, whatever the locale
    except OSError as exc:
        raise ValueError(f"cannot read {_shown(path)}: {exc}") from exc
    except UnicodeDecodeError as exc:  # one decode of the whole input
        line = len(exc.object[: exc.start + 1].splitlines())
        raise ValueError(f"cannot read {_shown(path)}: line {line}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=None))  # universal newlines, as a text read
    try:
        rows = list(reader)
    except csv.Error as exc:  # a cell past the field size limit (or, before Python 3.11, a NUL)
        raise ValueError(f"{_shown(path)}, line {reader.line_num}: {exc}") from exc
    body = [row for row in rows[1:] if row]
    if rows and set(map(len, body)) <= {len(rows[0])}:
        # each column all true/false (KeyError on a mix) or all floats (ValueError)
        with contextlib.suppress(ValueError, KeyError):
            columns = [[_BOOLS[v] for v in c] if c[0] in _BOOLS else list(map(float, c))
                       for c in zip(*body)] or [[] for _ in rows[0]]
            if all(map(math.isfinite, itertools.chain.from_iterable(columns))):
                return rows[0], columns
    reader = csv.reader(io.StringIO(text, newline=None))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{_shown(path)} is empty")
    width = len(header)
    columns = [[] for _ in header]
    for row in reader:
        if not row:
            continue
        try:
            if len(row) > width:
                raise ValueError(f"extra cell {row[width]!r} in column {width + 1}, "
                                 f"past the {width}-column header")
            for key, val, column in zip(header, row, columns):
                value = _BOOLS.get(val)
                if value is None:
                    try:
                        value = float(val)
                    except ValueError:
                        raise ValueError(f"column {key!r} has non-numeric value {val!r}") from None
                    if not math.isfinite(value):
                        raise ValueError(f"column {key!r} has non-finite value {val!r}")
                column.append(value)
            if len(row) < width:
                raise ValueError(f"short row, no value for column {header[len(row)]!r}")
        except ValueError as exc:
            raise ValueError(f"{_shown(path)}, line {reader.line_num}: {exc}") from exc
    return header, columns


def cmd_plot(csv_path: Path | None, columns: list[str], out_path: Path | None) -> int:
    header, data = _read_csv(csv_path)
    if not any(data):
        raise ValueError(f"{_shown(csv_path)} contains no data rows; nothing to plot")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(
            f"column(s) {', '.join(map(_shown, missing))} not found; "
            f"available: {', '.join(map(_shown, header))}"
        )
    if "phi" not in header:
        raise ValueError(f"{_shown(csv_path)} has no 'phi' column; "
                         f"available: {', '.join(map(_shown, header))}")
    for name in dict.fromkeys(["phi", *columns]):  # the columns read by name
        if (count := header.count(name)) > 1:
            raise ValueError(f"{_shown(csv_path)} has {count} columns named "
                             f"{name!r}; a column that plot reads must be unique")
    by_name = dict(zip(header, data))
    series = [(c, by_name["phi"], by_name[c]) for c in columns]
    svg = render_line_chart(series, xlabel="phi", ylabel="value")
    summary = f"plot {', '.join(map(_shown, columns))} from {_shown(csv_path)} -> "
    return _write(svg, out_path, lambda dest: summary + dest)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # verification failures, so remap usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def print_help(self, file=None):
        # argparse writes help to stderr if stdout is None (closed at launch) and swallows a
        # closed pipe's error; print skips None and raises, so main ends the run as for output
        print(self.format_help(), end="", file=file)


def _path_or_dash(value: str) -> Path | None:
    """A path argument; ``-`` is None, the standard stream."""
    return None if value == "-" else Path(value)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared by every :func:`main` call."""
    parser = _Parser(
        prog="qswitch-qkd",
        description="Quantum-switch eavesdropping attacks on QKD: sweeps, states, checks, plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p, with_grid: bool):
        p.add_argument("--scenario", required=True, choices=sorted(_SCENARIO_FLAGS))
        p.add_argument("--partner", choices=sorted(_PARTNER_FLAGS))
        p.add_argument("--phi1", type=float, help="second angle for usg/vdraft partners")
        p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
        if with_grid:
            p.add_argument("--phi-start", type=float, default=0.0)
            p.add_argument("--phi-end", type=float, help="grid end (default pi/2 rad, i.e. 90 degrees)")
            p.add_argument("--steps", type=int, default=101)
        else:
            p.add_argument("--phi", type=float, required=True)

    def add_out(p, what: str):
        p.add_argument("--out", required=True, type=_path_or_dash,
                       help=f"{what} file to write; - writes the {what} to stdout and the "
                            "summary line to stderr")

    p_sweep = sub.add_parser("sweep", help="write metric rows over a phi grid as CSV")
    add_scenario_args(p_sweep, with_grid=True)
    p_sweep.add_argument("--metrics", default=",".join(METRIC_GROUPS),
                         help="comma-separated subset of mi,gain,bell,qber,secure "
                              "summarized after the run (the CSV always carries all columns)")
    add_out(p_sweep, "CSV")

    p_state = sub.add_parser("state", help="print a scenario state and its reductions")
    add_scenario_args(p_state, with_grid=False)

    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true",
                          help="print one JSON line per suite: suite, passed, detail, seconds "
                               "and, for law suites, laws")

    p_plot = sub.add_parser("plot", help="render sweep CSV columns to an SVG chart")
    p_plot.add_argument("csv", type=_path_or_dash, help="sweep CSV to read; - reads stdin")
    p_plot.add_argument("--columns", required=True,
                        help="comma-separated CSV column names to draw")
    add_out(p_plot, "SVG")

    return parser


def _joined_angles(argv: list[str]) -> list[str]:
    """``argv`` with each angle flag, or a prefix of one as argparse accepts, joined as
    ``--flag=value`` to a next token that starts with ``-`` and that ``float`` reads: argparse
    takes ``-1e-3`` or ``-inf`` for an option."""
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        # a prefix of an angle flag, but not "--", which ends the options
        if len(flag) > 2 and token.startswith("-") and any(
                name.startswith(flag) for name in ("--phi", "--phi1", "--phi-start", "--phi-end")):
            with contextlib.suppress(ValueError):
                float(token)
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _angle(value: float | None, degrees: bool) -> float | None:
    if value is None:
        return None
    return math.radians(value) if degrees else value


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        if sys.stdout is None:  # closed at launch: Python dropped every print
            return 1
        sys.stdout.flush()  # here, not at exit, so that a closed stdout fails in this guard
        return code
    except BrokenPipeError:
        # the reader closed stdout (`... | head -1`): end quietly, with stdout on devnull
        # so that the interpreter's flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_angles(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "sweep":
            config = SweepConfig(
                kind=_SCENARIO_FLAGS[args.scenario],
                partner=_PARTNER_FLAGS[args.partner] if args.partner else None,
                phi1=_angle(args.phi1, args.degrees),
                phi_start=_angle(args.phi_start, args.degrees),
                phi_end=math.pi / 2 if args.phi_end is None else _angle(args.phi_end, args.degrees),
                steps=args.steps,
                metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
                output_path=args.out,
            )
            return cmd_sweep(config)
        if args.command == "state":
            scenario = AttackScenario(
                _SCENARIO_FLAGS[args.scenario],
                _angle(args.phi, args.degrees),
                _PARTNER_FLAGS[args.partner] if args.partner else None,
                _angle(args.phi1, args.degrees),
            )
            return cmd_state(scenario)
        if args.command == "verify":
            return cmd_verify(args.seed, args.json)
        # plot: the subcommand is required, so no other command gets here
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        if not columns:
            raise ValueError("--columns must name at least one column")
        return cmd_plot(args.csv, columns, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
