"""qswitch-qkd benchmark: one closed-loop client, one workload per invocation.

    python3 benchmarks/run.py --workload grid-sweep --seed 1 --seconds 36 --trace 0

Runs as many whole rounds of the workload as fit in ``--seconds``, checks
every output (see ``workloads.py``), prints each metric with its unit and,
as the last line, one JSON object.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every operation twice, plain and under spans,
and reports the per-layer metrics.  Exits 1 if any output is wrong and 2 if
the package cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: one client and 16x16 arrays gain nothing from more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid-sweep", "point-mix", "verify")
SETUP_LAUNCHES = 11
TAIL_CAP = 95.0
TAIL_FLOOR = 75.0
SAMPLE_S = 0.05  # calibration period inside an operation (see HostSpeed)
# Set-up time, then the host speed just after it; calib.py's directory is argv[1],
# put on the path only after the timed import.
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import qswitch_qkd.cli; "
                 "d = time.perf_counter() - t; import sys; sys.path.append(sys.argv[1]); "
                 "import calib; print(d, calib.calibrate())")


def import_package():
    """Import the package from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qswitch_qkd
    except ImportError as exc:
        problem = f"cannot import qswitch_qkd from {SRC}: {exc}"
    else:
        if Path(qswitch_qkd.__file__).resolve().is_relative_to(SRC):
            return
        problem = f"qswitch_qkd was imported from {qswitch_qkd.__file__}, not from {SRC}"
    print(f"error: {problem}", file=sys.stderr)
    raise SystemExit(2)


class SetupTimer:
    """Import time of ``qswitch_qkd.cli`` in fresh interpreters, one launch at a time.

    The timed loop launches one every ``seconds / launches``, so that the
    median samples the host over the whole run rather than over a few seconds
    of it.  A first, warm-up launch is not counted.  Each launch also reports
    a calibration taken right after the import, to scale its time by.
    """

    def __init__(self, launches: int = SETUP_LAUNCHES):
        self.launches = launches
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.launch()
        self.times.clear()
        self.scaled.clear()

    def launch(self):
        argv = [sys.executable, "-c", _IMPORT_PROBE, str(Path(calib.__file__).parent)]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, calibration = map(float, proc.stdout.split())
        self.times.append(seconds)
        self.scaled.append(calib.scaled(seconds, [calibration]))

    def medians(self) -> tuple[float, float]:
        """Median set-up time, scaled and as measured."""
        while len(self.times) < self.launches:
            self.launch()
        return statistics.median(self.scaled), statistics.median(self.times)


class HostSpeed:
    """Calibration samples before, during and after each operation.

    While an operation runs, a SIGALRM timer takes a sample every SAMPLE_S
    between two of its bytecodes; the time those samples take is left out of
    the operation's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.refresh()

    def refresh(self):
        self.before = calib.calibrate()
        self.samples.append(self.before)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.inside.append(calib.calibrate())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        self.inside, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def settle(self, elapsed: float) -> tuple[float, float]:
        """After an operation: its time less the samples inside it, as measured and scaled."""
        before = self.before
        self.refresh()
        net = elapsed - self.spent
        self.samples.extend(self.inside)
        return net, calib.scaled(net, [before, *self.inside, self.before])


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with ten samples beyond it, kept within p75..p95.

    Above p95, the point-mix tail follows stalls of the host rather than the
    slowest kind of point; below 40 samples (verify) the floor keeps the tail
    from being the single slowest operation.
    """
    import numpy as np

    pct = min(TAIL_CAP, max(TAIL_FLOOR, 100.0 * (1.0 - 10.0 / len(samples))))
    return f"p{pct:.4g}", float(np.percentile(samples, pct))


def measure(workload, seed: int, seconds: float, tracer=None, setup: SetupTimer | None = None) -> dict:
    """Closed loop over whole rounds of inputs, as many as fit in ``seconds`` (at least one).

    Without a tracer, each operation's time is also scaled to the calibration
    speed (see HostSpeed), and the set-up launches are spread between operations.
    """
    latencies, scaled, problems = [], [], []
    totals = {"attempted": 0, "failed": 0, "rows": 0, "ops": 0, "op_s": 0.0, "traced_op_s": 0.0}
    speed = HostSpeed() if tracer is None else None

    def run_once(inp, traced: bool):
        with (tracer.operation(totals["ops"]) if traced else
              speed.during() if speed else contextlib.nullcontext()):
            start = time.perf_counter()
            result = workload.run(inp)
            elapsed = time.perf_counter() - start
        if speed:
            elapsed, elapsed_scaled = speed.settle(elapsed)
        outcome = workload.check(inp, result)
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        totals["traced_op_s" if traced else "op_s"] += elapsed
        problems.extend(outcome.problems)
        if not traced:
            totals["rows"] += outcome.rows
            if outcome.completed:
                latencies.append(elapsed)
                if speed:
                    scaled.append(elapsed_scaled)

    workload.warmup()
    start = time.perf_counter()
    next_launch = start
    for rounds, inputs in enumerate(workload.rounds(seed), 1):
        for inp in inputs:
            run_once(inp, traced=False)
            if tracer is not None:
                run_once(inp, traced=True)
            totals["ops"] += 1
            if setup is not None and time.perf_counter() >= next_launch:
                setup.launch()
                next_launch += seconds / setup.launches
                speed.refresh()
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:  # another round of average length would overrun
            break
    return dict(totals, latencies=latencies, scaled=scaled, problems=problems,
                calibs=speed.samples if speed else [])


def probe_known_defect(workload, stats: dict) -> list[str]:
    """Replay, untimed, the inputs the timed mix leaves out for the QBER round-off.

    A probe that raises is reported, not counted as a failed operation; one
    that completes is checked like any output, and a wrong result is a problem.
    """
    if not workload.defect_probes:
        return []
    errors = []
    for inp in workload.defect_probes:
        outcome = workload.check(inp, workload.run(inp))
        stats["problems"].extend(outcome.problems)
        if outcome.failed:
            errors.append(outcome.error)
    note = (f"known defect (QBER round-off): {len(errors)} of {len(workload.defect_probes)} "
            f"untimed probe inputs still fail")
    return [note + (f", first {errors[0]}" if errors else "")]


def environment(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_path.read_text().strip() if ref.startswith("ref: ") and ref_path.exists() else ref
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": commit,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def make_workload(name: str, workdir: Path):
    import workloads  # imports the package, so only after import_package()

    if name == "grid-sweep":
        return workloads.GridSweep(workdir)
    if name == "point-mix":
        return workloads.PointMix()
    return workloads.Verify()


def end_to_end(stats: dict, setup_s: tuple[float, float]) -> tuple[dict, list[str]]:
    lat_ms = [t * 1e3 for t in stats["latencies"]]
    if not lat_ms:
        raise SystemExit("error: no operation completed, so there is no latency to report")
    scaled_ms = [t * 1e3 for t in stats["scaled"]]
    tail_name, tail_ms = tail(scaled_ms)
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "op_ms_p50": (statistics.median(scaled_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"op_ms_tail is {tail_name} of n={len(lat_ms)} completed operations",
             f"times are scaled to the calibration speed; as measured: wall_ms_p50 "
             f"{statistics.median(lat_ms)!r} ms, wall_ms_tail {tail(lat_ms)[1]!r} ms, "
             f"setup_s {setup_s[1]!r} s; calibration median {statistics.median(stats['calibs']) * 1e3!r} ms "
             f"(reference {calib.CALIB_REF_S * 1e3!r} ms)",
             f"failed_frac {stats['failed'] / stats['attempted']!r} "
             f"({stats['failed']} of {stats['attempted']} attempted)"]
    if stats["rows"]:
        notes.append(f"rows_per_s {stats['rows'] / stats['op_s']!r} 1/s "
                     f"({stats['rows']} CSV rows in {stats['op_s']:.3f} s of sweep+plot time)")
    return metrics, notes


def collect(workload, seed: int, seconds: float, trace: int, stem: Path,
            setup_launches: int = SETUP_LAUNCHES) -> tuple[dict, dict, list[str]]:
    """Run the workload; return its totals, the metrics as name -> (value, unit), and notes."""
    if not trace:
        setup = SetupTimer(setup_launches)
        stats = measure(workload, seed, seconds, setup=setup)
        metrics, notes = end_to_end(stats, setup.medians())
        return stats, metrics, notes + probe_known_defect(workload, stats)
    import tracing

    tracer = tracing.Tracer()
    stats = measure(workload, seed, seconds, tracer)
    metrics = tracing.layer_metrics(tracer.spans, stats["ops"])
    metrics["trace.overhead"] = (stats["traced_op_s"] / stats["op_s"] - 1.0, "fraction")
    spans_path = stem.with_suffix(".spans.jsonl")
    tracer.dump(spans_path)
    notes = [f"{stats['ops']} operations, each run plain and traced; "
             f"{len(tracer.spans)} spans in {spans_path.name}"]
    return stats, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = make_workload(args.workload, workdir)
        stats, metrics, notes = collect(workload, args.seed, args.seconds, args.trace, stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for problem in stats["problems"][:20]:
        print(f"WRONG {problem}")
    correct = not stats["problems"]
    result = {
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(dict(result, env=env, notes=notes), indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
