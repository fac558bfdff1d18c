"""The benchmark's own test, at tiny sizes: ``python3 -m pytest benchmarks/test_smoke.py``."""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package path set up above)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SG = ("sg", None, None)


def tiny(name, workdir):
    if name == "grid-sweep":
        return workloads.GridSweep(workdir, configs=(SG,), defect_probes=(("switch", "xz", None),))
    if name == "point-mix":
        return workloads.PointMix(per_combo=1)
    return workloads.Verify()


def test_workloads_match_the_declaration():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    workload = tiny(name, tmp_path)
    stats, metrics, notes = run.collect(workload, 0, 0, trace, tmp_path / "result", setup_launches=1)
    assert stats["problems"] == [] and stats["failed"] == 0
    probed = any(note.startswith("known defect (QBER round-off): ") for note in notes)
    assert probed == bool(workload.defect_probes and not trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(isinstance(value, float) for value, _ in metrics.values())


def test_timed_mixes_leave_out_the_known_defect_inputs():
    assert not set(workloads.GRID_CONFIGS) & set(workloads.DEFECT_CONFIGS)
    for seed in range(5):
        points = workloads.point_block(workloads.np.random.default_rng(seed))
        assert len(points) == len(workloads.POINT_COMBOS) * workloads.POINTS_PER_COMBO
        assert not any(workloads.known_defect(*point) for point in points)
    assert all(workloads.known_defect(*point) for point in workloads.PointMix().defect_probes)


def test_one_byte_change_in_a_csv_trips_the_gate(tmp_path):
    grid = workloads.GridSweep(tmp_path)
    outcome = grid.check(SG, grid.run(SG))
    assert outcome.completed and outcome.problems == []
    lines = (tmp_path / "sg.csv").read_text().splitlines(keepends=True)
    cells = lines[50].split(",")
    last = cells[1][-1]  # final digit of I(A:B), so one byte changes
    cells[1] = cells[1][:-1] + ("1" if last != "1" else "2")
    changed = "".join(lines[:50] + [",".join(cells)] + lines[51:])
    assert len(changed) == len("".join(lines))
    assert workloads.check_sweep_csv(SG, changed, grid.golden, set())  # digest
    assert workloads.check_sweep_csv(SG, changed, {}, set())  # row recomputation


def test_raising_point_counts_as_failed():
    class TwoPoints(workloads.PointMix):
        def rounds(self, seed):
            yield [("SG", None, 2.0, None), ("SG", None, 0.3, None)]  # phi=2 is out of range

    stats = run.measure(TwoPoints(), 0, 0)
    assert (stats["attempted"], stats["failed"], stats["problems"]) == (2, 1, [])
    _, notes = run.end_to_end(stats, (0.2, 0.2))
    assert any(note.startswith("failed_frac 0.5 ") for note in notes)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
