import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
import xml.dom.minidom
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qswitch_qkd
from qswitch_qkd import cli, selfcheck, switch
from qswitch_qkd.cli import (CSV_HEADER, METRIC_GROUPS, SweepConfig, build_parser, compute_sweep,
                             main, render_sweep_csv)
from qswitch_qkd.metrics import security_condition
from qswitch_qkd.qstate import check_density_stack
from qswitch_qkd.scenarios import SCENARIO_KINDS, SWITCH_PARTNERS
from qswitch_qkd.svgchart import render_line_chart


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return header, rows


class TestSweep:
    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "sg.csv"
        assert main(["sweep", "--scenario", "sg", "--steps", "11", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 11

    def test_grid_is_affine_with_exact_endpoints(self, tmp_path):
        out = tmp_path / "sg.csv"
        main(["sweep", "--scenario", "sg", "--steps", "5", "--out", str(out)])
        _, rows = read_rows(out)
        phis = [float(r["phi"]) for r in rows]
        assert phis[0] == 0.0
        assert phis[-1] == pytest.approx(math.pi / 2, abs=1e-8)
        steps = np.diff(phis)
        assert np.allclose(steps, steps[0], atol=1e-8)
        assert phis == sorted(phis)

    def test_secure_column_matches_mi_columns(self, tmp_path):
        out = tmp_path / "sg.csv"
        main(["sweep", "--scenario", "sg", "--steps", "21", "--out", str(out)])
        _, rows = read_rows(out)
        for r in rows:
            expected = security_condition(float(r["i_ab"]), float(r["i_ae"]), float(r["i_be"]))
            assert r["secure"] == ("true" if expected else "false")
            assert float(r["min_eve"]) == pytest.approx(
                min(float(r["i_ae"]), float(r["i_be"])), abs=1e-9
            )

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--scenario", "switch", "--partner", "swap", "--steps", "31"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_swap_partner_interior_rows_insecure(self, tmp_path):
        out = tmp_path / "swap.csv"
        main(["sweep", "--scenario", "switch", "--partner", "swap", "--steps", "41",
              "--out", str(out)])
        _, rows = read_rows(out)
        for r in rows[1:-1]:
            assert r["secure"] == "false"

    def test_draft_usg_interior_rows_secure(self, tmp_path):
        out = tmp_path / "draft.csv"
        main(["sweep", "--scenario", "draft-switch", "--partner", "usg", "--phi1", "0.9",
              "--steps", "41", "--out", str(out)])
        _, rows = read_rows(out)
        for r in rows[1:-1]:
            assert r["secure"] == "true"

    def test_degrees_flag_matches_radians(self, tmp_path):
        out_deg, out_rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
        main(["sweep", "--scenario", "sg", "--steps", "7", "--degrees",
              "--phi-start", "0", "--phi-end", "90", "--out", str(out_deg)])
        main(["sweep", "--scenario", "sg", "--steps", "7",
              "--phi-start", "0", "--phi-end", str(math.pi / 2), "--out", str(out_rad)])
        assert out_deg.read_bytes() == out_rad.read_bytes()

    def test_degrees_flag_keeps_the_default_end(self, tmp_path):
        # the default end is pi/2 rad whatever the unit, not pi/2 degrees
        out_deg, out_rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
        main(["sweep", "--scenario", "sg", "--steps", "7", "--degrees", "--out", str(out_deg)])
        main(["sweep", "--scenario", "sg", "--steps", "7", "--out", str(out_rad)])
        assert out_deg.read_bytes() == out_rad.read_bytes()

    def test_invalid_scenario_partner_combination(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--scenario", "sg", "--partner", "swap", "--out", str(out)])
        assert code == 1
        assert "takes no partner" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["--scenario", "sg"], ["--scenario", "switch", "--partner", "xz"]],
    )
    def test_phi1_without_angled_partner_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        code = main(["sweep", *args, "--phi1", "0.5", "--out", str(out)])
        assert code == 1
        assert "takes no second angle" in capsys.readouterr().err
        assert not out.exists()

    def test_state_rejects_phi1_without_angled_partner(self, capsys):
        code = main(["state", "--scenario", "switch", "--partner", "swap",
                     "--phi", "0.3", "--phi1", "0.2"])
        assert code == 1
        assert "takes no second angle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--scenario", "switch", "--partner", "xz"],
            ["--scenario", "switch", "--partner", "vdraft", "--phi1", "1.5707963267948966"],
            ["--scenario", "draft-switch", "--partner", "vdraft", "--phi1", "1.5707963267948966"],
        ],
    )
    def test_full_disagreement_sweeps_complete(self, tmp_path, args):
        # default grid; these sweeps used to stop at qber = 1.0000000000000002
        out = tmp_path / "x.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 101
        assert all(0.0 <= float(r["qber"]) <= 1.0 for r in rows)

    def test_row_error_names_the_point(self, tmp_path, capsys, monkeypatch):
        from qswitch_qkd import cli
        from qswitch_qkd.linalg import RowError

        real = cli.evaluate_rows

        # the sweep scores its grid in one batched call, which names a failing row by index
        def failing(kind, phis, partner=None, phi1=None):
            columns = real(kind, phis, partner, phi1)
            for i, phi in enumerate(columns["phi"].tolist()):
                if phi > 0.5:
                    raise RowError(i, "qber = 1.5 outside [0, 1]")
            return columns

        monkeypatch.setattr(cli, "evaluate_rows", failing)
        out = tmp_path / "x.csv"
        code = main(["sweep", "--scenario", "switch", "--partner", "usg", "--phi1", "0.9",
                     "--steps", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert (
            f"sweep scenario=SWITCH partner=U_SG phi={math.pi / 4!r} phi1=0.9: "
            "qber = 1.5 outside [0, 1]"
        ) in err
        assert not out.exists()

    def test_sweep_has_no_seed_flag(self, tmp_path):
        assert main(["sweep", "--scenario", "sg", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_path(self, capsys):
        code = main(["sweep", "--scenario", "sg", "--steps", "5",
                     "--out", "/no-such-dir/x.csv"])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert main(["sweep", "--scenario", "sg"]) == 1

    def test_unknown_metric_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "sg", "--metrics", "mi,bogus",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "unknown metrics" in capsys.readouterr().err

    def test_summary_line_filters_metric_groups(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        main(["sweep", "--scenario", "sg", "--steps", "5", "--metrics", "qber",
              "--out", str(out)])
        summary = capsys.readouterr().out
        assert "qber" in summary
        assert "gain" not in summary
        header, _ = read_rows(out)
        assert ",".join(header) == CSV_HEADER  # file schema never shrinks


class TestState:
    def test_unattacked_amplitudes(self, capsys):
        assert main(["state", "--scenario", "sg", "--phi", "0"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\|000>\s+\+0\.707107", out)
        assert re.search(r"\|110>\s+\+0\.707107", out)

    def test_swap_partner_at_half_pi(self, capsys):
        main(["state", "--scenario", "switch", "--partner", "swap",
              "--phi", str(math.pi / 2)])
        out = capsys.readouterr().out
        assert re.search(r"\|000>\s+\+1\.000000", out)

    def test_symmetric_cnot_at_half_pi(self, capsys):
        main(["state", "--scenario", "symmetric-cnot", "--phi", str(math.pi / 2)])
        out = capsys.readouterr().out
        amplitude_block = out.split("reduced")[0]
        assert amplitude_block.count("+0.500000 +0.000000i") == 4

    def test_reduced_blocks_present(self, capsys):
        main(["state", "--scenario", "sg", "--phi", "0.3"])
        out = capsys.readouterr().out
        for pair in ("reduced AB:", "reduced AE:", "reduced BE:"):
            assert pair in out

    def test_invalid_scenario_exits_one(self, capsys):
        assert main(["state", "--scenario", "sg", "--phi", "9"]) == 1
        assert "error" in capsys.readouterr().err

    # SHA-256 of `state` stdout for every scenario config at phi = 0, 0.6 and pi/2,
    # keyed (config, phi) with configs written as in SWEEP_CSV_DIGESTS.  Recorded
    # before the engine reduced real amplitudes in real arithmetic: the printed
    # amplitudes and pair matrices may not move
    STATE_SHA256 = {
        ("sg", "0"):
            "132632b70c843683c43bf2a5017b4839a50b501469c769300c9d1517b75f804f",
        ("sg", "0.6"):
            "111c0af6c90bb31979f0c2c808d6d2a9a4946511387de1597280be808d344680",
        ("sg", "1.5707963267948966"):
            "995681164356b8a75fa13e93349758af1ecd7bc25b112ba2b862e337fcd98f0e",
        ("symmetric-cnot", "0"):
            "ae47b51d08e76226535cf63b571d451d15b1068bd9b7b97f9aad45c3ac87ff43",
        ("symmetric-cnot", "0.6"):
            "7e1561356062aa7940a7d9d5c214d57e195581f4eeb9850e2d4dcbfb831a3abd",
        ("symmetric-cnot", "1.5707963267948966"):
            "756083cf7b9f6f9f7faac1015c985ec01282aaf21f9b5dc43555c8512986bdba",
        ("switch/xz", "0"):
            "e17160f970a5b843ac4ea643f72101d2f628d1fda748e23bc27c79513ab2e073",
        ("switch/xz", "0.6"):
            "8a8d3df58a076919c93f53d7c1acd54b6a0b7f262b346d02dbe31d48dbdf16be",
        ("switch/xz", "1.5707963267948966"):
            "13d35b69c11dcce83d3b72f77b3a3a3d2a3f1e4e003a7b18df0a07dc21af25b0",
        ("switch/swap", "0"):
            "42365979e3042c09dc0449ddf5e4511e0f9aae4478599308760514a3f7653a76",
        ("switch/swap", "0.6"):
            "fe65db6541cb871b1d63e26d300bb8c21edb3050be0a7a80afa4c8b6418f9146",
        ("switch/swap", "1.5707963267948966"):
            "9be4d3e77ce56c0d9c89bd23fa81292ede055e514636e6a60ce287c5b9aaade5",
        ("switch/cnot", "0"):
            "56adad68800c9c784a41a7f505d241f3c7fabbd49de96678e2f3098af91d6371",
        ("switch/cnot", "0.6"):
            "eb6017dcca560b60b3e83a17c854f7c469185bb34ca211c40c3a838335edd295",
        ("switch/cnot", "1.5707963267948966"):
            "ea80a9ff3901eb34c230abc47f8a3d4f0688d846d1d7c673208471eaf6439c75",
        ("switch/usg phi1=0.9", "0"):
            "927b9d98c7a2a6fc7eee9ec4cf8120ed6c575127f4fbceacb4821e63bf115e8c",
        ("switch/usg phi1=0.9", "0.6"):
            "9d0f6cab0e59661e7e152a404cc35897efbfd35733e3dfa305145e07333d1007",
        ("switch/usg phi1=0.9", "1.5707963267948966"):
            "1a74bcbfe385d2043cedb7fbc3cd84619a64cd154bae8a7b660867e6131b1a18",
        ("switch/vdraft phi1=0.9", "0"):
            "c96ed996121fe53e73607969b6ff68f7532c90522873bc261fced70311670c63",
        ("switch/vdraft phi1=0.9", "0.6"):
            "548665c78ba6fd5ffa7e4a708563081b160bac8179f2cd6f84a4727841504526",
        ("switch/vdraft phi1=0.9", "1.5707963267948966"):
            "5ffd7013a5c1eb9f6cb710c6c88aa0e3434cdac22fcb20beac6a5609e46ec559",
        ("draft-switch/usg phi1=0.9", "0"):
            "40fb5159f102a67949a07326196d54982ec4438e02f7774df1d5a8ab922a60d2",
        ("draft-switch/usg phi1=0.9", "0.6"):
            "b4e2ab9c18cb2a2ad43911c35f4bf6cf71fd331dbd25c6580aabc8f41a3435ac",
        ("draft-switch/usg phi1=0.9", "1.5707963267948966"):
            "169d4b8c3811e311da21fc230fafc6d6dcd3d39d9c41f1e662c7bac368a30793",
        ("draft-switch/vdraft phi1=0.9", "0"):
            "2653cb558d885af82956998ebc1cb48bcaa251595031aa1cfa63ba83fce3dcd3",
        ("draft-switch/vdraft phi1=0.9", "0.6"):
            "d402461f361bca2a6158b67c96d6a85e4bdf36fa7da3b3ad2f8938b01c9104ab",
        ("draft-switch/vdraft phi1=0.9", "1.5707963267948966"):
            "83cb713096171c1b163032ea719ab6487ee6785b583cac26e5df2c41764e7d3c",
    }

    @pytest.mark.parametrize("config, phi", sorted(STATE_SHA256))
    def test_output_bytes_pinned(self, config, phi, capsys):
        assert main(_state_argv(config) + ["--phi", phi]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.STATE_SHA256[config, phi]

    def test_non_finite_partner_angle_exits_one_without_warning(self, capsys):
        argv = ["state", "--scenario", "switch", "--partner", "usg", "--phi", "0.3", "--phi1", "inf"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [w.message for w in caught] == []
        assert "error: second angle phi1 must be finite, got inf" in capsys.readouterr().err


class TestAngleFlags:
    ARGV = {
        "--phi": ["state", "--scenario", "switch", "--partner", "usg", "--phi1", "0.3"],
        "--phi1": ["state", "--scenario", "switch", "--partner", "usg", "--phi", "0.3"],
        "--phi-start": ["sweep", "--scenario", "sg", "--steps", "3"],
        "--phi-end": ["sweep", "--scenario", "sg", "--steps", "3"],
        "--phi-s": ["sweep", "--scenario", "sg", "--steps", "3"],  # as argparse abbreviates
    }

    @pytest.mark.parametrize("token", ["-1e-3", "-5e-1", "-inf"])
    @pytest.mark.parametrize("flag", sorted(ARGV))
    def test_negative_exponent_token_is_the_flags_value(self, flag, token, tmp_path, capsys):
        # argparse reads a token such as -1e-3 as an option; the angle flags take it as their
        # value, so the library's own check decides, as for the --flag=token form
        out = ["--out", str(tmp_path / "sweep.csv")] if self.ARGV[flag][0] == "sweep" else []
        results = []
        for tail in ([flag, token], [f"{flag}={token}"]):
            code = main(self.ARGV[flag] + out + tail)
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][2]


def _state_argv(label):
    return ["state"] + _sweep_argv(label)[1:]


@pytest.fixture
def detuned_u_sg(monkeypatch):
    """U_SG stacks built 0.03 rad away from the requested angles, still unitary."""
    import qswitch_qkd.scenarios as scenarios

    original = scenarios.gate_stack

    def corrupted(name, angles):
        if str(name).upper() == "U_SG":
            return original("U_SG", np.asarray(angles, dtype=float) + 0.03)
        return original(name, angles)

    monkeypatch.setattr(scenarios, "gate_stack", corrupted)


class TestVerify:
    def test_random_density_stacks_are_states(self, monkeypatch):
        # the suites skip the density check on the G G'/tr states they draw;
        # every stack they draw for seeds 0..24 must pass it
        drawn, original = [], selfcheck._random_density_stack
        monkeypatch.setattr(selfcheck, "_random_density_stack",
                            lambda rng, d, n: drawn.append(original(rng, d, n)) or drawn[-1])
        for seed in range(25):
            selfcheck.check_state_operations(seed)
            selfcheck.check_branch_decomposition(seed)
            selfcheck._mi_basics(seed)
        assert [m.shape for m in drawn[:4]] == [(50, 8, 8), (1000, 4, 4), (200, 4, 4), (50, 4, 4)]
        assert len(drawn) == 100
        for mats in drawn:
            check_density_stack(mats)

    def test_draws_are_the_bytes_of_the_normal_forms(self, monkeypatch):
        # the Gaussian draws are built in place from rng.standard_normal; for seeds 0..24 and
        # every draw a verify run makes, they must be the bytes of the rng.normal forms below
        def ginibre(rng, n, shapes):
            sizes = [math.prod(shape) for shape in shapes]
            z = rng.normal(size=(n, 2 * sum(sizes)))
            stacks, at = [], 0
            for shape, size in zip(shapes, sizes):
                re, im = z[:, at:at + size], z[:, at + size:at + 2 * size]
                stacks.append((re + 1j * im).reshape(n, *shape))
                at += 2 * size
            return stacks

        def density(rng, d, n):
            g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            m = g @ g.conj().swapaxes(1, 2)
            return m / np.trace(m, axis1=1, axis2=2)[:, None, None]

        draws = []

        def spy(draw, reference):
            def call(rng, *args):
                draws.append((draw, reference, args))
                return draw(rng, *args)
            return call

        for name, reference in (("_ginibre_stacks", ginibre), ("_random_density_stack", density)):
            monkeypatch.setattr(selfcheck, name, spy(getattr(selfcheck, name), reference))
        selfcheck.run_all(0)
        assert [args for _, _, args in draws] == [
            (25, [(6, 6), (6, 6)]), (8, 50), (50, [(2, 2), (4, 4), (4, 4)]), (4, 1000),
            (100, [(4, 2), (6, 2)]), (200, [(4, 4), (4, 4)]), (4, 200), (4, 50)]
        for seed in range(25):
            for draw, reference, args in draws:
                mine, theirs = (f(np.random.default_rng(seed), *args) for f in (draw, reference))
                if isinstance(mine, np.ndarray):  # a density stack, not a list of stacks
                    mine, theirs = [mine], [theirs]
                assert [(m.shape, m.tobytes()) for m in mine] == [
                    (m.shape, m.tobytes()) for m in theirs], (seed, args)

    def test_fresh_build_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == len(selfcheck.ALL_SUITES)

    def test_report_is_deterministic(self, capsys):
        main(["verify", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    # SHA-256 of the `verify --seed s` report, recorded before the suites drew their
    # random matrices in one call each and the oracle scanned its 7 matrices as one
    # stack: neither change may move a printed figure
    REPORT_SHA256 = {
        0: "0bea407c229141d4c7b1e2ad58a65ea74c446f921213666dc00418f88209274a",
        1: "6bf57465f325d1d31582f6470bdb37c8e585b6fd1b1aa3ead33712bb78330880",
        2: "ace063d12dbd7286ee5055dfe014d35ec5cb6997f426b3afbfead8564bc10823",
        3: "9a83ce1ad5745b07515aed1d2989569ba85b7ab8f5c67e1bbb6c860144d1c87e",
        4: "4d1658e34e3588e6420739a3f910693937d32c1acaf4d1dd618087a239b7fc56",
    }

    @pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, seed, capsys):
        assert main(["verify", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.REPORT_SHA256[seed]

    def test_json_report_one_line_per_suite(self, capsys):
        assert main(["verify", "--json", "--seed", "1"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["suite"] for r in records] == [r.name for r in selfcheck.run_all(1)]
        law_suites = {law.suite for law in selfcheck.LAWS}
        for record in records:
            assert record["passed"] is True and record["seconds"] >= 0.0
            assert set(record) == {"suite", "passed", "detail", "seconds"} | (
                {"laws"} if record["suite"] in law_suites else set())
        laws = [law for r in records for law in r.get("laws", [])]
        assert [law["name"] for law in laws] == [law.name for law in selfcheck.LAWS]
        assert [law["tol"] for law in laws] == [law.tol for law in selfcheck.LAWS]
        assert all(0.0 <= law["deviation"] <= law["tol"] for law in laws)

    def test_json_details_match_text_report(self, capsys):
        main(["verify", "--seed", "2"])
        text = capsys.readouterr().out.splitlines()[:-1]
        main(["verify", "--json", "--seed", "2"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert text == [f"[PASS] {r['suite']}: {r['detail']}" for r in records]

    def test_json_failure_keeps_exit_code_and_nulls_non_finite_deviation(self, monkeypatch, capsys):
        law = next(law for law in selfcheck.LAWS if law.name == "plain-gain")
        broken = dataclasses.replace(law, measured=lambda f: np.full(len(f.phis), np.nan))
        monkeypatch.setattr(selfcheck, "LAWS", tuple(broken if row is law else row
                                                     for row in selfcheck.LAWS))
        assert main(["verify", "--json"]) == 2
        records = {r["suite"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
        gain = records["gain-closed-forms"]
        assert gain["passed"] is False
        assert gain["detail"].startswith("plain-gain off by nan")
        assert gain["laws"][0] == {"name": "plain-gain", "deviation": None, "tol": 1e-9}

    def test_each_grid_family_scored_once_per_run(self, monkeypatch):
        calls = []
        real = selfcheck.evaluate_rows

        def counted(kind, phis, partner=None, phi1=None):
            calls.append((kind, partner, len(phis)))
            return real(kind, phis, partner, phi1)

        monkeypatch.setattr(selfcheck, "evaluate_rows", counted)
        assert all(result.passed for result in selfcheck.run_all(0))
        assert len(calls) == len(set(calls)) == 3
        # the memo lasts one run: a suite called on its own scores afresh
        calls.clear()
        selfcheck.check_qber_closed_form()
        selfcheck.check_qber_closed_form()
        assert calls == [("SG", None, len(selfcheck._GRID))] * 2

    def test_negative_seed_is_a_usage_error_before_any_suite_runs(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(selfcheck, "ALL_SUITES", (lambda seed: ran.append(seed),))
        assert main(["verify", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert captured.err.splitlines() == ["error: seed must be a non-negative integer, got -1"]

    def test_exit_code_two_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            selfcheck, "run_all",
            lambda seed=0: [selfcheck.CheckResult("stub", False, "forced")],
        )
        assert main(["verify"]) == 2
        assert "[FAIL] stub" in capsys.readouterr().out

    def test_detuned_attack_unitary_fails_gain_suite(self, detuned_u_sg):
        # mutation probe: a slightly detuned U_SG must trip the closed-form
        # gain suite while remaining a valid unitary
        result = selfcheck.check_gain_closed_forms()
        assert result.passed is False

    @pytest.mark.parametrize(
        "suite", ["check_qber_closed_form", "check_bell_horodecki", "check_mutual_information"]
    )
    def test_detuned_attack_unitary_fails_law_suites(self, detuned_u_sg, suite):
        assert getattr(selfcheck, suite)().passed is False

    def test_detuned_attack_unitary_fails_verify(self, detuned_u_sg, capsys):
        assert main(["verify"]) == 2
        assert "[FAIL] gain-closed-forms" in capsys.readouterr().out

    @staticmethod
    def _shift_closed_form(monkeypatch, law, by):
        """Mutation probe on the table itself: ``law``'s closed form moved ``by``."""
        shifted = dataclasses.replace(law, closed=lambda phis: law.closed(phis) + by)
        monkeypatch.setattr(selfcheck, "LAWS", tuple(shifted if row is law else row
                                                     for row in selfcheck.LAWS))

    @pytest.mark.parametrize(
        "law",
        [law for law in selfcheck.LAWS if law.test != "crossing" and law.tol < 1e-6],
        ids=lambda law: law.name,
    )
    def test_shifted_closed_form_fails_its_suite_naming_the_law(self, monkeypatch, law):
        # downwards, so that the AB/BE local cap falls below the CHSH value 2 they reach
        self._shift_closed_form(monkeypatch, law, -1e-6)
        result = getattr(selfcheck, "check_" + law.suite.replace("-", "_"))()
        assert result.passed is False
        assert result.detail.startswith(f"{law.name} off by ")

    def test_shifted_closed_form_fails_verify(self, monkeypatch, capsys):
        (law,) = [row for row in selfcheck.LAWS if row.name == "swap-gain"]
        self._shift_closed_form(monkeypatch, law, 1e-6)
        assert main(["verify"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] gain-closed-forms: swap-gain off by 1.0e-06 (tol 1e-09)" in out
        assert out.endswith("9/10 suites passed\n")

    def test_raising_suite_fails_and_the_rest_still_run(self, monkeypatch, capsys):
        # mutation probe: random "unitaries" 1% too long make the library's own
        # checks raise inside several suites; each must be reported, not abort verify
        original = selfcheck._unitaries
        monkeypatch.setattr(selfcheck, "_unitaries", lambda ginibres: 1.01 * original(ginibres))
        assert main(["verify"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(selfcheck.ALL_SUITES) + 1
        assert "[FAIL] switch-branch-decomposition: RowError: channel is not trace preserving" in lines[3]
        assert lines[-1].endswith(f"/{len(selfcheck.ALL_SUITES)} suites passed")

    @pytest.mark.parametrize(
        "mutation",
        [lambda branch: +1, lambda branch: -switch._branch_sign(branch)],
        ids=["minus-branch-is-plus-branch", "branch-sign-flipped"],
    )
    def test_broken_branch_core_fails_branch_suite(self, monkeypatch, capsys, mutation):
        # mutation probe on the stacked branch operator of switch.py: the suite
        # must reach it through the switch API, not recompute it inline
        original = switch.lambda_branch_stack
        monkeypatch.setattr(
            switch, "lambda_branch_stack", lambda us, vs, branch: original(us, vs, mutation(branch))
        )
        assert main(["verify"]) == 2
        assert "[FAIL] switch-branch-decomposition: max deviation" in capsys.readouterr().out

    def test_results_are_plain_bools(self):
        assert [type(r.passed) for r in selfcheck.run_all(0)] == [bool] * len(selfcheck.ALL_SUITES)

    # A NaN deviation must fail its suite: a running maximum taken with
    # Python's max() keeps the old value when the new one is NaN.
    def test_nan_eigenvalue_fails_linalg_suite(self, monkeypatch, capsys):
        original, calls = selfcheck.hermitian_eigenvalues_stack, []

        def nan_when_rotated(a):
            eigs = original(a).copy()
            calls.append(a)
            if len(calls) % 2 == 0:  # every second call is the rotated spectrum
                eigs[0] = np.nan
            return eigs

        monkeypatch.setattr(selfcheck, "hermitian_eigenvalues_stack", nan_when_rotated)
        assert main(["verify"]) == 2
        assert "[FAIL] linalg-algebra: max deviation nan" in capsys.readouterr().out

    def test_nan_embedding_fails_state_suite(self, monkeypatch, capsys):
        original = selfcheck.embed

        def nan_composition(op, targets, dims):
            out = original(op, targets, dims)
            return np.full_like(out, np.nan) if list(targets) == [0, 2] else out

        monkeypatch.setattr(selfcheck, "embed", nan_composition)
        assert main(["verify"]) == 2
        assert "[FAIL] state-operations: identities off by nan" in capsys.readouterr().out

    def test_nan_branch_fails_branch_suite(self, monkeypatch, capsys):
        original = selfcheck.switch_branch_stack

        def nan_entry(us, vs, mats, branch):
            out = original(us, vs, mats, branch).copy()
            out[7, 1, 2] = np.nan
            return out

        monkeypatch.setattr(selfcheck, "switch_branch_stack", nan_entry)
        assert main(["verify"]) == 2
        assert "[FAIL] switch-branch-decomposition: max deviation nan" in capsys.readouterr().out

    def test_reflection_completion_fails_scenario_suite(self, monkeypatch):
        # sign error in the lower rotation entry: turns the rotation block
        # into a reflection, which breaks the switch-state closed form
        import qswitch_qkd.scenarios as scenarios

        original = scenarios.gate_stack

        def corrupted(name, angles):
            if str(name).upper() == "U_SG":
                c, s = np.cos(angles), np.sin(angles)
                mats = np.zeros((len(c), 4, 4), dtype=complex)
                mats[:, 0, 0] = mats[:, 3, 3] = 1
                mats[:, 1, 1], mats[:, 1, 2], mats[:, 2, 1], mats[:, 2, 2] = c, s, s, -c
                return mats
            return original(name, angles)

        monkeypatch.setattr(scenarios, "gate_stack", corrupted)
        result = selfcheck.check_scenario_states()
        assert result.passed is False


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_help_is_the_same_on_every_call(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr()
        assert main(["--help"]) == 0
        assert capsys.readouterr() == first
        assert first.out.startswith("usage: qswitch-qkd")

    def test_flags_are_the_library_names(self):
        # the spellings that scripts, the README and the CI use, in --help's order
        assert list(cli._SCENARIO_FLAGS.items()) == [
            ("sg", "SG"), ("switch", "SWITCH"), ("symmetric-cnot", "SYMMETRIC_CNOT"),
            ("draft-switch", "DRAFT_SWITCH")]
        assert list(cli._PARTNER_FLAGS.items()) == [
            ("xz", "XZ"), ("swap", "SWAP"), ("cnot", "CNOT"), ("usg", "U_SG"),
            ("vdraft", "V_DRAFT")]
        assert tuple(cli._SCENARIO_FLAGS.values()) == SCENARIO_KINDS
        assert tuple(cli._PARTNER_FLAGS.values()) == SWITCH_PARTNERS

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        bad = ["sweep", "--scenario", "nope", "--out", str(tmp_path / "x.csv")]
        assert main(bad) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        out = tmp_path / "sg.csv"
        assert main(["sweep", "--scenario", "sg", "--steps", "3", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 4
        capsys.readouterr()
        assert main(bad) == 1
        assert capsys.readouterr().err == err


def module_env():
    """The environment of a ``python -m qswitch_qkd`` child that imports this package."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qswitch_qkd.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    return env


def bytes_stdin(text):
    """A stdin holding ``text`` as UTF-8 bytes, a lone surrogate as the byte it escapes: a text
    stream over them with the ``buffer`` that the real stdin has."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")), encoding="utf-8")


def run_closed_at_launch(argv, cwd, redirect, env=None):
    """``python -W error -m qswitch_qkd argv`` with a standard stream closed by the shell
    redirection ``redirect`` (``>&-``, ``<&-``) before the interpreter starts, which then sets
    ``sys.stdout`` or ``sys.stdin`` to None."""
    python = [sys.executable, "-W", "error", "-m", "qswitch_qkd", *argv]
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *python],
                          capture_output=True, text=True, cwd=cwd, env=env or module_env(),
                          timeout=300)


def run_with_closed_stdout(argv, cwd, unbuffered=False, at_launch=False):
    """``python -W error -m qswitch_qkd argv`` on a pipe whose reader has closed it before the
    run starts, as ``... | head -1`` does mid-run, or, ``at_launch``, with stdout closed before
    the interpreter starts; block-buffered stdout unless ``unbuffered``."""
    env = module_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if at_launch:
        return run_closed_at_launch(argv, cwd, ">&-", env)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-W", "error", "-m", "qswitch_qkd", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=cwd,
                              env=env, timeout=300)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("at_launch", [False, True], ids=["pipe", "at-launch"])
class TestClosedStdout:
    """A reader that closes stdout ends the run with exit code 1 and nothing on stderr: no
    traceback from a print, none from the interpreter's flush at exit.  So does a stdout closed
    before the interpreter starts, which Python sets to None."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_state(self, tmp_path, unbuffered, at_launch):
        argv = ["state", "--scenario", "switch", "--partner", "usg", "--phi1", "0.9",
                "--phi", "0.6"]
        proc = run_with_closed_stdout(argv, tmp_path, unbuffered, at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_verify(self, tmp_path, at_launch):
        proc = run_with_closed_stdout(["verify", "--seed", "0"], tmp_path, at_launch=at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["help", "sweep-help"])
    def test_help(self, tmp_path, argv, unbuffered, at_launch):
        # argparse would print the help to stderr, or swallow the closed pipe's error
        proc = run_with_closed_stdout(argv, tmp_path, unbuffered, at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_sweep_and_plot_still_write_their_files(self, tmp_path, at_launch):
        # only the summary line goes to stdout
        proc = run_with_closed_stdout(
            ["sweep", "--scenario", "sg", "--steps", "5", "--out", "sg.csv"], tmp_path,
            at_launch=at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert (tmp_path / "sg.csv").read_text().count("\n") == 6
        proc = run_with_closed_stdout(["plot", "sg.csv", "--columns", "i_ab", "--out", "x.svg"],
                                      tmp_path, at_launch=at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert (tmp_path / "x.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_sweep_to_stdout(self, tmp_path, unbuffered, at_launch):
        # the CSV is flushed before the summary line, so the summary never reaches stderr
        proc = run_with_closed_stdout(["sweep", "--scenario", "sg", "--steps", "5", "--out", "-"],
                                      tmp_path, unbuffered, at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_plot_to_stdout(self, tmp_path, unbuffered, at_launch):
        # the SVG is flushed before the summary line, so the summary never reaches stderr
        (tmp_path / "sg.csv").write_text(f"{CSV_HEADER}\n" + "0,1,0,0,0,0,0,0,0,0,true\n"
                                         + "1,0,1,1,1,0,0,0,0,0,false\n")
        proc = run_with_closed_stdout(["plot", "sg.csv", "--columns", "i_ab", "--out", "-"],
                                      tmp_path, unbuffered, at_launch)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sg.csv"]  # no file named "-"

    def test_usage_error_still_reports(self, tmp_path, at_launch):
        proc = run_with_closed_stdout(["verify", "--seed", "-1"], tmp_path, at_launch=at_launch)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestDashIsTheStandardStream:
    """``sweep --out -`` writes the CSV to stdout and the summary line to stderr; ``plot -``
    reads the CSV from stdin and names it ``<stdin>``."""

    def test_stdout_csv_is_the_file_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for label, digest in SWEEP_CSV_DIGESTS.items():
            assert main(_sweep_argv(label) + ["--out", "-"]) == 0, label
            out, err = capsys.readouterr()
            assert hashlib.sha256(out.encode()).hexdigest() == digest, label
            if label in SWEEP_SUMMARIES:
                assert err == SWEEP_SUMMARIES[label].format(out="<stdout>") + "\n"
        assert list(tmp_path.iterdir()) == []  # no file named "-"

    def test_sweep_pipes_into_plot(self, tmp_path):
        argv = [sys.executable, "-W", "error", "-m", "qswitch_qkd"]
        sweep = subprocess.Popen([*argv, "sweep", "--scenario", "switch", "--partner", "swap",
                                  "--out", "-"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 cwd=tmp_path, env=module_env())
        plot = subprocess.run([*argv, "plot", "-", "--columns", "i_ab,i_ae,i_be", "--out",
                               "piped.svg"], stdin=sweep.stdout, capture_output=True, text=True,
                              cwd=tmp_path, env=module_env(), timeout=300)
        sweep.stdout.close()
        assert sweep.wait(timeout=300) == 0
        assert sweep.stderr.read().decode().startswith("sweep switch/swap | 101 rows | ")
        sweep.stderr.close()
        assert (plot.returncode, plot.stderr) == (0, "")
        assert plot.stdout == "plot i_ab, i_ae, i_be from <stdin> -> piped.svg\n"
        digest = PLOT_SVG_DIGESTS["switch/swap", "i_ab,i_ae,i_be"]
        assert hashlib.sha256((tmp_path / "piped.svg").read_bytes()).hexdigest() == digest

    def test_plot_writes_the_svg_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--scenario", "switch", "--partner", "swap", "--out", "s.csv"]) == 0
        capsys.readouterr()
        assert main(["plot", "s.csv", "--columns", "i_ab,i_ae,i_be", "--out", "-"]) == 0
        out, err = capsys.readouterr()
        digest = PLOT_SVG_DIGESTS["switch/swap", "i_ab,i_ae,i_be"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == "plot i_ab, i_ae, i_be from s.csv -> <stdout>\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]  # no file named "-"

    @pytest.mark.parametrize("text, err", [
        ("", "error: <stdin> is empty\n"),
        (f"{CSV_HEADER}\n", "error: <stdin> contains no data rows; nothing to plot\n"),
        (f"{CSV_HEADER}\n0,1\n", "error: <stdin>, line 2: short row, no value for column 'i_ae'\n"),
        ("gain\n0.5\n", "error: <stdin> has no 'phi' column; available: gain\n"),
    ], ids=["empty", "header-only", "short-row", "no-phi"])
    def test_stdin_errors_name_stdin(self, tmp_path, monkeypatch, capsys, text, err):
        monkeypatch.setattr(sys, "stdin", bytes_stdin(text))
        out = tmp_path / "x.svg"
        assert main(["plot", "-", "--columns", "gain", "--out", str(out)]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("data, err", [
        (b"phi,y\n0,1\n1,\x80\n", "cannot read {csv}: line 3: 'utf-8' codec can't decode byte "
         "0x80 in position 12: invalid start byte"),
        (b"phi,y\r0,1\r1,q\r", "{csv}, line 3: column 'y' has non-numeric value 'q'"),
    ], ids=["not-utf-8", "cr-newlines"])
    def test_stdin_bytes_read_as_a_file_does(self, tmp_path, data, err):
        # the real stdin, whose own decoding would escape 0x80 and keep each \r
        (tmp_path / "in.csv").write_bytes(data)
        for source, name in (("-", "<stdin>"), ("in.csv", "in.csv")):
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "qswitch_qkd", "plot",
                                   source, "--columns", "y", "--out", "out.svg"], input=data,
                                  capture_output=True, cwd=tmp_path, env=module_env(), timeout=300)
            assert (proc.returncode, proc.stdout) == (1, b""), source
            assert proc.stderr.decode() == "error: " + err.format(csv=name) + "\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_stdin_closed_at_launch_is_one_error(self, tmp_path):
        proc = run_closed_at_launch(["plot", "-", "--columns", "y", "--out", "x.svg"], tmp_path,
                                    "<&-")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: cannot read <stdin>: [Errno 9] Bad file descriptor\n"
        assert list(tmp_path.iterdir()) == []


class TestPlot:
    @pytest.fixture
    def sweep_csv(self, tmp_path):
        out = tmp_path / "sg.csv"
        main(["sweep", "--scenario", "sg", "--steps", "21", "--out", str(out)])
        return out

    def test_three_series_chart(self, sweep_csv, tmp_path):
        out = tmp_path / "mi.svg"
        code = main(["plot", str(sweep_csv), "--columns", "i_ab,i_ae,i_be",
                     "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 3
        assert ">phi<" in svg
        assert "i_be" in svg

    def test_single_column_gain(self, sweep_csv, tmp_path):
        out = tmp_path / "gain.svg"
        assert main(["plot", str(sweep_csv), "--columns", "gain", "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 1

    def test_byte_deterministic(self, sweep_csv, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", str(sweep_csv), "--columns", "gain,qber", "--out", str(a)])
        main(["plot", str(sweep_csv), "--columns", "gain,qber", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_lists_available(self, sweep_csv, tmp_path, capsys):
        code = main(["plot", str(sweep_csv), "--columns", "nope", "--out",
                     str(tmp_path / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nope" in err and "i_ab" in err

    def test_empty_csv_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_HEADER + "\n")
        out = tmp_path / "x.svg"
        assert main(["plot", str(empty), "--columns", "gain", "--out", str(out)]) == 1
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _edit_line(path, lineno, edit):
        lines = path.read_text().split("\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines))

    def _plot_fails(self, csv_path, tmp_path, capsys):
        out = tmp_path / "x.svg"
        assert main(["plot", str(csv_path), "--columns", "gain", "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_extra_cell_names_file_line_and_column(self, sweep_csv, tmp_path, capsys):
        self._edit_line(sweep_csv, 3, lambda line: line + ",0.5")
        err = self._plot_fails(sweep_csv, tmp_path, capsys)
        assert f"{sweep_csv}, line 3: extra cell '0.5' in column 12" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_line_and_column(self, sweep_csv, tmp_path, capsys, cell):
        column = CSV_HEADER.split(",").index("gain")

        def put(line):
            cells = line.split(",")
            cells[column] = cell
            return ",".join(cells)

        self._edit_line(sweep_csv, 5, put)
        err = self._plot_fails(sweep_csv, tmp_path, capsys)
        assert f"{sweep_csv}, line 5: column 'gain' has non-finite value {cell!r}" in err

    def test_short_row_names_file_line_and_column(self, sweep_csv, tmp_path, capsys):
        self._edit_line(sweep_csv, 4, lambda line: line.rsplit(",", 1)[0])
        err = self._plot_fails(sweep_csv, tmp_path, capsys)
        assert f"{sweep_csv}, line 4: short row, no value for column 'secure'" in err

    @staticmethod
    def _row(**cells):
        values = dict(zip(CSV_HEADER.split(","), "0.5,1,0,0,0,0.25,2,2,2,0,true".split(",")))
        values.update(cells)
        return ",".join(values.values())

    # Each input's exit code and stderr, ``{path}`` standing for the file
    # (recorded from the DictReader parser that preceded the column-wise one,
    # but for the duplicate-column input: DictReader kept only the last cell
    # of a repeated column name and never read the others).  Inputs that
    # plot must give the chart of the same rows without blank lines or CRLF
    # endings.
    @pytest.mark.parametrize("text, code, err", [
        pytest.param(f"{CSV_HEADER}\n{_row()}\n{_row(gain='abc')}\n{_row()}\n", 1,
                     "error: {path}, line 3: column 'gain' has non-numeric value 'abc'\n",
                     id="non-numeric"),
        pytest.param(f"{CSV_HEADER}\n{_row()}\n{_row(i_ae='x').rsplit(',', 1)[0]}\n", 1,
                     "error: {path}, line 3: column 'i_ae' has non-numeric value 'x'\n",
                     id="short-and-non-numeric"),
        pytest.param(f"{CSV_HEADER}\n{_row()}\n{_row(phi='x')},0.5\n", 1,
                     "error: {path}, line 3: extra cell '0.5' in column 12, "
                     "past the 11-column header\n",
                     id="extra-and-non-numeric"),
        pytest.param(f"{CSV_HEADER}\n{_row()}\n\n{_row()}\n\n\n", 0, "",
                     id="blank-lines-mid-and-end"),
        pytest.param(f"{CSV_HEADER}\n{_row()}\n\n{_row(qber='nan')}\n", 1,
                     "error: {path}, line 4: column 'qber' has non-finite value 'nan'\n",
                     id="blank-line-before-bad-row"),
        pytest.param(f"{CSV_HEADER}\r\n{_row()}\r\n{_row()}\r\n", 0, "", id="crlf"),
        pytest.param(f"{CSV_HEADER}\r\n{_row()}\r\n{_row(secure='yes')}\r\n", 1,
                     "error: {path}, line 3: column 'secure' has non-numeric value 'yes'\n",
                     id="crlf-bad-row"),
        pytest.param(f"\n{CSV_HEADER}\n{_row()}\n", 1,
                     "error: {path}, line 2: extra cell 'phi' in column 1, "
                     "past the 0-column header\n",
                     id="first-line-blank"),
        pytest.param(f"{CSV_HEADER}\n", 1,
                     "error: {path} contains no data rows; nothing to plot\n", id="header-only"),
        pytest.param("\n\n", 1,
                     "error: {path} contains no data rows; nothing to plot\n", id="blank-only"),
        pytest.param("", 1, "error: {path} is empty\n", id="empty"),
        pytest.param("phi,gain,phi\nx,0.25,0.5\n", 1,
                     "error: {path}, line 2: column 'phi' has non-numeric value 'x'\n",
                     id="duplicate-column"),
    ])
    def test_parse_outcome(self, tmp_path, capsys, text, code, err):
        csv_path, out = tmp_path / "in.csv", tmp_path / "x.svg"
        csv_path.write_bytes(text.encode())
        assert main(["plot", str(csv_path), "--columns", "gain,qber", "--out", str(out)]) == code
        assert capsys.readouterr().err == err.format(path=csv_path)
        assert out.exists() == (code == 0)
        if code == 0:
            plain = tmp_path / "plain.csv"
            plain.write_text(f"{CSV_HEADER}\n{self._row()}\n{self._row()}\n")
            main(["plot", str(plain), "--columns", "gain,qber", "--out", str(tmp_path / "p.svg")])
            assert out.read_bytes() == (tmp_path / "p.svg").read_bytes()


    @pytest.mark.parametrize("gain, qber", [
        pytest.param(["true", "0.5", "false"], ["0", "0", "0"], id="true-false-among-numbers"),
        pytest.param(["1", "0.5", "0"], ["false", "false", "false"], id="true-false-column"),
    ])
    def test_true_false_cells_read_as_one_and_zero(self, tmp_path, gain, qber):
        # any column may hold true/false; a column that mixes them with
        # numbers is read row by row, one of true/false alone column-wise
        def write(path, gains, qbers):
            rows = [self._row(phi=str(i), gain=g, qber=q)
                    for i, (g, q) in enumerate(zip(gains, qbers))]
            path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")

        write(tmp_path / "bool.csv", gain, qber)
        write(tmp_path / "num.csv", ["1", "0.5", "0"], ["0", "0", "0"])
        for name in ("bool", "num"):
            assert main(["plot", str(tmp_path / f"{name}.csv"), "--columns", "gain,qber",
                         "--out", str(tmp_path / f"{name}.svg")]) == 0
        assert (tmp_path / "bool.svg").read_bytes() == (tmp_path / "num.svg").read_bytes()

    def test_well_formed_csv_parsed_by_column(self, sweep_csv, monkeypatch):
        from qswitch_qkd import cli

        readers = []
        real = cli.csv.reader
        monkeypatch.setattr(cli.csv, "reader", lambda f: readers.append(f) or real(f))
        header, columns = cli._read_csv(sweep_csv)
        assert len(readers) == 1  # no second pass to walk the rows
        _, rows = read_rows(sweep_csv)
        assert columns == [[float(r[k] == "true") if r[k] in ("true", "false") else float(r[k])
                            for r in rows] for k in header]


class TestRenderLineChart:
    SERIES = [("i_ab", [0.0, 0.5, 1.0], [0.1, 0.4, 0.2]), ("gain", [0.0, 0.5, 1.0], [0.3, 0.0, 0.25])]

    def test_array_series_draw_as_lists_do(self):
        arrays = [(label, np.array(xs), np.array(ys)) for label, xs, ys in self.SERIES]
        assert render_line_chart(arrays, "phi", "value") == render_line_chart(
            self.SERIES, "phi", "value")

    @pytest.mark.parametrize("series, message", [
        pytest.param([], "nothing to plot: no series given", id="no-series"),
        pytest.param([("gain", [0.0, 1.0], [0.5])], "series 'gain' has 2 x vs 1 y values",
                     id="lengths"),
    ])
    def test_series_that_cannot_be_drawn_is_named(self, series, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            render_line_chart(series, "phi", "value")

    @pytest.mark.parametrize("empty", [[], np.array([])])
    def test_empty_series_is_named(self, empty):
        with pytest.raises(ValueError, match="^series 'gain' is empty$"):
            render_line_chart([self.SERIES[0], ("gain", empty, empty)], "phi", "value")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", ["x", "y"])
    def test_non_finite_value_is_named(self, bad, coordinate):
        label, xs, ys = self.SERIES[1]
        xs, ys = list(xs), np.array(ys)
        (xs if coordinate == "x" else ys)[1] = bad
        with pytest.raises(ValueError, match="^series 'gain' has non-finite x or y values$"):
            render_line_chart([self.SERIES[0], (label, xs, ys)], "phi", "value")

    # the extremes of the float range, and neighbours whose difference the float spacing
    # at 1e17 (16) or the 5% y padding at 1.75e308 makes hard to scale
    EDGES = [0.0, 1.0, 1e17, 1e17 + 16, 1e308, -1e308, 1.75e308, sys.float_info.max,
             sys.float_info.min, 5e-324, 2.0 ** 53, 2.0 ** 53 + 2]
    FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES),
                       st.sampled_from(EDGES).map(lambda v: -math.nextafter(v, 0.0)))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=4))
    def test_finite_data_draw_or_raise_a_value_error(self, points):
        xs, ys = zip(*points)
        try:
            svg = render_line_chart([("s", xs, ys)], "phi", "value")
        except ValueError as exc:
            assert re.match(r"cannot scale the [xy] axis to values from ", str(exc)), exc
            return
        texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")
        ticks = [t for t in texts if t.getAttribute("font-size") == "11"]
        x_ticks = [float(t.getAttribute("x")) for t in ticks if t.getAttribute("text-anchor") == "middle"]
        y_ticks = [float(t.getAttribute("y")) for t in ticks if t.getAttribute("text-anchor") == "end"]
        # seven ticks at most, each at its own place: a tick loop that stops advancing fails here
        assert 1 <= len(x_ticks) <= 7 and 1 <= len(y_ticks) <= 7
        assert x_ticks == sorted(set(x_ticks)) and y_ticks == sorted(set(y_ticks), reverse=True)

    # label text: C0 controls, the XML specials, U+FFFE, U+FFFF and lone surrogates among
    # any other code point
    LABEL = st.text(st.one_of(st.characters(max_codepoint=0x1F), st.characters(),
                              st.sampled_from("&<>\ufffe\uffff\ud800\udc80\udfff")), max_size=6)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(LABEL, min_size=1, max_size=3), LABEL, LABEL)
    @example(["a&b", "<c>"], "x & y", "<value>")
    def test_labels_are_escaped(self, names, xlabel, ylabel):
        # a label is drawn as it is, or, holding a code point outside XML 1.0's Char
        # production, is a ValueError naming it and that code point
        labels = {"series": names, "x label": [xlabel], "y label": [ylabel]}
        try:
            svg = render_line_chart([(name, [0.0, 1.0], [0.0, 1.0]) for name in names],
                                    xlabel, ylabel)
        except ValueError as exc:
            m = re.fullmatch(r"(series|x label|y label) (.*) holds U\+([0-9A-F]{4,6}), "
                             r"which an SVG \(XML 1\.0\) cannot hold", str(exc), re.DOTALL)
            assert m, exc
            assert m[2] in map(repr, labels[m[1]])
            assert not is_xml_char(chr(int(m[3], 16)))
            return
        assert all(map(is_xml_char, "".join(names) + xlabel + ylabel))
        texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")
        drawn = {size: ["".join(c.data for c in t.childNodes) for t in texts
                        if t.getAttribute("font-size") == size] for size in ("12", "13")}
        assert drawn == {"12": names, "13": [xlabel, ylabel]}


def is_xml_char(c):
    """Whether XML 1.0's Char production holds the code point ``c``."""
    o = ord(c)
    return c in "\t\n\r" or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or o >= 0x10000


class TestPlotExtremes:
    def _plot(self, tmp_path, csv_text, column="y"):
        # UTF-8, a lone surrogate as the byte it escapes
        (tmp_path / "in.csv").write_bytes(csv_text.encode("utf-8", "surrogateescape"))
        return main(["plot", str(tmp_path / "in.csv"), "--columns", column,
                     "--out", str(tmp_path / "out.svg")])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("csv_text, axis, values", [
        ("phi,y\n0,-1e308\n1,1e308\n", "y", "-1e+308 to 1e+308"),
        ("phi,y\n0,0\n1,1.75e308\n", "y", "0.0 to 1.75e+308"),  # the 5% padding overflows
        ("phi,y\n-1e308,0\n1e308,1\n", "x", "-1e+308 to 1e+308"),
    ], ids=["y-span", "y-padding", "x-span"])
    def test_overflowing_axis_is_one_error_naming_it(self, tmp_path, capsys, csv_text, axis, values):
        assert self._plot(tmp_path, csv_text) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot scale the {axis} axis to values from {values}\n"
        assert not (tmp_path / "out.svg").exists()

    def test_values_closer_than_the_step_draw(self, tmp_path):
        # at 1e17 the floats are 16 apart, and the tick step 5 once never moved the tick on
        assert self._plot(tmp_path, "phi,y\n0,1e17\n1,100000000000000016\n") == 0
        xml.dom.minidom.parse(str(tmp_path / "out.svg"))

    def test_column_name_is_escaped(self, tmp_path):
        assert self._plot(tmp_path, "phi,a&b\n0,1\n1,2\n", column="a&b") == 0
        svg = xml.dom.minidom.parse(str(tmp_path / "out.svg"))
        assert "a&b" in {t.firstChild.data for t in svg.getElementsByTagName("text")}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("csv_text, column, err", [
        ("phi,a\x01b\n0,1\n1,2\n", "a\x01b",
         r"series 'a\x01b' holds U+0001, which an SVG (XML 1.0) cannot hold"),
        ("phi,a\ufffeb\n0,1\n1,2\n", "a\ufffeb",
         r"series 'a\ufffeb' holds U+FFFE, which an SVG (XML 1.0) cannot hold"),
        ("phi,y,y\n0,1,5\n1,2,6\n", "y",
         "{csv} has 2 columns named 'y'; a column that plot reads must be unique"),
        ("phi,y,phi\n0,1,5\n1,2,6\n", "y",
         "{csv} has 2 columns named 'phi'; a column that plot reads must be unique"),
        ("phi,y\n0," + "1" * 131073 + "\n", "y",
         "{csv}, line 2: field larger than field limit (131072)"),
        ("phi,y\n0,1\n1,\udc80\n", "y", "cannot read {csv}: line 3: 'utf-8' codec can't "
         "decode byte 0x80 in position 12: invalid start byte"),
    ], ids=["control-character", "u+fffe", "repeated-column", "repeated-phi", "huge-cell",
            "not-utf-8"])
    def test_unplottable_csv_is_one_error_and_no_file(self, tmp_path, capsys, csv_text, column, err):
        assert self._plot(tmp_path, csv_text, column=column) == 1
        csv_name = str(tmp_path / "in.csv")
        assert capsys.readouterr().err == "error: " + err.format(csv=csv_name) + "\n"
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("csv_text, column, err", [
        ('phi,"a\nb"\n0,1\n1,2\n', "z", "column(s) z not found; available: phi, 'a\\nb'"),
        ("phi,y\n0,1\n1,2\n", "q\nr", "column(s) 'q\\nr' not found; available: phi, y"),
        (None, "y", "cannot read {csv!r}: [Errno 2] No such file or directory: {csv!r}"),
    ], ids=["header", "columns", "path"])
    def test_name_holding_a_newline_is_one_error_line(self, tmp_path, capsys, csv_text, column,
                                                      err):
        csv_path = tmp_path / ("in.csv" if csv_text else "no\nfile.csv")
        if csv_text:
            csv_path.write_text(csv_text)
        assert main(["plot", str(csv_path), "--columns", column,
                     "--out", str(tmp_path / "out.svg")]) == 1
        assert capsys.readouterr().err == "error: " + err.format(csv=str(csv_path)) + "\n"
        assert not (tmp_path / "out.svg").exists()

    @staticmethod
    def _plot_in_ascii_locale(tmp_path, out="out.svg", **env):
        """Plot the column ``é`` of a UTF-8 CSV to ``out`` in a child run in the C locale, with
        ``env`` added to its environment; the SVG's labels must hold ``é``.  The child's
        result, its streams as bytes."""
        (tmp_path / "in.csv").write_bytes("phi,\u00e9\n0,1\n1,2\n".encode())
        env = dict(module_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", **env)
        code = ("from qswitch_qkd.cli import main; raise SystemExit(main("
                f"['plot', 'in.csv', '--columns', '\\u00e9', '--out', {out!r}]))")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              cwd=tmp_path, env=env, timeout=300)
        svg = (xml.dom.minidom.parseString(proc.stdout) if out == "-"
               else xml.dom.minidom.parse(str(tmp_path / out)))
        assert "\u00e9" in {t.firstChild.data for t in svg.getElementsByTagName("text")}
        return proc

    def test_files_are_utf_8_in_an_ascii_locale(self, tmp_path):
        # the standard streams stay UTF-8, so only the files' encoding is at stake
        proc = self._plot_in_ascii_locale(tmp_path, PYTHONIOENCODING="utf-8")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "plot \u00e9 from in.csv -> out.svg\n".encode(), b"")

    def test_summary_escapes_what_an_ascii_stdout_cannot_carry(self, tmp_path):
        # stdout is ASCII too: the summary shows the name escaped, after the file is written
        proc = self._plot_in_ascii_locale(tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"plot \\xe9 from in.csv -> out.svg\n", b"")

    def test_svg_on_an_ascii_stdout_is_the_file_s_utf_8(self, tmp_path):
        # the SVG goes to stdout as the UTF-8 bytes a file gets; the summary is escaped
        self._plot_in_ascii_locale(tmp_path)
        proc = self._plot_in_ascii_locale(tmp_path, out="-")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, (tmp_path / "out.svg").read_bytes(), b"plot \\xe9 from in.csv -> <stdout>\n")

    def test_repeated_name_that_plot_never_reads_is_allowed(self, tmp_path):
        assert self._plot(tmp_path, "phi,y,z,z\n0,1,5,5\n1,2,6,6\n") == 0
        xml.dom.minidom.parse(str(tmp_path / "out.svg"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("out", ["-", "out.svg"])
    def test_lone_surrogate_from_stdin_is_one_error_and_no_output(self, tmp_path, monkeypatch,
                                                                  capsys, out):
        # a byte that is not UTF-8 on stdin fails the decode, as in a file
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", bytes_stdin("phi,a\udc80b\n0,1\n1,2\n"))
        assert main(["plot", "-", "--columns", "a\udc80b", "--out", out]) == 1
        assert capsys.readouterr() == ("", "error: cannot read <stdin>: line 1: 'utf-8' codec "
                                       "can't decode byte 0x80 in position 5: invalid start byte\n")
        assert list(tmp_path.iterdir()) == []


def mostly(common, rare, odds=3):
    """A strategy drawing from ``common`` ``odds`` times in ``odds + 1``, else from ``rare``."""
    return st.integers(0, odds).flatmap(lambda k: rare if k == 0 else common)


# Bounds and angles for the fuzz below: in range, out of range, at the float extremes, non-finite
FUZZ_FLOATS = st.one_of(st.sampled_from([0.0, 0.3, math.pi / 2, 90.0, -0.1, 2.0, 1e308, -1e308,
                                         1.7e308, -1.7e308, math.nan, math.inf, -math.inf]),
                        st.floats())
# CSV cells and column names: plain numbers and booleans mostly, so that most CSVs parse, and
# the fuzz floats and text; names with C0 controls, the XML specials, the CSV quote and
# separator, U+FFFE and a lone surrogate
PLAIN_CELLS = st.sampled_from(["0", "1", "0.5", "-2", "1e-300", "true", "false"])
FUZZ_CELLS = mostly(PLAIN_CELLS, st.one_of(FUZZ_FLOATS.map(repr),
                                         st.sampled_from(["", "x", "1e309"])), odds=5)
FUZZ_NAMES = st.one_of(st.sampled_from(["phi", "y", "z", "a&b"]), st.text(st.one_of(
    st.characters(max_codepoint=0x1F), st.sampled_from('yz&<>,"\ufffe\udc80 ')), max_size=4))


# Angles in [0, pi/2] mostly, so that most argvs reach the engine
FUZZ_ANGLES = mostly(st.floats(0.0, math.pi / 2), FUZZ_FLOATS)
# Scenario and partner flags: a valid pair mostly, any pair or none otherwise
VALID_PAIRS = [("sg", None), ("symmetric-cnot", None), *[("switch", p) for p in cli._PARTNER_FLAGS],
               ("draft-switch", "usg"), ("draft-switch", "vdraft")]
ANY_PAIRS = st.tuples(st.sampled_from(sorted(cli._SCENARIO_FLAGS)),
                      st.sampled_from([None, *sorted(cli._PARTNER_FLAGS)]))


@st.composite
def scenario_argv(draw):
    """A ``sweep`` or ``state`` argv from the real flags, every value given as
    ``--flag=value``; ``--steps`` at most 5."""
    command = draw(st.sampled_from(["sweep", "state"]))
    scenario, partner = draw(mostly(st.sampled_from(VALID_PAIRS), ANY_PAIRS))
    argv = [command, "--scenario=" + scenario]
    if partner is not None:
        argv.append("--partner=" + partner)
    if partner in ("usg", "vdraft") or draw(st.integers(0, 4)) == 0:
        argv.append(f"--phi1={draw(FUZZ_ANGLES)!r}")
    if draw(st.integers(0, 3)) == 0:
        argv.append("--degrees")
    if command == "state":
        return argv + [f"--phi={draw(FUZZ_ANGLES)!r}"]
    bounds = [draw(FUZZ_ANGLES), draw(FUZZ_ANGLES)]
    if draw(st.integers(0, 3)):
        bounds.sort()  # in order mostly; a NaN bound stays where it is
    for flag, bound in zip(("--phi-start", "--phi-end"), bounds):
        if draw(st.booleans()):
            argv.append(f"{flag}={bound!r}")
    steps = draw(mostly(st.integers(2, 5), st.integers(-1, 1), odds=5))
    metrics = draw(st.lists(mostly(st.sampled_from(METRIC_GROUPS), st.just("nope"), odds=7),
                            min_size=1, max_size=3))
    return argv + [f"--steps={steps}", "--metrics=" + ",".join(metrics)]


def csv_line(cells):
    return ",".join('"' + c.replace('"', '""') + '"' if re.search('[,"\r\n]', c) else c
                    for c in cells) + "\n"


@st.composite
def plot_csv(draw):
    """A CSV text, mostly led by ``phi``, of up to four rows, and a ``--columns`` value naming
    some of its columns or a missing one.  Half of the CSVs hold plain numbers only, in rows
    of the header's width; the others draw every cell and some rows short or long."""
    names = draw(st.lists(FUZZ_NAMES, min_size=1, max_size=3))
    if draw(st.integers(0, 7)):
        names.insert(0, "phi")
    if draw(st.booleans()):
        cells, width = PLAIN_CELLS, st.just(len(names))
    else:
        cells, width = FUZZ_CELLS, st.integers(max(len(names) - 1, 0), len(names) + 1)
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
                         min_size=int(draw(st.integers(0, 5)) > 0), max_size=4))
    columns = draw(st.lists(st.sampled_from([*names, "y"]), min_size=1, max_size=3))
    return "".join(map(csv_line, [names, *rows])), ",".join(columns)


def run_main(argv, stdin_text=""):
    """``main(argv)`` with stdin holding ``stdin_text`` and every warning an error: the exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch.object(sys, "stdin", bytes_stdin(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestMainFuzz:
    """Any argv built from the real flags exits 0, or exits 1 with one ``error:`` line and no
    output file; no call raises, and no call warns.  An SVG written on exit 0 parses as XML."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(scenario_argv(), st.booleans())
    def test_sweep_and_state(self, argv, to_stdout):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            if argv[0] == "sweep":
                argv = [*argv, "--out=" + ("-" if to_stdout else str(out))]
            code, stdout, stderr = run_main(argv)
            assert code in (0, 1), (argv, code)
            if code == 1:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
                assert stdout == "" and not out.exists()
            elif argv[0] == "sweep":
                csv_text = stdout if to_stdout else out.read_text()
                steps = int(next(a for a in argv if a.startswith("--steps="))[8:])
                assert csv_text.startswith(CSV_HEADER + "\n") and csv_text.count("\n") == steps + 1
                assert stderr.count("\n") == int(to_stdout)  # the summary line, on stderr for -
            else:
                assert stdout.startswith("scenario ") and stderr == ""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(plot_csv(), st.booleans(), st.booleans())
    def test_plot(self, case, from_stdin, to_stdout):
        text, columns = case
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, svg_path = Path(tmp) / "in.csv", Path(tmp) / "out.svg"
            # a lone surrogate reaches stdin and the file as the byte it escapes
            csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
            argv = ["plot", "-" if from_stdin else str(csv_path), "--columns=" + columns,
                    "--out=" + ("-" if to_stdout else str(svg_path))]
            code, stdout, stderr = run_main(argv, text)
            assert code in (0, 1), (text, columns, code)
            if code == 1:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1, (text, columns,
                                                                                stderr)
                assert stdout == "" and not svg_path.exists()
            else:
                xml.dom.minidom.parseString(stdout if to_stdout else svg_path.read_text())
            if from_stdin:  # the same bytes in a file give the same run, named by its path
                svg_path.unlink(missing_ok=True)
                named = [out.replace("<stdin>", str(csv_path)) for out in (stdout, stderr)]
                assert run_main([argv[0], str(csv_path), *argv[2:]]) == (code, *named), text

    @settings(derandomize=True, max_examples=5, deadline=None, database=None)
    @given(st.one_of(scenario_argv(), plot_csv()), st.booleans(), st.booleans())
    def test_closed_stdout(self, case, to_stdout, at_launch):
        """A few draws, a subprocess each, with stdout closed (TestClosedStdout): exit 1 with
        the in-process run's error line on stderr, or nothing where that run succeeds, and the
        same output file."""
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, out = Path(tmp) / "in.csv", Path(tmp) / "out"
            argv = case
            if isinstance(case, tuple):  # a plot CSV and its --columns value
                csv_path.write_text(case[0], errors="surrogateescape")
                argv = ["plot", str(csv_path), "--columns=" + case[1]]
            if argv[0] != "state":
                argv = [*argv, "--out=" + ("-" if to_stdout else str(out))]
            code, _, stderr = run_main(argv)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            proc = run_with_closed_stdout(argv, tmp, at_launch=at_launch)
            assert (proc.returncode, proc.stderr) == (1, "" if code == 0 else stderr), argv
            assert (out.read_bytes() if out.exists() else None) == written


@pytest.mark.parametrize("module", [""] + sorted(
    "." + m.name for m in pkgutil.iter_modules(qswitch_qkd.__path__)))
def test_star_import_finds_every_name_in_all(module):
    # a name deleted from a module but left in its __all__ fails the star import
    namespace = {}
    exec(f"from qswitch_qkd{module} import *", namespace)
    names = getattr(importlib.import_module(f"qswitch_qkd{module}"), "__all__", ())
    assert set(names) <= set(namespace)


class TestSweepConfig:
    def test_requires_metrics(self):
        with pytest.raises(Exception, match="at least one metric"):
            SweepConfig("SG", None, None, 0.0, 1.0, 5, (), None)

    def test_requires_ordered_range(self):
        with pytest.raises(Exception, match="phi-start"):
            SweepConfig("SG", None, None, 1.0, 0.0, 5,
                        ("mi",), None)

    def test_requires_two_steps(self):
        with pytest.raises(Exception, match="steps"):
            SweepConfig("SG", None, None, 0.0, 1.0, 1, ("mi",), None)

    @pytest.mark.parametrize("flag", ["--phi-start", "--phi-end"])
    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_bound_names_its_flag(self, tmp_path, capsys, flag, bound):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--scenario", "sg", f"{flag}={bound}", "--out", str(out)])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag[2:]} must be finite, got {float(bound)}"]
        assert not out.exists()

    def test_overflowing_span_names_both_bounds(self, tmp_path, capsys):
        # each bound is finite, but phi-end - phi-start is not: rejected
        # before np.linspace would overflow and warn
        out = tmp_path / "y.csv"
        argv = ["sweep", "--scenario", "sg", "--phi-start=-1.7e308", "--phi-end=1.7e308",
                "--steps", "3", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.splitlines() == [
            "error: phi-end (1.7e+308) - phi-start (-1.7e+308) overflows"]
        assert not out.exists()

    def test_render_helper_matches_cli_output(self, tmp_path):
        config = SweepConfig("SG", None, None, 0.0, math.pi / 2, 9,
                             ("mi", "gain", "bell", "qber", "secure"),
                             tmp_path / "x.csv")
        text = render_sweep_csv(compute_sweep(config))
        main(["sweep", "--scenario", "sg", "--steps", "9", "--out",
              str(tmp_path / "x.csv")])
        assert (tmp_path / "x.csv").read_text() == text


# SHA-256 of the default-grid (101-point) sweep CSV of every scenario config
# the CLI accepts, keyed like benchmarks/golden.json.  Recorded from the
# per-point engine that preceded the batched one; the three configs that
# golden.json leaves null failed on the seed code (QBER round-off).
SWEEP_CSV_DIGESTS = {
    "sg": "348066feff5dace848b75a12a88093b7ef0c5142b168caa8b15730b4492ab072",
    "symmetric-cnot": "2126e222a799c86ae598c0abde00f44e83e2effdc88131e41015e880fc529cf2",
    "switch/xz": "ce3c3c8f6417d6f80f69d0e30db3b6b55e49c92c99ff4d11c3da53dbcec1a325",
    "switch/swap": "d53eb6b7b43ce5bdd209d6e0eb6ca6b3c51ec11d4f964a96428ca0eb4172a494",
    "switch/cnot": "8bd34c517783b8d72ab0f12b7593fe1832857590e91dd5907689979fe80e59d0",
    "switch/usg phi1=0.9": "ae3064e2855ffe978d1cefc7da1f5cebd2713808fbda7f90db063118980dffe6",
    "switch/vdraft phi1=0.9": "480442f816aefee61682256aeab1319c72c05cd55a480d146d92c3ab6d564be3",
    "switch/vdraft phi1=1.5707963267948966":
        "753748d8f3266318666588ed5a06bb640f9c9d6f8c0928b0e320aaf9f530f8f4",
    "draft-switch/usg phi1=1.5707963267948966":
        "5b00bf3b8821781e7fef095dd9f47da716f69487b3058b94baa759eac5492831",
    "draft-switch/vdraft phi1=1.5707963267948966":
        "753748d8f3266318666588ed5a06bb640f9c9d6f8c0928b0e320aaf9f530f8f4",
}


def _sweep_argv(label):
    config, _, phi1 = label.partition(" phi1=")
    scenario, _, partner = config.partition("/")
    argv = ["sweep", "--scenario", scenario]
    if partner:
        argv += ["--partner", partner]
    if phi1:
        argv += ["--phi1", phi1]
    return argv


def test_sweep_csv_digests(tmp_path):
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json").read_text()
    )
    assert {k: v for k, v in golden.items() if v is not None} == {
        k: SWEEP_CSV_DIGESTS[k] for k, v in golden.items() if v is not None
    }
    got = {}
    for label in SWEEP_CSV_DIGESTS:
        out = tmp_path / "x.csv"
        assert main(_sweep_argv(label) + ["--out", str(out)]) == 0, label
        got[label] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == SWEEP_CSV_DIGESTS


# The stdout summary line of each default-grid sweep above, ``{out}`` standing for
# the CSV path.  Recorded from the row-list engine that preceded the columnar one.
SWEEP_SUMMARIES = {
    "sg":
        "sweep sg | 101 rows | phi [0, 1.57079633] -> {out} | i_ab [1.11022302e-16, 1] | "
        "min_eve [1.11022302e-16, 0.155639062] | gain [0, 0.25] | bell_ae [0, 2.82842712] | "
        "qber [0, 0.5] | secure 100/101, flips before phi=1.57079633",
    "symmetric-cnot":
        "sweep symmetric_cnot | 101 rows | phi [0, 1.57079633] -> {out} | i_ab [0, 1] | "
        "min_eve [0, 0.0972310988] | gain [6.24500451e-17, 0.25] | "
        "bell_ae [2.12115048e-16, 2] | qber [0, 1] | "
        "secure 53/101, flips before phi=0.753982237",
    "switch/xz":
        "sweep switch/xz | 101 rows | phi [0, 1.57079633] -> {out} | i_ab [0, 1] | "
        "min_eve [0, 5.55111512e-16] | gain [0, 0.25] | bell_ae [0, 2] | qber [0.5, 1] | "
        "secure 100/101, flips before phi=1.57079633",
    "switch/swap":
        "sweep switch/swap | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [0, 2.22044605e-16] | min_eve [0, 2.22044605e-16] | gain [0, 0.25] | "
        "bell_ae [2, 2.82842712] | qber [3.74939946e-33, 0.5] | secure 0/101",
    "switch/cnot":
        "sweep switch/cnot | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [0.158344544, 0.5] | min_eve [0.158344544, 0.5] | gain [0, 0.0833333333] | "
        "bell_ae [2, 2.40370085] | qber [0, 0.166666667] | "
        "secure 8/101, flips before phi=0.172787596; 0.188495559; 0.471238898; 0.486946861; "
        "0.518362788; 0.549778714; 0.81681409; 0.832522053; 1.11526539; 1.13097336; "
        "1.16238928; 1.17809725; 1.27234502; 1.28805299",
    "switch/usg phi1=0.9":
        "sweep switch/u_sg | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [1.31820931e-05, 0.456674738] | min_eve [1.3181757e-05, 0.155625319] | "
        "gain [5.3965079e-06, 0.153400262] | bell_ae [1.7581785, 2.8283966] | "
        "qber [0.193199476, 0.499989207] | secure 101/101",
    "switch/vdraft phi1=0.9":
        "sweep switch/v_draft | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [0, 0.0375636974] | min_eve [0, 3.33066907e-16] | "
        "gain [0.0568005237, 0.0568005237] | bell_ae [0.454404189, 1.94769526] | "
        "qber [0.613601047, 0.613601047] | secure 100/101, flips before phi=1.57079633",
    "switch/vdraft phi1=1.5707963267948966":
        "sweep switch/v_draft | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [1.9818757e-31, 1] | min_eve [0, 3.33066907e-16] | gain [0.25, 0.25] | "
        "bell_ae [2.4492936e-16, 2] | qber [1, 1] | secure 101/101",
    "draft-switch/usg phi1=1.5707963267948966":
        "sweep draft_switch/u_sg | 101 rows | phi [0, 1.57079633] -> {out} | i_ab [0, 1] | "
        "min_eve [0, 0.155639062] | gain [0, 0.25] | bell_ae [3.46382422e-16, 2.82842712] | "
        "qber [7.49879891e-33, 0.5] | secure 100/101, flips before phi=0.0157079633",
    "draft-switch/vdraft phi1=1.5707963267948966":
        "sweep draft_switch/v_draft | 101 rows | phi [0, 1.57079633] -> {out} | "
        "i_ab [1.9818757e-31, 1] | min_eve [0, 3.33066907e-16] | gain [0.25, 0.25] | "
        "bell_ae [2.4492936e-16, 2] | qber [1, 1] | secure 101/101",
}


def test_sweep_summary_lines(tmp_path, capsys):
    out = tmp_path / "x.csv"
    got = {}
    for label in SWEEP_SUMMARIES:
        assert main(_sweep_argv(label) + ["--out", str(out)]) == 0, label
        got[label] = capsys.readouterr().out
    assert got == {label: line.format(out=out) + "\n" for label, line in SWEEP_SUMMARIES.items()}


# SHA-256 of the SVG that ``plot`` draws from each default-grid sweep CSV of
# the benchmark's seven timed configs, keyed by config and columns.  Recorded
# from the per-point chart code that preceded the array one.
PLOT_SVG_DIGESTS = {
    ("sg", "i_ab,i_ae,i_be"):
        "c50510d212dc5528fa345c649564ee198c59d6e3f3a6ec873270744ade97bc41",
    ("symmetric-cnot", "i_ab,i_ae,i_be"):
        "97c4db26ed60862956fbdbe5d873d4b0a1b4ce0573e8f8d5b39e8f4c464ff88b",
    ("switch/swap", "i_ab,i_ae,i_be"):
        "7a8a0a38c41bc63967250c2bcfacbbedee4681f36a398461d1650ea0b670af91",
    ("switch/swap", "gain,qber,secure"):
        "5ac471998edb1ca66e5d9349130124263e62f2f3dfff48f00533c8817e23e588",
    ("switch/cnot", "i_ab,i_ae,i_be"):
        "d4fe27501d6b471b21add4fdfe33cad0aeab8e238dbc98951ceb53621a48de3f",
    ("switch/usg phi1=0.9", "i_ab,i_ae,i_be"):
        "fe0c2fb7497ba2bd6d628cfd0c2e506156aaf0cf2a0446cf5c62335f7668e06b",
    ("switch/vdraft phi1=0.9", "i_ab,i_ae,i_be"):
        "494b1fed46761724e1639017aa186653d57985ba3cc806b4b4c636a1a6331f9f",
    ("draft-switch/usg phi1=1.5707963267948966", "i_ab,i_ae,i_be"):
        "1b70f0cafc70e6994baa04079fa1ddff5e082c979459c5f6665d2117d509aa20",
}


def test_plot_svg_digests(tmp_path):
    got = {}
    for label, columns in PLOT_SVG_DIGESTS:
        csv_path, svg_path = tmp_path / "x.csv", tmp_path / "x.svg"
        assert main(_sweep_argv(label) + ["--out", str(csv_path)]) == 0, label
        assert main(["plot", str(csv_path), "--columns", columns, "--out", str(svg_path)]) == 0
        got[label, columns] = hashlib.sha256(svg_path.read_bytes()).hexdigest()
    assert got == PLOT_SVG_DIGESTS
