import dataclasses
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qswitch_qkd import selfcheck, switch
from qswitch_qkd.cli import (CSV_HEADER, SweepConfig, build_parser, compute_sweep, main,
                             render_sweep_csv)
from qswitch_qkd.metrics import security_condition
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

    def test_non_finite_partner_angle_exits_one_without_warning(self, capsys):
        argv = ["state", "--scenario", "switch", "--partner", "usg", "--phi", "0.3", "--phi1", "inf"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [w.message for w in caught] == []
        assert "error: second angle phi1 must be finite, got inf" in capsys.readouterr().err


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
        original, calls = selfcheck.hermitian_eigenvalues, []

        def nan_when_rotated(a):
            eigs = original(a).copy()
            calls.append(a)
            if len(calls) % 2 == 0:  # every second call is the rotated spectrum
                eigs[0] = np.nan
            return eigs

        monkeypatch.setattr(selfcheck, "hermitian_eigenvalues", nan_when_rotated)
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
