import re

import numpy as np
import pytest

import qswitch_qkd.scenarios as scenarios
from qswitch_qkd.linalg import RowError
from qswitch_qkd.metrics import evaluate_rows
from qswitch_qkd.qstate import (
    DensityMatrix,
    PureState,
    embed,
    gate_stack,
    make_gate,
    partial_trace,
)
from qswitch_qkd.scenarios import (
    SWITCH_PARTNERS,
    AttackScenario,
    reduced_pair,
    reduced_pairs,
    scenario_amplitudes,
    scenario_pure_state,
    scenario_state,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from qswitch_qkd.switch import lambda_branch


def basis_ket(index, n=8):
    v = np.zeros(n, dtype=complex)
    v[index] = 1.0
    return v


class TestAttackScenario:
    def test_phi_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
            AttackScenario("SG", 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            AttackScenario("BOGUS", 0.1)

    def test_switch_requires_partner(self):
        with pytest.raises(ValueError, match="requires a partner"):
            AttackScenario("SWITCH", 0.1)

    def test_plain_scenario_takes_no_partner(self):
        with pytest.raises(ValueError, match="takes no partner"):
            AttackScenario("SG", 0.1, partner="SWAP")

    def test_draft_switch_partner_restriction(self):
        with pytest.raises(ValueError, match="not valid"):
            AttackScenario("DRAFT_SWITCH", 0.1, partner="SWAP")

    def test_parametric_partner_requires_phi1(self):
        with pytest.raises(ValueError, match="phi1"):
            AttackScenario("SWITCH", 0.1, partner="V_DRAFT")

    @pytest.mark.parametrize(
        "kind,partner",
        [("SWITCH", "XZ"), ("SWITCH", "SWAP"), ("SWITCH", "CNOT"), ("SG", None),
         ("SYMMETRIC_CNOT", None)],
    )
    def test_phi1_rejected_where_it_does_not_apply(self, kind, partner):
        with pytest.raises(ValueError, match="takes no second angle"):
            AttackScenario(kind, 0.3, partner=partner, phi1=7.0)

    @pytest.mark.parametrize("phi1", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,partner", [("SWITCH", "U_SG"), ("DRAFT_SWITCH", "V_DRAFT")])
    def test_non_finite_phi1_rejected_by_name(self, kind, partner, phi1):
        with pytest.raises(ValueError, match="^second angle phi1 must be finite"):
            AttackScenario(kind, 0.3, partner=partner, phi1=phi1)
        with pytest.raises(ValueError, match="^second angle phi1 must be finite") as info:
            scenario_amplitudes(kind, [0.1, 0.3], partner, phi1)
        assert not isinstance(info.value, RowError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["0.3", b"0.3", True, np.True_, 0.3 + 1j, np.complex128(0.3)])
    def test_angle_that_is_not_a_real_number_is_named(self, bad):
        # float() would take "0.3" as 0.3 and True as 1.0, and a complex angle
        # raised a TypeError; each is the ValueError a measurement angle gives
        phi, phi1 = "^attack strength phi must be", "^second angle phi1 must be"
        real = " a real number, got "
        for build, name in [
            (lambda: AttackScenario("SG", bad), phi),
            (lambda: AttackScenario("SWITCH", 0.3, "U_SG", bad), phi1),
            (lambda: evaluate_rows("SG", [0.3, bad]), phi),
            (lambda: evaluate_rows("SG", np.array([bad])), phi),
            (lambda: evaluate_rows("SG", np.array([0.3, bad], dtype=object)), phi),
            (lambda: evaluate_rows("SG", bad), phi),
            (lambda: scenario_amplitudes("DRAFT_SWITCH", [0.3], "V_DRAFT", bad), phi1),
        ]:
            with pytest.raises(ValueError, match=name + real) as info:
                build()
            assert not isinstance(info.value, RowError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[0.1, 0.2], (0.1,), np.array([0.1]), np.zeros((1, 1))])
    def test_sequence_in_place_of_an_angle_is_named(self, bad):
        with pytest.raises(ValueError, match="^attack strength phi must be one number, got a "):
            AttackScenario("SG", bad)
        with pytest.raises(ValueError, match="^second angle phi1 must be one number, got a "):
            AttackScenario("SWITCH", 0.3, "U_SG", bad)
        with pytest.raises(ValueError, match="^second angle phi1 must be one number, got a "):
            evaluate_rows("SWITCH", [0.3], "U_SG", bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phis", [[0.1, [0.2]], [[0.1], [0.2, 0.3]], (0.1, (0.2, 0.3))])
    def test_ragged_grid_names_phi(self, phis):
        # np.asarray cannot stack a ragged list; its own message named neither phis nor phi
        for build in (lambda: evaluate_rows("SG", phis),
                      lambda: scenario_amplitudes("SWITCH", phis, "SWAP")):
            with pytest.raises(ValueError,
                               match="^attack strength phi must be one number, got a ") as info:
                build()
            assert not isinstance(info.value, RowError)

    @pytest.mark.filterwarnings("error")
    def test_integer_angles_are_floats(self):
        sc = AttackScenario("SWITCH", 1, "U_SG", np.int64(1))
        assert (type(sc.phi), type(sc.phi1)) == (float, float)
        assert sc == AttackScenario("SWITCH", 1.0, "U_SG", 1.0)
        for phis in ([0, 1], (np.int64(0), 1), np.arange(2)):
            assert scenario_amplitudes("SG", phis).tobytes() == scenario_amplitudes(
                "SG", [0.0, 1.0]).tobytes()

    def test_cli_style_labels_normalize(self):
        sc = AttackScenario("draft-switch", 0.1, partner="u_sg", phi1=0.9)
        assert sc.kind == "DRAFT_SWITCH"
        assert sc.partner == "U_SG"


class TestSgState:
    def test_no_attack_leaves_resource(self):
        rho = sg_state(0.0)
        expected = (basis_ket(0b000) + basis_ket(0b110)) / np.sqrt(2)
        assert np.allclose(rho.mat, np.outer(expected, expected.conj()), atol=1e-12)

    def test_full_strength_swaps_into_probe(self):
        rho = sg_state(np.pi / 2)
        expected = (basis_ket(0b000) + basis_ket(0b101)) / np.sqrt(2)
        assert np.allclose(rho.mat, np.outer(expected, expected.conj()), atol=1e-12)

    def test_general_amplitudes(self):
        phi = 0.8
        rho = sg_state(phi)
        expected = (
            basis_ket(0b000) + np.cos(phi) * basis_ket(0b110) + np.sin(phi) * basis_ket(0b101)
        ) / np.sqrt(2)
        assert np.allclose(rho.mat, np.outer(expected, expected.conj()), atol=1e-12)

    def test_pure_for_all_phi(self):
        for phi in np.linspace(0, np.pi / 2, 25):
            m = sg_state(phi).mat
            assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-9)


class TestSwitchAttackState:
    def test_swap_partner_closed_form(self):
        for phi in (0.0, 0.4, 1.1, np.pi / 2):
            c = np.cos(phi)
            n = np.sqrt(1 + c * c)
            expected = (basis_ket(0b000) + c * basis_ket(0b101)) / n
            rho = switch_attack_state(phi, "SWAP")
            assert np.allclose(rho.mat, np.outer(expected, expected.conj()), atol=1e-12)

    def test_swap_partner_at_half_pi_collapses(self):
        rho = switch_attack_state(np.pi / 2, "SWAP")
        assert rho.mat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_xz_partner_eve_marginal(self):
        rho = switch_attack_state(0.0, "XZ")
        rho_e = partial_trace(rho, [2])
        assert np.allclose(rho_e.mat, np.diag([1.0, 0.0]), atol=1e-12)
        for phi in (0.3, 1.0):
            rho_e = partial_trace(switch_attack_state(phi, "XZ"), [2])
            assert rho_e.mat[0, 0].real == pytest.approx((1 + np.cos(phi)) / 2, abs=1e-12)

    def test_parametric_partners_build(self):
        for partner in ("U_SG", "V_DRAFT"):
            rho = switch_attack_state(0.5, partner, phi1=0.9)
            assert rho.dims == (2, 2, 2)

    def test_cnot_partner_builds(self):
        assert switch_attack_state(0.5, "CNOT").dims == (2, 2, 2)

    def test_unknown_partner(self):
        with pytest.raises(ValueError, match="unknown partner"):
            switch_attack_state(0.5, "TOFFOLI")

    @pytest.mark.parametrize("partner", ["XZ", "SWAP", "CNOT"])
    def test_stray_phi1_rejected(self, partner):
        with pytest.raises(ValueError, match="takes no second angle"):
            switch_attack_state(0.3, partner, phi1=7.0)

    def test_annihilating_branch_is_reported(self):
        # at full turn the anticommutator of the attack unitary and XZ vanishes
        # on the whole resource support; that turn lies outside [0, pi/2], where
        # every branch keeps norm 0.5 or more, so the guard is reached directly
        with pytest.raises(ValueError, match="annihilates"):
            scenarios._switch_amplitudes(gate_stack("U_SG", [np.pi]), "XZ", None, [np.pi])
        with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
            switch_attack_state(np.pi, "XZ")


@pytest.mark.parametrize("phi", [np.pi, -1e-3, np.nan])
@pytest.mark.parametrize(
    "build", [sg_state, lambda phi: switch_attack_state(phi, "XZ"), symmetric_cnot_state],
    ids=["sg", "switch-xz", "symmetric-cnot"],
)
def test_every_constructor_rejects_phi_outside_domain(build, phi):
    with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
        build(phi)


class TestSymmetricCnotState:
    def test_zero_strength(self):
        rho = symmetric_cnot_state(0.0)
        assert rho.mat[0, 0] == pytest.approx(1.0)

    def test_full_strength_four_terms(self):
        rho = symmetric_cnot_state(np.pi / 2)
        expected = 0.5 * (
            basis_ket(0b101) + basis_ket(0b011) + basis_ket(0b100) + basis_ket(0b010)
        )
        assert np.allclose(rho.mat, np.outer(expected, expected.conj()), atol=1e-12)

    def test_amplitudes_normalized(self):
        # cos^2 + 4 (sin/2)^2 = 1 keeps the printed amplitudes normalized
        rho = symmetric_cnot_state(0.3)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


class TestReducedPair:
    def test_ae_of_swap_partner_is_pure_entangled_pair(self):
        phi = 0.5
        c = np.cos(phi)
        n = np.sqrt(1 + c * c)
        rho_ae = reduced_pair(switch_attack_state(phi, "SWAP"), "AE")
        target = np.zeros(4, dtype=complex)
        target[0b00] = 1 / n
        target[0b11] = c / n
        assert np.allclose(rho_ae.mat, np.outer(target, target.conj()), atol=1e-12)

    def test_ab_of_unattacked_state_is_bell_pair(self):
        rho_ab = reduced_pair(sg_state(0.0), "AB")
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        assert np.allclose(rho_ab.mat, np.outer(bell, bell.conj()), atol=1e-12)

    def test_be_of_ground_state(self):
        rho = symmetric_cnot_state(0.0)
        rho_be = reduced_pair(rho, "BE")
        assert np.allclose(rho_be.mat, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_invalid_pair_label(self):
        with pytest.raises(ValueError, match="pair"):
            reduced_pair(sg_state(0.1), "XY")


class TestScenarioDispatch:
    @pytest.mark.parametrize(
        "scenario",
        [
            AttackScenario("SG", 0.4),
            AttackScenario("SWITCH", 0.4, partner="SWAP"),
            AttackScenario("SWITCH", 0.4, partner="XZ"),
            AttackScenario("SWITCH", 0.4, partner="CNOT"),
            AttackScenario("SWITCH", 0.4, partner="U_SG", phi1=0.9),
            AttackScenario("DRAFT_SWITCH", 0.4, partner="V_DRAFT", phi1=0.9),
            AttackScenario("SYMMETRIC_CNOT", 0.4),
        ],
    )
    def test_pure_and_density_agree(self, scenario):
        psi = scenario_pure_state(scenario)
        rho = scenario_state(scenario)
        assert np.allclose(
            rho.mat, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12
        )

    def test_bob_marginal_diagonal_for_swap_partner(self):
        # the SWAP-partner attack leaves Bob in |0> regardless of phi, so his
        # marginal never develops Z-basis coherence
        for phi in np.linspace(0, np.pi / 2, 21):
            rho_b = partial_trace(switch_attack_state(phi, "SWAP"), [1])
            assert abs(rho_b.mat[0, 1]) < 1e-12


def lifted_resource_state(op):
    """(I (x) op)|Phi+>|0> through the full 8x8 lift of ``op`` onto (Bob, Eve)."""
    resource = np.zeros(8, dtype=complex)
    resource[0b000] = resource[0b110] = 1 / np.sqrt(2)
    return embed(op, [1, 2], (2, 2, 2)) @ resource


def angle_pairs(rng, n=40):
    ends = [(0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
    return ends + [tuple(rng.uniform(0.0, np.pi / 2, 2)) for _ in range(n)]


class TestStateBuildMatchesLiftedOperator:
    """The state vectors equal the 8x8-lift construction bit for bit."""

    def test_sg(self, rng):
        for phi, _ in angle_pairs(rng):
            got = scenario_pure_state(AttackScenario("SG", phi)).amplitudes
            assert np.array_equal(got, lifted_resource_state(make_gate("U_SG", [phi]).mat))

    @pytest.mark.parametrize("partner", SWITCH_PARTNERS)
    def test_switch(self, partner, rng):
        for phi, phi1 in angle_pairs(rng):
            angles = [phi1] if partner in ("U_SG", "V_DRAFT") else []
            scenario = AttackScenario("SWITCH", phi, partner, *angles)
            lam = lambda_branch(make_gate("U_SG", [phi]), make_gate(partner, angles), +1)
            psi = lifted_resource_state(lam)
            want = psi / np.sqrt(float(np.vdot(psi, psi).real))
            assert np.array_equal(scenario_pure_state(scenario).amplitudes, want)


FAMILIES = (
    [("SG", None, None), ("SYMMETRIC_CNOT", None, None)]
    + [("SWITCH", p, None) for p in ("XZ", "SWAP", "CNOT")]
    + [(kind, p, phi1) for kind in ("SWITCH", "DRAFT_SWITCH") for p in ("U_SG", "V_DRAFT")
       for phi1 in (0.0, 0.9, np.pi / 2)]
)
GRID = np.concatenate([np.linspace(0.0, np.pi / 2, 37), [0.123, 1e-9, np.pi / 2 - 1e-9]])


class TestStateStacks:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_single_point_states_exactly(self, family):
        kind, partner, phi1 = family
        amps = scenario_amplitudes(kind, GRID, partner, phi1)
        for phi, row in zip(GRID, amps):
            scenario = AttackScenario(kind, phi, partner, phi1)
            assert np.array_equal(row, scenario_pure_state(scenario).amplitudes)
            assert np.array_equal(scenario_state(scenario).mat, np.outer(row, row.conj()))

    @pytest.mark.parametrize("name", ["U_SG", "V_DRAFT"])
    def test_gate_stack_equals_make_gate_exactly(self, name):
        stack = gate_stack(name, GRID)
        for angle, mat in zip(GRID, stack):
            assert np.array_equal(mat, make_gate(name, [angle]).mat)

    def test_gate_stack_rejects_fixed_gates(self):
        with pytest.raises(ValueError, match="takes no angle"):
            gate_stack("SWAP", [0.1])

    def test_gate_stack_rejects_non_finite_angles(self):
        with pytest.raises(RowError, match=r"gate V_DRAFT angle must be finite, got nan") as info:
            gate_stack("V_DRAFT", [0.1, np.nan])
        assert info.value.row == 1

    def test_first_out_of_range_phi_is_named(self):
        with pytest.raises(RowError, match=r"got 2\.0$") as info:
            scenario_amplitudes("SG", [0.1, 0.2, 2.0, 3.0])
        assert info.value.row == 2

    def test_shared_failure_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="requires a partner gate") as info:
            scenario_amplitudes("SWITCH", [0.1, 0.2])
        assert not isinstance(info.value, RowError)

    def test_reduced_pairs_failure_names_its_point(self):
        states = np.array([scenario_state(AttackScenario("SG", phi)).mat for phi in (0.2, 0.4, 0.6)])
        # entry <000|rho|101> reaches only the AE reduction (Bob's index agrees)
        states[1, 0b000, 0b101] = np.nan
        with pytest.raises(RowError, match="non-finite entries") as info:
            reduced_pairs(states)
        assert info.value.row == 1

    def test_reduced_pairs_checks_the_states_not_only_their_pairs(self):
        states = np.array([scenario_state(AttackScenario("SG", phi)).mat for phi in (0.2, 0.4)])
        # Hermitian, unit trace, eigenvalues 1/8 +- 1/2; every pair reduction is I/4
        states[1] = np.eye(8) / 8
        states[1, 0b000, 0b111] = states[1, 0b111, 0b000] = 0.5
        with pytest.raises(RowError, match="not PSD") as info:
            reduced_pairs(states)
        assert info.value.row == 1

    @pytest.mark.parametrize("phis", [[[0.1, 0.2], [0.3, 0.4]], np.zeros((3, 1))])
    def test_multi_axis_phis_rejected_with_its_shape(self, phis):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(phis)}")) as info:
            scenario_amplitudes("SG", phis)
        assert not isinstance(info.value, RowError)

    def test_scalar_phi_is_a_one_point_grid(self):
        assert np.array_equal(scenario_amplitudes("SG", 0.3), scenario_amplitudes("SG", [0.3]))

    def test_reduced_pairs_match_reduced_pair(self):
        states = [scenario_state(AttackScenario("SWITCH", phi, "CNOT")) for phi in (0.2, 1.1)]
        pairs = reduced_pairs(np.array([rho.mat for rho in states]))
        for n, rho in enumerate(states):
            for pair in ("AB", "AE", "BE"):
                assert np.array_equal(pairs[pair][n], reduced_pair(rho, pair).mat)


# Built before any test counts checks: the inputs of the point-path calls below.
_SWAP_POINT = AttackScenario("SWITCH", 0.6, "SWAP")
_SWAP_STATE = scenario_state(_SWAP_POINT)
_SWAP_PSI = scenario_pure_state(_SWAP_POINT)


class TestSignedZero:
    """A signed-zero angle reads as +0.0 at every boundary, so a grid row, its one-point
    state and the memoised state agree to the byte."""

    @pytest.mark.parametrize("kind, partner, phi1", [
        ("SG", None, None), ("SYMMETRIC_CNOT", None, None), ("SWITCH", "U_SG", 0.9),
        ("DRAFT_SWITCH", "V_DRAFT", 0.9),
    ])
    def test_phi_grid(self, kind, partner, phi1):
        want = scenario_amplitudes(kind, [0.0, 0.6], partner, phi1)
        assert scenario_amplitudes(kind, [-0.0, 0.6], partner, phi1).tobytes() == want.tobytes()
        assert scenario_amplitudes(kind, -0.0, partner, phi1).tobytes() == want[:1].tobytes()
        phis = evaluate_rows(kind, [-0.0, 0.6], partner, phi1)["phi"]
        assert np.copysign(1.0, phis).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("kind, partner", [
        ("SWITCH", "U_SG"), ("SWITCH", "V_DRAFT"), ("DRAFT_SWITCH", "V_DRAFT"),
    ])
    def test_phi1(self, kind, partner):
        assert np.copysign(1.0, AttackScenario(kind, 0.6, partner, -0.0).phi1) == 1.0
        want = scenario_amplitudes(kind, [0.0, 0.6], partner, 0.0)
        got = scenario_amplitudes(kind, [0.0, 0.6], partner, -0.0)
        assert got.tobytes() == want.tobytes()

    def test_point_state_holds_no_negative_zero(self):
        amps = scenario_pure_state(AttackScenario("SG", -0.0)).amplitudes
        assert amps.tobytes() == scenario_amplitudes("SG", [0.0])[0].tobytes()
        assert np.copysign(1.0, amps.real).tolist() == [1.0] * 8

    def test_state_prints_plus_zero(self, capsys):
        from qswitch_qkd.cli import main

        assert main(["state", "--scenario", "sg", "--phi", "-0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "scenario sg phi=0.000000"
        argv = ["state", "--scenario", "switch", "--partner", "vdraft", "--phi", "0.3",
                "--phi1", "-0"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "scenario switch/v_draft phi=0.300000 phi1=0.000000"


class TestPointPathChecksOnce:
    """The point path checks the amplitudes it builds once and wraps what it
    derives from them; what a caller passes in is still checked."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: sg_state(0.6), id="sg_state"),
        pytest.param(lambda: switch_attack_state(0.6, "V_DRAFT", 0.9), id="switch_attack_state"),
        pytest.param(lambda: symmetric_cnot_state(0.6), id="symmetric_cnot_state"),
        pytest.param(lambda: scenario_state(AttackScenario("DRAFT_SWITCH", 0.6, "U_SG", 0.9)),
                     id="scenario_state"),
        pytest.param(lambda: scenario_pure_state(_SWAP_POINT), id="scenario_pure_state"),
        pytest.param(lambda: [reduced_pair(_SWAP_STATE, p) for p in ("AB", "AE", "BE")],
                     id="reduced_pair"),
        pytest.param(lambda: partial_trace(_SWAP_STATE, [1]), id="partial_trace"),
    ])
    def test_derived_states_are_not_checked_again(self, check_calls, build):
        build()
        assert check_calls["check_density_stack"] == 0
        assert check_calls["check_pure_stack"] <= 1

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: DensityMatrix(_SWAP_STATE.mat, _SWAP_STATE.dims), id="DensityMatrix"),
    ])
    def test_caller_matrices_are_checked(self, check_calls, build):
        build()
        assert check_calls == {"check_density_stack": 1, "check_pure_stack": 0}

    def test_caller_amplitudes_are_checked(self, check_calls):
        PureState(_SWAP_PSI.amplitudes, (2, 2, 2))
        assert check_calls == {"check_density_stack": 0, "check_pure_stack": 1}

    @pytest.mark.parametrize("mat, message", [
        # Hermitian, unit trace, eigenvalues 1/8 +- 1/2: its pair reductions are all I/4
        pytest.param(np.eye(8) / 8 + 0.5 * (np.eye(8)[:, [7]] @ np.eye(8)[[0]]
                                            + np.eye(8)[:, [0]] @ np.eye(8)[[7]]),
                     "not PSD", id="non-PSD"),
        pytest.param(_SWAP_STATE.mat + 1e-3 * np.eye(8, k=1), "not Hermitian", id="non-Hermitian"),
    ])
    def test_caller_state_is_still_rejected(self, mat, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(mat, (2, 2, 2))
