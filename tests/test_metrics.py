import math
import re

import numpy as np
import pytest
from conftest import (GRID_101, amp_joint_probs, column_rows, entropy_bits, random_density_mat,
                      shannon_entropy)

from qswitch_qkd.linalg import RowError
from qswitch_qkd.metrics import (
    _PAULI_PAIRS,
    MEASUREMENT_SETTINGS,
    _gain_rows,
    _joint_mi_rows,
    _matched_mi_rows,
    BellReport,
    MetricsRow,
    evaluate_row,
    evaluate_rows,
    fidelity_disturbance_shrink,
    horodecki_bell_max,
    information_gain,
    matched_error_rate,
    mutual_information,
    qber,
    security_condition,
    transit_channel,
)
from qswitch_qkd import oracle, selfcheck
from qswitch_qkd.oracle import chsh_bruteforce
from qswitch_qkd.qstate import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    check_density_stack,
    expectations,
    make_gate,
    measure_probs_stack,
    pure_to_density,
)
from qswitch_qkd.scenarios import (
    AttackScenario,
    reduced_pair,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from qswitch_qkd.switch import lambda_branch

I2 = np.eye(2, dtype=complex)


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = 1 / np.sqrt(2)
    return pure_to_density(v, (2, 2))


# Every kind x partner combination; the first three keep their original ids.
ALL_SCENARIOS = [
    AttackScenario("SG", 0.7),
    AttackScenario("SWITCH", 0.7, partner="SWAP"),
    AttackScenario("SYMMETRIC_CNOT", 0.7),
    AttackScenario("SWITCH", 0.7, partner="XZ"),
    AttackScenario("SWITCH", 0.7, partner="CNOT"),
    AttackScenario("SWITCH", 0.7, partner="U_SG", phi1=0.9),
    AttackScenario("SWITCH", 0.7, partner="V_DRAFT", phi1=0.9),
    AttackScenario("DRAFT_SWITCH", 0.7, partner="U_SG", phi1=0.4),
    AttackScenario("DRAFT_SWITCH", 0.7, partner="V_DRAFT", phi1=0.4),
]


def explicit_bob_output(scenario, rho_in):
    """Bob's output built from the attack operator itself, not from the state.

    U_SG or the switch branch acts on rho (x) |0><0| and Eve is traced out;
    the symmetric attack is its probe coupling: |0> goes to
    cos(phi)|00> + (sin(phi)/2)(|11> + |10>), |1> to (sin(phi)/2)(|01> + |00>).
    """
    if scenario.kind == "SYMMETRIC_CNOT":
        c, s = np.cos(scenario.phi), np.sin(scenario.phi)
        w = np.zeros((4, 2), dtype=complex)
        w[0b00, 0], w[0b11, 0], w[0b10, 0] = c, s / 2, s / 2
        w[0b01, 1], w[0b00, 1] = s / 2, s / 2
        joint = w @ rho_in @ w.conj().T
    else:
        op = make_gate("U_SG", [scenario.phi]).mat
        if scenario.partner is not None:
            angles = [] if scenario.phi1 is None else [scenario.phi1]
            op = lambda_branch(op, make_gate(scenario.partner, angles), +1)
        joint = op @ np.kron(rho_in, np.diag([1.0, 0.0])) @ op.conj().T
    joint = joint / np.trace(joint).real
    return np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)


class TestLawTable:
    """The closed forms of ``selfcheck.LAWS``, the table the law suites of ``verify`` score."""

    @pytest.mark.parametrize("law", selfcheck.LAWS, ids=lambda law: law.name)
    def test_law_holds_at_its_tolerance(self, law):
        assert law.deviation() <= law.tol

    def test_law_names_are_unique(self):
        names = [law.name for law in selfcheck.LAWS]
        assert len(set(names)) == len(names)

    def test_each_law_suite_runs_in_verify_and_owns_a_law(self):
        in_verify = {s.__name__.removeprefix("check_").replace("_", "-")
                     for s in selfcheck.ALL_SUITES}
        owners = {law.suite for law in selfcheck.LAWS}
        assert owners == {"scenario-states", "gain-closed-forms", "qber-closed-form",
                          "bell-horodecki", "mutual-information"}
        assert owners <= in_verify


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)

    def test_two_bits(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)


class TestInformationGain:
    @pytest.mark.parametrize("phi,expected", [(0.0, 0.25), (np.pi / 6, 0.1875), (np.pi / 3, 0.0625)])
    def test_plain_attack_values(self, phi, expected):
        g = information_gain(reduced_pair(sg_state(phi), "AE"))
        assert g == pytest.approx(expected, abs=1e-12)

    def test_xz_partner_closed_form(self):
        for phi in (0.2, 0.9, 1.4):
            g = information_gain(reduced_pair(switch_attack_state(phi, "XZ"), "AE"))
            assert g == pytest.approx(0.25 * np.cos(phi), abs=1e-12)

    def test_swap_partner_closed_form(self):
        for phi in (0.1, np.pi / 4, 1.3):
            g = information_gain(reduced_pair(switch_attack_state(phi, "SWAP"), "AE"))
            assert g == pytest.approx(abs(1 / (np.cos(2 * phi) + 3) - 0.25), abs=1e-12)

    def test_wrong_dims(self):
        with pytest.raises(ValueError, match="two-qubit"):
            information_gain(sg_state(0.1))


class TestMutualInformation:
    def test_bell_pair_is_one_bit(self):
        assert mutual_information(bell_pair()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert mutual_information(pure_to_density(v, (2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_unattacked_alice_bob(self):
        assert mutual_information(reduced_pair(sg_state(0.0), "AB")) == pytest.approx(1.0, abs=1e-9)

    def test_against_amplitude_oracle(self, rng):
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = pure_to_density(v, (2, 2))
            vals = []
            for theta in (0.0, np.pi / 2):
                joint = amp_joint_probs(v, [theta, theta])
                pa = [joint[(+1, +1)] + joint[(+1, -1)], joint[(-1, +1)] + joint[(-1, -1)]]
                pb = [joint[(+1, +1)] + joint[(-1, +1)], joint[(+1, -1)] + joint[(-1, -1)]]
                vals.append(entropy_bits(pa) + entropy_bits(pb) - entropy_bits(joint.values()))
            assert mutual_information(rho) == pytest.approx(sum(vals) / 2, abs=1e-10)

    def test_never_negative(self, rng):
        for _ in range(30):
            rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
            assert mutual_information(rho) >= 0.0


class TestSecurityCondition:
    def test_secure(self):
        assert security_condition(1.0, 0.3, 0.5) is True

    def test_insecure(self):
        assert security_condition(0.2, 0.3, 0.5) is False

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            security_condition(float("nan"), 0.1, 0.1)

    # Security ties on the 99 interior points of the default grid: rows whose
    # I(A:B) equals min(I(A:E), I(B:E)) bit for bit, rows within 1e-12, and
    # rows the strict ``>`` marks secure.  With the SWAP and CNOT partners
    # I(A:B) equals I(B:E) up to round-off; the 8 secure CNOT rows are those
    # where I(A:B) comes out one ulp higher, so a change of summation order
    # moves these counts.
    @pytest.mark.parametrize("kind, partner, phi1, bit_equal, within, secure", [
        pytest.param("SWITCH", "SWAP", None, 99, 99, 0, id="switch/swap"),
        pytest.param("SWITCH", "CNOT", None, 87, 99, 8, id="switch/cnot"),
        pytest.param("SG", None, None, 0, 0, 99, id="sg"),
        pytest.param("SYMMETRIC_CNOT", None, None, 0, 0, 52, id="symmetric-cnot"),
        pytest.param("SWITCH", "XZ", None, 0, 0, 99, id="switch/xz"),
        pytest.param("SWITCH", "U_SG", 0.9, 0, 0, 99, id="switch/usg-0.9"),
        pytest.param("SWITCH", "V_DRAFT", 0.9, 0, 0, 99, id="switch/vdraft-0.9"),
    ])
    def test_ties_by_family(self, kind, partner, phi1, bit_equal, within, secure):
        columns = evaluate_rows(kind, GRID_101, partner, phi1)
        columns = {name: column[1:-1] for name, column in columns.items()}  # the interior
        i_ab = columns["i_ab"]
        min_eve = np.minimum(columns["i_ae"], columns["i_be"])
        assert np.count_nonzero(i_ab == min_eve) == bit_equal
        assert np.count_nonzero(np.abs(i_ab - min_eve) <= 1e-12) == within
        assert np.count_nonzero(columns["secure"]) == secure
        assert (columns["secure"] == (i_ab > min_eve)).all()


class TestQber:
    def test_bell_pair_error_free(self):
        assert qber(bell_pair()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi,expected", [(np.pi / 6, 0.125), (np.pi / 4, 0.25)])
    def test_plain_attack_key_basis_error(self, phi, expected):
        assert qber(reduced_pair(sg_state(phi), "AB")) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert qber(rho) == pytest.approx(0.5)

    def test_conjugate_basis_error_differs(self):
        # the attack disturbs the two matched bases unequally: the key-basis
        # error is sin^2(phi)/2 but the conjugate-basis error is sin^2(phi/2)
        for phi in (0.4, 0.9, 1.3):
            rho_ab = reduced_pair(sg_state(phi), "AB")
            assert matched_error_rate(rho_ab, 0.0) == pytest.approx(np.sin(phi) ** 2 / 2, abs=1e-12)
            assert matched_error_rate(rho_ab, np.pi / 2) == pytest.approx(
                np.sin(phi / 2) ** 2, abs=1e-12
            )


    def test_round_off_above_one_is_clamped(self):
        # all weight on the two disagreeing outcomes, with a trace 2e-13 above 1
        rho = DensityMatrix(np.diag([0.0, 0.5 + 1e-13, 0.5 + 1e-13, 0.0]), (2, 2))
        assert qber(rho) == 1.0

    def test_excess_beyond_noise_floor_is_rejected(self):
        rho = DensityMatrix(np.diag([0.0, 0.5 + 2.5e-10, 0.5 + 2.5e-10, 0.0]), (2, 2))
        with pytest.raises(ValueError, match="matched error rate .* noise floor"):
            qber(rho)

    @pytest.mark.parametrize(
        "scenario",
        [
            AttackScenario("SWITCH", 0.0, partner="XZ"),
            AttackScenario("SWITCH", 0.3, partner="V_DRAFT", phi1=np.pi / 2),
            AttackScenario("DRAFT_SWITCH", 0.3, partner="V_DRAFT", phi1=np.pi / 2),
        ],
    )
    def test_full_disagreement_rows_complete(self, scenario):
        # these points used to fail with qber = 1.0000000000000002
        row = evaluate_row(scenario)
        assert 0.0 <= row.qber <= 1.0


def kron_reference_t_matrix(rho):
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = float(np.trace(rho.mat @ np.kron(si, sj)).real)
    return t


class TestHorodeckiBellMax:
    def test_t_matrix_matches_kron_reference_exactly(self, rng):
        states = [DensityMatrix(random_density_mat(rng, 4), (2, 2)) for _ in range(200)]
        states += [
            reduced_pair(switch_attack_state(phi, "SWAP"), pair)
            for phi in np.linspace(0, np.pi / 2, 11)
            for pair in ("AB", "AE", "BE")
        ]
        for rho in states:
            assert np.array_equal(horodecki_bell_max(rho).t_matrix, kron_reference_t_matrix(rho))

    def test_pauli_pair_stack_is_read_only(self):
        assert _PAULI_PAIRS.shape == (9, 4, 4)
        with pytest.raises(ValueError):
            _PAULI_PAIRS[0, 0, 0] = 9.0


    def test_bell_pair_reaches_tsirelson(self):
        report = horodecki_bell_max(bell_pair())
        assert report.chsh_max == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert np.allclose(report.t_matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert report.violates_local_realism

    def test_product_state_within_local_bound(self, rng):
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2))
        report = horodecki_bell_max(pure_to_density(v, (2, 2)))
        assert report.chsh_max <= 2.0 + 1e-9
        assert not report.violates_local_realism

    def test_m_value_consistency(self):
        report = horodecki_bell_max(reduced_pair(sg_state(0.8), "AE"))
        assert report.chsh_max == pytest.approx(2 * np.sqrt(report.m_value), abs=1e-12)

    def test_report_validates_relation(self):
        with pytest.raises(ValueError, match="2\\*sqrt"):
            BellReport(np.eye(3), 1.0, 3.0)

    def test_report_rejects_nan(self):
        with pytest.raises(ValueError, match=r"2\*sqrt\(m_value\), got nan and nan"):
            BellReport(np.eye(3), math.nan, math.nan)

    def test_agrees_with_angle_scan_oracle(self):
        for phi in (0.0, 0.5, 1.0, np.pi / 2):
            rho_ae = reduced_pair(switch_attack_state(phi, "SWAP"), "AE")
            assert horodecki_bell_max(rho_ae).chsh_max == pytest.approx(
                chsh_bruteforce(rho_ae), abs=1e-4
            )

    def test_oracle_rejects_y_coupled_correlations(self):
        t = np.zeros((3, 3))
        t[0, 1] = 0.5
        with pytest.raises(ValueError, match="y axis"):
            chsh_bruteforce(t)


def norm_form_chsh_scan(t, coarse=721, refine_rounds=6):
    """The oracle's plane scan with each |u1 +- u2| a direct norm over (3, n1, n2)
    arrays, the form the Gram-form scan replaced."""

    def plane_value(axes, a1, a2):
        i, j = axes
        u1 = np.outer(t.T[:, i], np.cos(a1)) + np.outer(t.T[:, j], np.sin(a1))
        u2 = np.outer(t.T[:, i], np.cos(a2)) + np.outer(t.T[:, j], np.sin(a2))
        plus = np.linalg.norm(u1[:, :, None] + u2[:, None, :], axis=0)
        minus = np.linalg.norm(u1[:, :, None] - u2[:, None, :], axis=0)
        return plus + minus

    best = 0.0
    for axes in ((0, 2), (0, 1), (1, 2)):
        angles = np.linspace(0.0, 2 * np.pi, coarse)
        vals = plane_value(axes, angles, angles)
        k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
        c1, c2 = angles[k1], angles[k2]
        width = angles[1] - angles[0]
        for _ in range(refine_rounds):
            a1 = np.linspace(c1 - width, c1 + width, 41)
            a2 = np.linspace(c2 - width, c2 + width, 41)
            vals = plane_value(axes, a1, a2)
            k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
            c1, c2 = a1[k1], a2[k2]
            width /= 8.0
        best = max(best, float(vals[k1, k2]))
    return best


def full_square_chsh_scan(t, coarse=721, refine_rounds=6):
    """The oracle's scan with its coarse step over the whole angles x angles
    square of its own [0, pi] grid, the form the half-square scan replaced."""
    best = 0.0
    angles = np.linspace(0.0, 2 * np.pi, coarse)[: (coarse + 1) // 2]
    for axes in ((0, 2), (0, 1), (1, 2)):
        vals = oracle._plane_value(t, axes, angles, angles)
        k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
        c1, c2 = angles[k1], angles[k2]
        width = angles[1] - angles[0]
        for _ in range(refine_rounds):
            a1 = np.linspace(c1 - width, c1 + width, 41)
            a2 = np.linspace(c2 - width, c2 + width, 41)
            vals = oracle._plane_value(t, axes, a1, a2)
            k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
            c1, c2 = a1[k1], a2[k2]
            width /= 8.0
        best = max(best, float(vals[k1, k2]))
    return best


def horodecki_value(t):
    """2 sqrt(sum of the two largest eigenvalues of T^T T), for any 3x3 T."""
    eigs = np.linalg.eigvalsh(t.T @ t)
    return 2 * math.sqrt(eigs[-1] + eigs[-2])


# correlation matrices of verify's 7 SWAP-partner points, phi = 0 .. pi/2
SWAP_POINT_TS = [
    np.asarray(horodecki_bell_max(reduced_pair(switch_attack_state(phi, "SWAP"), "AE")).t_matrix)
    for phi in np.linspace(0.0, np.pi / 2, 7)
]


def random_y_decoupled_t(rng):
    t = np.zeros((3, 3))
    t[0, 0], t[0, 2], t[2, 0], t[2, 2], t[1, 1] = rng.uniform(-1.0, 1.0, 5)
    return t


class TestChshBruteforce:
    @pytest.mark.parametrize(
        "t", [np.eye(3), -np.eye(3), np.diag([0.3, -0.7, 0.9])], ids=["identity", "singlet", "diag"]
    )
    def test_round_off_below_zero_is_clamped(self, t):
        # the coarse scan meets pairs u1 = -+u2, whose Gram-form |u1 +- u2|^2
        # can come out a few ulps below zero for these T
        value = chsh_bruteforce(t)
        assert math.isfinite(value)
        assert abs(value - horodecki_value(t)) <= 1e-9

    def test_singlet_state_matches_horodecki(self):
        singlet = np.zeros(4, dtype=complex)
        singlet[0b01], singlet[0b10] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        rho = pure_to_density(singlet, (2, 2))
        assert abs(chsh_bruteforce(rho) - horodecki_bell_max(rho).chsh_max) <= 1e-9

    def test_matches_norm_form_scan(self):
        # 50 matrices on a 121-point coarse grid and 3 on the default 721-point
        # one: the norm-form reference is too slow to run 50 times at 721
        rng = np.random.default_rng(2024)
        for n in range(53):
            t = random_y_decoupled_t(rng)
            coarse = 721 if n >= 50 else 121
            assert abs(chsh_bruteforce(t, coarse) - norm_form_chsh_scan(t, coarse)) <= 1e-12

    @pytest.mark.parametrize(
        "t",
        [np.eye(3), np.diag([0.3, -0.7, 0.9])] + SWAP_POINT_TS,
        ids=["identity", "diag"] + [f"swap-{k}" for k in range(7)],
    )
    def test_half_turn_scan_matches_full_turn_scan(self, t):
        # verify's 7 SWAP points and the clamp cases: the [0, pi] scan finds
        # the value of the reference's [0, 2 pi] scan on the default grid
        assert abs(chsh_bruteforce(t) - norm_form_chsh_scan(t)) <= 1e-12

    @pytest.mark.parametrize("coarse", [720, 2, 1])
    def test_even_or_tiny_coarse_grid_rejected(self, coarse):
        with pytest.raises(ValueError, match=f"coarse must be an odd .*got {coarse}"):
            chsh_bruteforce(np.eye(3), coarse)

    def test_half_square_scan_equals_full_square_scan(self):
        # the coarse scan reads only the upper triangle of each plane; the
        # result must be the full-square scan's bit for bit
        rng = np.random.default_rng(7)
        ts = [np.eye(3), np.diag([0.3, -0.7, 0.9])] + SWAP_POINT_TS
        ts += [random_y_decoupled_t(rng) for _ in range(20)]
        for t in ts:
            assert chsh_bruteforce(t, 121) == full_square_chsh_scan(t, 121)
        for t in ts[:3]:
            assert chsh_bruteforce(t) == full_square_chsh_scan(t)


class TestFidelityDisturbanceShrink:
    def test_identity_attack(self):
        r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        f, d, alpha = fidelity_disturbance_shrink(AttackScenario("SG", 0.0), r)
        assert f == pytest.approx(1.0, abs=1e-12)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(alpha, [1.0, 1.0, 1.0], atol=1e-9)

    def test_fully_depolarizing_channel(self):
        def depolarize(rho_in):
            return np.eye(2, dtype=complex) / 2

        r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        f, d, alpha = fidelity_disturbance_shrink(depolarize, r)
        assert f == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(alpha, [0.0, 0.0, 0.0], atol=1e-12)

    def test_fidelity_disturbance_sum_to_one(self):
        r = np.array([0.0, 0.6, 0.8])
        f, d, _ = fidelity_disturbance_shrink(AttackScenario("SYMMETRIC_CNOT", 0.4), r)
        assert f + d == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= f <= 1.0

    def test_zero_axis_gives_nan(self):
        f, d, alpha = fidelity_disturbance_shrink(AttackScenario("SG", 0.3), (1.0, 0.0, 0.0))
        assert math.isnan(alpha[1])
        assert math.isnan(alpha[2])
        assert not math.isnan(alpha[0])

    def test_channel_built_once_per_scenario(self, monkeypatch):
        import qswitch_qkd.metrics as metrics

        scenario = AttackScenario("SWITCH", 0.7, "V_DRAFT", 0.4)
        axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        uncached = transit_channel.__wrapped__(scenario)
        expected = [fidelity_disturbance_shrink(uncached, axis) for axis in axes]
        real = metrics.scenario_pure_state
        builds = []

        def counting(s):
            builds.append(s)
            return real(s)

        monkeypatch.setattr(metrics, "scenario_pure_state", counting)
        transit_channel.cache_clear()
        got = [fidelity_disturbance_shrink(scenario, axis) for axis in axes]
        assert builds == [scenario]
        for (f, d, shrink), (f_want, d_want, shrink_want) in zip(got, expected):
            assert (f, d) == (f_want, d_want)
            np.testing.assert_array_equal(shrink, shrink_want)  # exact, NaN where NaN

    def test_channel_cache_stays_bounded(self):
        assert transit_channel.cache_info().maxsize == 128

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="nonzero"):
            fidelity_disturbance_shrink(AttackScenario("SG", 0.3), (0.0, 0.0, 0.0))

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit length"):
            fidelity_disturbance_shrink(AttackScenario("SG", 0.3), (0.5, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_rejects_non_finite_vector(self, bad, axis):
        # NaN passes both norm tests (its comparisons are False) and inf fails
        # them only by accident; either is named before any arithmetic
        r = [0.0, 0.0, 0.0]
        r[axis] = bad
        with pytest.raises(ValueError, match=re.escape(f"must be finite, got {tuple(r)!r}")):
            fidelity_disturbance_shrink(AttackScenario("SG", 0.3), r)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_pauli_stack_gives_the_per_pauli_floats(self, scenario, rng):
        # rho_in and r_out come from one contraction over a Pauli stack; the
        # floats are those of a sum and a trace per Pauli
        paulis = (PAULI_X, PAULI_Y, PAULI_Z)
        channel = transit_channel(scenario)
        inputs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)]
        inputs += [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(4, 3))]
        for r in inputs:
            r_in = np.array(r)
            rho_in = 0.5 * (I2 + sum(r_in[i] * paulis[i] for i in range(3)))
            rho_out = channel(rho_in)
            fidelity = float(np.trace(rho_in @ rho_out).real)
            r_out = [float(np.trace(rho_out @ p).real) for p in paulis]
            alpha = [r_out[i] / r_in[i] if abs(r_in[i]) > 1e-12 else math.nan for i in range(3)]
            f, d, shrink = fidelity_disturbance_shrink(scenario, r)
            assert (f, d) == (fidelity, 1.0 - fidelity)
            np.testing.assert_array_equal(shrink, alpha)  # exact, NaN where NaN

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_channel_consistent_with_tripartite_state(self, scenario):
        # feeding the maximally mixed input through Bob's channel must
        # reproduce Bob's marginal of the tripartite attack state
        from qswitch_qkd.qstate import partial_trace
        from qswitch_qkd.scenarios import scenario_state

        channel = transit_channel(scenario)
        rho_b = partial_trace(scenario_state(scenario), [1])
        assert np.allclose(channel(I2 / 2), rho_b.mat, atol=1e-10)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_channel_matches_explicit_operator_form(self, scenario):
        channel = transit_channel(scenario)
        for axis in range(3):
            for sign in (+1.0, -1.0):
                rho_in = 0.5 * (I2 + sign * (PAULI_X, PAULI_Y, PAULI_Z)[axis])
                want = explicit_bob_output(scenario, rho_in)
                assert np.max(np.abs(channel(rho_in) - want)) <= 1e-12


def _per_setting_mi(pairs):
    """MI per setting and the Z joint, one measure_probs_stack call per setting."""
    joints = [measure_probs_stack(pairs, (2, 2), (t, t))[1] for t in MEASUREMENT_SETTINGS]
    return np.stack([_joint_mi_rows(j) for j in joints], axis=1), joints[0]


def _per_setting_gain(pairs):
    p1, p2 = (measure_probs_stack(pairs, (2, 2), (None, t))[1] for t in MEASUREMENT_SETTINGS)
    return 0.25 * (np.abs(p1[:, 0] - p2[:, 0]) + np.abs(p1[:, 1] - p2[:, 1]))


class TestMergedMeasurementPass:
    """MI and gain score both settings in one ``expectations`` call."""

    @pytest.mark.parametrize("n", [1, 3, 101, 303])
    def test_equals_the_per_setting_route_byte_for_byte(self, n, rng):
        pairs = np.array([random_density_mat(rng, 4) for _ in range(n)])
        check_density_stack(pairs)
        per_setting, z_joint = _matched_mi_rows(pairs)
        want_per_setting, want_z_joint = _per_setting_mi(pairs)
        assert per_setting.tobytes() == want_per_setting.tobytes()
        assert z_joint.tobytes() == want_z_joint.tobytes()
        assert _gain_rows(pairs).tobytes() == _per_setting_gain(pairs).tobytes()

    @staticmethod
    def _inject(monkeypatch, edits):
        """Patch the metrics' ``expectations`` to apply ``{(row, column): value}``."""
        import qswitch_qkd.metrics as metrics

        def edited(mats, ops):
            probs = expectations(mats, ops).copy()
            for (row, column), value in edits.items():
                probs[row, column] = value
            return probs

        monkeypatch.setattr(metrics, "expectations", edited)

    @pytest.mark.parametrize("score, column", [(_matched_mi_rows, 4 + 2), (_gain_rows, 2 + 1)])
    def test_negative_x_probability_names_its_row(self, monkeypatch, rng, score, column):
        # the X block (columns past the Z block) raises the X setting's own
        # message, for its row
        pairs = np.array([random_density_mat(rng, 4) for _ in range(5)])
        self._inject(monkeypatch, {(3, column): -0.25})
        with pytest.raises(RowError) as info:
            score(pairs)
        assert (info.value.row, str(info.value)) == (3, "outcome probability -0.25 below noise floor")

    def test_z_setting_is_checked_first(self, monkeypatch, rng):
        # row 0 fails in X and row 2 in Z: the Z checks run first, as they
        # did when each setting was measured on its own
        pairs = np.array([random_density_mat(rng, 4) for _ in range(4)])
        self._inject(monkeypatch, {(0, 5): -0.25, (2, 1): 0.75})
        with pytest.raises(RowError, match=r"^outcome probabilities sum to 1\.\d+, expected 1$") as info:
            _matched_mi_rows(pairs)
        assert info.value.row == 2


class TestMetricsRow:
    def test_evaluate_row_consistency(self):
        scenario = AttackScenario("SG", 0.6)
        row = evaluate_row(scenario)
        rho = sg_state(0.6)
        assert row.i_ab == pytest.approx(mutual_information(reduced_pair(rho, "AB")))
        assert row.gain == pytest.approx(information_gain(reduced_pair(rho, "AE")))
        assert row.qber == pytest.approx(qber(reduced_pair(rho, "AB")))
        assert row.secure == security_condition(row.i_ab, row.i_ae, row.i_be)
        assert row.min_eve == pytest.approx(min(row.i_ae, row.i_be))

    def test_row_validates_ranges(self):
        with pytest.raises(ValueError, match="i_ab"):
            MetricsRow(0.1, 3.0, 0.1, 0.1, 0.1, 1.0, 1.0, 1.0, 0.1, True)
        with pytest.raises(ValueError, match="qber"):
            MetricsRow(0.1, 0.5, 0.1, 0.1, 0.1, 1.0, 1.0, 1.0, 1.5, True)

    @pytest.mark.parametrize("gain", [-5.0, -1e-300, 0.5000001, np.nan, np.inf])
    def test_row_bounds_gain(self, gain):
        with pytest.raises(ValueError, match=r"^gain = .* outside \[0, 0\.5\]$"):
            MetricsRow(0.1, 0.5, 0.1, 0.1, gain, 1.0, 1.0, 1.0, 0.1, True)
        for edge in (0.0, 0.5):
            assert MetricsRow(0.1, 0.5, 0.1, 0.1, edge, 1.0, 1.0, 1.0, 0.1, True).gain == edge

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_row_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="^phi must be finite"):
            MetricsRow(phi, 0.5, 0.1, 0.1, 0.1, 1.0, 1.0, 1.0, 0.1, True)


class TestScenarioOrderings:
    def test_symmetric_attack_eve_matches_alice_and_bob_pairing(self):
        # the symmetric state is invariant under swapping Alice and Bob, so
        # both of Eve's pairings carry identical mutual information
        for phi in (0.2, 0.7, 1.2):
            rho = symmetric_cnot_state(phi)
            i_ae = mutual_information(reduced_pair(rho, "AE"))
            i_be = mutual_information(reduced_pair(rho, "BE"))
            assert i_ae == pytest.approx(i_be, abs=1e-10)

    def test_symmetric_attack_eve_dominates_at_low_strength(self):
        # Eve's pairing dominates I(A:B) up to phi ~ 0.754 (QBER ~ 0.47)
        # and falls below it beyond; both regimes are pinned here
        for phi in np.linspace(0.0, 0.75, 16):
            rho = symmetric_cnot_state(phi)
            assert mutual_information(reduced_pair(rho, "BE")) >= mutual_information(
                reduced_pair(rho, "AB")
            ) - 1e-9
        for phi in np.linspace(0.77, np.pi / 2, 16):
            rho = symmetric_cnot_state(phi)
            assert mutual_information(reduced_pair(rho, "BE")) < mutual_information(
                reduced_pair(rho, "AB")
            )

    def test_swap_partner_never_secure(self):
        for phi in np.linspace(0.01, np.pi / 2 - 0.01, 20):
            row = evaluate_row(AttackScenario("SWITCH", phi, partner="SWAP"))
            assert row.secure is False


class TestEvaluateRows:
    def test_empty_grid_gives_no_rows(self):
        assert column_rows(evaluate_rows("SG", [])) == []

    def test_first_failing_row_wins_over_an_earlier_stage(self, monkeypatch):
        # row 2 fails the first check (phi range); row 1 fails a later one
        # (injected into the gain stage): row 1 is the first failing point.
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        real = metrics._gain_rows

        def failing(pairs_ae):
            if len(pairs_ae) > 1:
                raise RowError(1, "injected gain failure")
            return real(pairs_ae)

        monkeypatch.setattr(metrics, "_gain_rows", failing)
        with pytest.raises(RowError, match="injected gain failure") as info:
            evaluate_rows("SG", [0.2, 0.4, 9.0])
        assert info.value.row == 1
        with pytest.raises(RowError, match="phi must lie in") as info:
            evaluate_rows("SG", [0.2, 9.0, 0.4])
        assert info.value.row == 1

    def test_engine_checks_its_input_once(self, check_calls):
        # the amplitudes are checked at the boundary; the density matrices and
        # pairs derived from them are valid by construction (pinned in
        # tests/test_properties.py) and are not checked again
        evaluate_rows("SWITCH", np.linspace(0.0, np.pi / 2, 11), "SWAP")
        assert check_calls == {"check_density_stack": 0, "check_pure_stack": 1}

    @pytest.mark.parametrize("phis", [[[0.1, 0.2], [0.3, 0.4]], [[0.5]]])
    def test_multi_axis_phis_rejected_with_its_shape(self, phis):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(phis)}")):
            evaluate_rows("SG", phis)

    def test_scalar_phi_gives_one_row(self):
        rows = column_rows(evaluate_rows("SG", 0.3))
        assert len(rows) == 1
        assert rows == column_rows(evaluate_rows("SG", [0.3]))

    def test_pair_stack_failure_reported_as_its_point(self, monkeypatch):
        # the pairs are scored as one pair-major (3N, 4, 4) stack: its row
        # 3N - 1 is the BE pair of the last point
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        real = metrics._bell_rows

        def failing(pairs):
            if len(pairs) == 9:
                raise RowError(8, "injected Bell failure")
            return real(pairs)

        monkeypatch.setattr(metrics, "_bell_rows", failing)
        with pytest.raises(RowError, match="injected Bell failure") as info:
            evaluate_rows("SG", [0.1, 0.2, 0.3])
        assert info.value.row == 2

    def test_metrics_row_bounds_name_their_row(self, monkeypatch):
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        real = metrics._error_rate_rows
        monkeypatch.setattr(metrics, "_error_rate_rows", 
                            lambda j, t: real(j, t) + 2.0 * (np.arange(len(j)) == 2))
        with pytest.raises(RowError, match=r"qber = 2\.\d+ outside \[0, 1\]") as info:
            evaluate_rows("SG", [0.1, 0.2, 0.3])
        assert info.value.row == 2

    @pytest.mark.parametrize("bad", [-5.0, 0.75, np.nan])
    def test_gain_bound_names_its_row(self, monkeypatch, bad):
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        real = metrics._gain_rows

        def gain(pairs_ae):
            out = real(pairs_ae)
            if len(out) == 4:  # on the 4-point grid only: a shorter one is the narrowing re-run
                out = out.copy()
                out[2] = bad
            return out

        monkeypatch.setattr(metrics, "_gain_rows", gain)
        with pytest.raises(RowError, match=r"^gain = .* outside \[0, 0\.5\]$") as info:
            evaluate_rows("SG", [0.1, 0.2, 0.3, 0.4])
        assert info.value.row == 2

    def test_row_bounds_report_the_earlier_row_and_its_first_failing_field(self, monkeypatch):
        # the bounds are checked by column, but the earliest row is reported:
        # row 3 fails i_ab, an earlier column than row 1's bell_ae and qber,
        # and row 1 is named with bell_ae, its first field in check order
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        real_mi, real_bell, real_qber = (
            metrics._average_settings, metrics._bell_rows, metrics._error_rate_rows)

        def put(values, row, value, n):
            # on the 4-point grid only: a shorter one is the narrowing re-run
            if len(values) == n:
                values = values.copy()
                values[row] = value
            return values

        def bell(pairs):  # pair-major: entry 4 + 1 is the AE pair of point 1
            t, m, chsh = real_bell(pairs)
            return t, m, put(chsh, 5, 3.0, 12)

        monkeypatch.setattr(metrics, "_average_settings",
                            lambda per_setting: put(real_mi(per_setting), 3, 2.5, 12))
        monkeypatch.setattr(metrics, "_bell_rows", bell)
        monkeypatch.setattr(metrics, "_error_rate_rows",
                            lambda joint, theta: put(real_qber(joint, theta), 1, 1.5, 4))
        with pytest.raises(RowError) as info:
            evaluate_rows("SG", [0.1, 0.2, 0.3, 0.4])
        assert (info.value.row, str(info.value)) == (1, "bell_ae = 3.0 outside [0, 2*sqrt(2)]")

    def test_row_index_past_the_grid_is_raised_at_once(self, monkeypatch):
        # a stage reporting a row >= N has no prefix to narrow to; re-running
        # phis[:row] would score the whole grid again and recurse without end
        import qswitch_qkd.metrics as metrics
        from qswitch_qkd.linalg import RowError

        calls = []

        def failing(phis, states):
            calls.append(len(phis))
            raise RowError(len(phis) + 3, "injected out-of-range row")

        monkeypatch.setattr(metrics, "_score_states", failing)
        with pytest.raises(RowError, match="injected out-of-range row") as info:
            evaluate_rows("SG", [0.1, 0.2, 0.3])
        assert info.value.row == 6
        assert calls == [3]
