import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import (GRID_101, POINT_COMBOS, amp_joint_probs, column_rows, entropy_bits,
                      random_density_mat, shannon_entropy)
from hypothesis import given, settings
from hypothesis import strategies as st

from qswitch_qkd.linalg import RowError
from qswitch_qkd.metrics import (
    _PAULI_PAIRS,
    MEASUREMENT_SETTINGS,
    _gain_rows,
    _joint_mi_rows,
    _matched_mi_rows,
    _transit_map,
    _transit_maps,
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
)
from qswitch_qkd.scenarios import (
    AttackScenario,
    _pair_stack,
    reduced_pair,
    scenario_amplitudes,
    scenario_pure_state,
    scenario_state,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from qswitch_qkd.switch import lambda_branch

I2 = np.eye(2, dtype=complex)


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


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


def kraus_channel(scenario):
    """Bob's channel as the Kraus map read off the state vector: K[be, a] = sqrt(2) psi[a, be],
    rho -> Tr_E(K rho K^dagger), renormalized."""
    k = np.sqrt(2) * scenario_pure_state(scenario).amplitudes.reshape(2, 4).T

    def channel(rho_in):
        joint = k @ rho_in @ k.conj().T
        joint = joint / float(np.trace(joint).real)
        return np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)

    return channel


def map_output(scenario, r):
    """Output weight and Bloch vector of the input Bloch vector ``r``, from the memoised map."""
    v = np.array([1.0 + r[2], 1.0 - r[2], r[0], r[1]]) @ _transit_map(scenario)
    return v[0], v[1:] / v[0]


def bloch_vector(rho):
    return np.array([np.trace(rho @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)])


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
        rho = DensityMatrix(np.outer(v, v.conj()), (2, 2))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_unattacked_alice_bob(self):
        assert mutual_information(reduced_pair(sg_state(0.0), "AB")) == pytest.approx(1.0, abs=1e-9)

    def test_against_amplitude_oracle(self, rng):
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = DensityMatrix(np.outer(v, v.conj()), (2, 2))
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["0.5", True, 1 + 0j, [0.5]])
    @pytest.mark.parametrize("at", range(3))
    def test_rejects_what_is_not_one_real_number_by_name(self, bad, at):
        args = [0.1, 0.1, 0.1]
        args[at] = bad
        name = ("i_ab", "i_ae", "i_be")[at]
        with pytest.raises(ValueError, match=f"^{name} must be (a real|one) number"):
            security_condition(*args)

    def test_integers_are_numbers_of_bits(self):
        assert security_condition(1, 0, np.float32(0.5)) is True

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
        report = horodecki_bell_max(DensityMatrix(np.outer(v, v.conj()), (2, 2)))
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

    @pytest.mark.parametrize("args, message", [
        pytest.param(([["1", "0", "0"]] * 3, 1.0, 2.0),
                     "t_matrix must hold real numbers, got dtype <U1", id="str-t"),
        pytest.param((np.eye(3) + 0j, 1.0, 2.0),
                     "t_matrix must hold real numbers, got dtype complex128", id="complex-t"),
        pytest.param((np.eye(3), "1", 2.0), "m_value must be a real number, got '1'", id="str-m"),
        pytest.param((np.eye(3), [1.0], 2.0), "m_value must be one number", id="list-m"),
        pytest.param((np.eye(3), 1.0, "2"), "chsh_max must be a real number, got '2'",
                     id="str-chsh"),
        pytest.param((np.eye(3), True, 2.0), "m_value must be a real number, got True",
                     id="bool-m"),
        pytest.param((np.eye(3), -1.0, 0.0), "m_value must be nonnegative, got -1.0",
                     id="negative-m"),
    ])
    def test_report_arguments_are_named(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BellReport(*args)

    def test_report_holds_floats(self):
        report = BellReport(np.eye(3, dtype=int), 1, np.float64(2.0))
        assert report.t_matrix.dtype == float and not report.t_matrix.flags.writeable
        assert type(report.m_value) is float and type(report.chsh_max) is float

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


def gram_plane_value(t, axes, a1, a2):
    """The oracle's Gram-form plane value of one matrix, directions built from the
    angles of each call: a copy kept here, so that the reference does not follow
    changes to the code under test."""
    i, j = axes
    u1 = np.outer(np.cos(a1), t.T[:, i]) + np.outer(np.sin(a1), t.T[:, j])
    u2 = np.outer(np.cos(a2), t.T[:, i]) + np.outer(np.sin(a2), t.T[:, j])
    cross = u1 @ u2.T
    cross *= 2.0
    sq = (u1 * u1).sum(axis=1)[:, None] + (u2 * u2).sum(axis=1)[None, :]
    plus = sq + cross
    minus = np.subtract(sq, cross, out=sq)
    for v in (plus, minus):
        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
    plus += minus
    return plus


def full_square_chsh_scan(t, coarse=721, refine_rounds=6):
    """The oracle's scan with its coarse step over the whole angles x angles
    square of its own [0, pi] grid, the form the half-square scan replaced,
    one plane at a time."""
    best = 0.0
    angles = np.linspace(0.0, 2 * np.pi, coarse)[: (coarse + 1) // 2]
    for axes in ((0, 2), (0, 1), (1, 2)):
        vals = gram_plane_value(t, axes, angles, angles)
        k1, k2 = np.unravel_index(np.argmax(vals), vals.shape)
        c1, c2 = angles[k1], angles[k2]
        width = angles[1] - angles[0]
        for _ in range(refine_rounds):
            a1 = np.linspace(c1 - width, c1 + width, 41)
            a2 = np.linspace(c2 - width, c2 + width, 41)
            vals = gram_plane_value(t, axes, a1, a2)
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


FAMILIES = ("random", "rank-one", "equal", "zero", "tiny")


def family_t(family, xx, xz, zx, zz, yy):
    """A correlation matrix with y decoupled from x/z, of one of ``FAMILIES``: random
    entries; rank one; a plane with s1 = s2, as in diag(c, -c, 1); all zero; or plane
    (x, y), rows 0 and 1, 1e-17 of the rest."""
    t = np.array([[xx, 0.0, xz], [0.0, yy, 0.0], [zx, 0.0, zz]])
    if family == "rank-one":
        t = np.outer([xx, 0.0, xz], [zx, 0.0, zz])
    elif family == "equal":
        t = np.diag([xx, -xx, zz])
    elif family == "zero":
        t = np.zeros((3, 3))
    elif family == "tiny":
        t[:2] *= 1e-17
    return t


def scanned_planes(ts):
    """The values of ``chsh_bruteforce`` on the stack ``ts`` and the ``(K, 3)`` mask of the
    planes it scanned, as read off the mask helper it calls."""
    masks, real = [], oracle._live_planes

    def spy(*args):
        masks.append(real(*args))
        return masks[-1]

    with mock.patch.object(oracle, "_live_planes", spy):
        values = chsh_bruteforce(np.array(ts))
    (mask,) = masks
    return values, mask.reshape(-1, len(oracle._PLANES))


def near_threshold_ts(coarse):
    """Matrices whose planes sit on both sides of the cut below which a plane is not scanned
    on a ``coarse`` grid: diag(1, -(1 - delta), 1), whose (x, y) and (y, z) planes have
    R^2 = 1 + (1 - delta)^2 against the (x, z) plane's 2; the same with the diagonal rolled;
    and the first with its x/z block turned by 0.6 rad.  The cut is found by bisection on the
    mask helper; delta runs over the two floats beside it, multiples of it and fixed values."""
    step = np.linspace(0.0, 2 * np.pi, coarse)[1]

    def dead(delta):
        near = 1.0 + (1.0 - delta) ** 2
        return not oracle._live_planes(np.array([2.0, near, near]), step)[1]

    live, cut = 0.0, 1.0
    while (mid := (live + cut) / 2) not in (live, cut):
        live, cut = (live, mid) if dead(mid) else (mid, cut)
    assert not dead(live) and dead(cut)
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    deltas = [live, cut, *(cut * f for f in (0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0)),
              1e-4, 1.2e-5, 9.5e-6, 1e-6, 0.0]
    ts = []
    for delta in deltas:
        diagonal = np.array([1.0, -(1.0 - delta), 1.0])
        ts += [np.diag(np.roll(diagonal, k)) for k in range(3)]
        ts.append(turn @ np.diag(diagonal) @ turn)
    return ts


@st.composite
def y_decoupled_ts(draw):
    # no entry so small that its square underflows, where no two scans agree bit for bit
    entry = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100)
    return family_t(draw(st.sampled_from(FAMILIES)), *(draw(entry) for _ in range(5)))


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
        rho = DensityMatrix(np.outer(singlet, singlet.conj()), (2, 2))
        assert abs(chsh_bruteforce(rho) - horodecki_bell_max(rho).chsh_max) <= 1e-9

    def test_matches_norm_form_scan(self, monkeypatch):
        # 50 matrices on a 121-point coarse grid and 3 on the default 721-point
        # one: the norm-form reference is too slow to run 50 times at 721
        rng = np.random.default_rng(2024)
        for n in range(53):
            t = random_y_decoupled_t(rng)
            coarse = 721 if n >= 50 else 121
            monkeypatch.setattr(oracle, "_COARSE", coarse)
            assert abs(chsh_bruteforce(t) - norm_form_chsh_scan(t, coarse)) <= 1e-12

    @pytest.mark.parametrize(
        "t",
        [np.eye(3), np.diag([0.3, -0.7, 0.9])] + SWAP_POINT_TS,
        ids=["identity", "diag"] + [f"swap-{k}" for k in range(7)],
    )
    def test_half_turn_scan_matches_full_turn_scan(self, t):
        # verify's 7 SWAP points and the clamp cases: the [0, pi] scan finds
        # the value of the reference's [0, 2 pi] scan on the default grid
        assert abs(chsh_bruteforce(t) - norm_form_chsh_scan(t)) <= 1e-12

    def test_coarse_grid_is_odd_and_holds_pi(self):
        # the half-turn scan needs pi, and with it every point's antipode, on the grid
        assert oracle._COARSE % 2 == 1
        assert np.linspace(0.0, 2 * np.pi, oracle._COARSE)[oracle._COARSE // 2] == np.pi

    def test_half_square_scan_equals_full_square_scan(self, monkeypatch):
        # the coarse scan reads only the upper triangle of each plane; the
        # result must be the full-square scan's bit for bit
        rng = np.random.default_rng(7)
        ts = [np.eye(3), np.diag([0.3, -0.7, 0.9])] + SWAP_POINT_TS
        ts += [random_y_decoupled_t(rng) for _ in range(20)]
        for t in ts[:3]:
            assert chsh_bruteforce(t) == full_square_chsh_scan(t)
        monkeypatch.setattr(oracle, "_COARSE", 121)
        for t in ts:
            assert chsh_bruteforce(t) == full_square_chsh_scan(t, 121)

    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_stack_equals_per_matrix_calls(self, k):
        # the stacked refine and the per-plane directions read the floats of
        # the single-matrix scan, so every entry must match it bit for bit
        rng = np.random.default_rng(k)
        ts = (SWAP_POINT_TS + [random_y_decoupled_t(rng) for _ in range(k)])[:k]
        values = chsh_bruteforce(np.array(ts))
        assert values.shape == (k,)
        assert values.tolist() == [chsh_bruteforce(t) for t in ts]
        assert all(type(chsh_bruteforce(t)) is float for t in ts)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(st.lists(y_decoupled_ts(), min_size=1, max_size=6))
    def test_stack_of_every_family_equals_per_matrix_calls(self, ts):
        # degenerate planes too: rank one, s1 = s2, all zero and 1e-17 of the rest
        values = chsh_bruteforce(np.array(ts))
        assert values.tolist() == [chsh_bruteforce(t) for t in ts]

    @pytest.mark.parametrize("coarse", [61, 121])
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(y_decoupled_ts())
    def test_band_scan_equals_full_square_scan(self, coarse, t):
        # the coarse scan scores only the band that can hold each plane's first
        # maximum; the result must be the full-square scan's bit for bit
        with mock.patch.object(oracle, "_COARSE", coarse):
            assert chsh_bruteforce(t) == full_square_chsh_scan(t, coarse)

    @pytest.mark.parametrize("coarse", [61, 121, 721])
    def test_coarse_cells_are_full_square_first_maxima(self, coarse):
        # every plane's window must hold its first maximum and score it with the
        # full scan's floats; windows of one row or column (gemv) move some cells
        rng = np.random.default_rng(coarse)
        ts = [family_t(f, *rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, *rng.uniform(-1, 1, 3)], 5))
              for f in FAMILIES for _ in range(8)]
        angles = np.linspace(0.0, 2 * np.pi, coarse)[: (coarse + 1) // 2]
        i, j = np.array(oracle._PLANES).T
        t = np.array(ts)
        ti, tj = t[:, i].reshape(-1, 3), t[:, j].reshape(-1, 3)
        a, b, d = ((x * y).sum(axis=1, keepdims=True) for x, y in ((ti, ti), (ti, tj), (tj, tj)))
        cells = zip(*oracle._coarse_centres(a + d, a - d, b, *oracle._directions(ti, tj, angles)))
        for (one, axes), cell in zip([(one, axes) for one in ts for axes in oracle._PLANES], cells):
            vals = gram_plane_value(one, axes, angles, angles)
            assert cell == np.unravel_index(np.argmax(vals), vals.shape)

    @pytest.mark.parametrize("coarse", [61, 121, 721])
    def test_near_threshold_planes_equal_full_square_scan(self, coarse):
        # a plane whose ceiling falls just below another plane's floor is not scanned;
        # the value must still be the full-square scan's bit for bit, stacked and single
        ts = near_threshold_ts(coarse)
        with mock.patch.object(oracle, "_COARSE", coarse):
            values, mask = scanned_planes(ts)
            assert values.tolist() == [full_square_chsh_scan(t, coarse) for t in ts]
            assert values.tolist() == [chsh_bruteforce(t) for t in ts]
        # the two diagonal matrices beside the cut: all planes scanned, then only (x, z)
        assert mask[0].tolist() == [True, True, True]
        assert mask[4].tolist() == [True, False, False]

    def test_verify_matrices_skip_the_xy_plane_past_phi_zero(self):
        # verify's 7 SWAP-partner matrices: 6 of 21 planes cannot hold the maximum,
        # plane (x, y) of points 1 to 6
        values, mask = scanned_planes(SWAP_POINT_TS)
        assert np.count_nonzero(~mask) == 6
        xy = oracle._PLANES.index((0, 1))
        assert np.argwhere(~mask).tolist() == [[k, xy] for k in range(1, 7)]
        assert values.tolist() == [full_square_chsh_scan(t) for t in SWAP_POINT_TS]

    def test_power_of_two_scale_is_exact(self):
        # the scan scales each matrix to a largest entry in [0.5, 1) and back, so a
        # matrix of 1e-160 entries, whose squares are subnormal, keeps every bit
        rng = np.random.default_rng(530)
        for t in [np.eye(3), SWAP_POINT_TS[3]] + [random_y_decoupled_t(rng) for _ in range(5)]:
            assert chsh_bruteforce(t * 2.0**-530) == chsh_bruteforce(t) * 2.0**-530

    def test_tiny_identity_keeps_full_precision(self):
        # unscaled, the underflowed squares put this 2.4e-4 off
        value = chsh_bruteforce(np.eye(3) * 1e-160)
        assert value == pytest.approx(2 * math.sqrt(2) * 1e-160, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_value_past_the_float_range_names_its_matrix(self):
        # 2 sqrt(2) 1e308 is past the largest float: no ldexp overflow warning, no inf
        huge = np.eye(3) * 1e308
        with pytest.raises(RowError, match="^CHSH value of correlation matrix 1 exceeds "
                                           "the float range$") as info:
            chsh_bruteforce(np.array([np.eye(3), huge, huge]))
        assert info.value.row == 1
        with pytest.raises(RowError, match="correlation matrix 0 exceeds"):
            chsh_bruteforce(huge)
        # the largest finite value still comes back
        top = np.finfo(float).max
        assert chsh_bruteforce(np.eye(3) * (top / 2 / math.sqrt(2))) <= top

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [np.eye(3) + 0j, np.eye(3, dtype=bool), np.full((3, 3), "0")],
                             ids=["complex", "bool", "str"])
    def test_matrix_that_is_not_real_rejected(self, t):
        # a cast to float would drop a complex matrix's imaginary part with only a warning
        with pytest.raises(ValueError, match=f"^correlation matrix must hold real numbers, "
                                             f"got dtype {t.dtype}$"):
            chsh_bruteforce(t)

    def test_integer_matrix_is_scanned_as_float(self):
        assert chsh_bruteforce(np.diag([1, -1, 1])) == chsh_bruteforce(np.diag([1.0, -1.0, 1.0]))

    def test_empty_stack_returns_empty_array(self):
        values = chsh_bruteforce(np.zeros((0, 3, 3)))
        assert isinstance(values, np.ndarray) and values.shape == (0,)

    def test_y_coupled_matrix_in_stack_names_its_index(self):
        ts = np.array(SWAP_POINT_TS[:4])
        ts[2, 1, 2] = 0.25
        with pytest.raises(RowError, match=r"couples the y axis to x/z \(2\.500e-01\)") as info:
            chsh_bruteforce(ts)
        assert info.value.row == 2

    def test_single_matrix_y_coupling_message_unchanged(self):
        t = np.zeros((3, 3))
        t[1, 0] = -0.5
        with pytest.raises(ValueError) as info:
            chsh_bruteforce(t)
        assert str(info.value) == ("correlation matrix couples the y axis to x/z (5.000e-01); "
                                   "the coordinate-plane scan would not be exhaustive")

    def test_y_coupled_density_matrix_rejected(self):
        # (I + X (x) Y)/4 is a state whose correlation T_xy is 1
        xy = np.kron(PAULI_X, PAULI_Y)
        rho = DensityMatrix((np.eye(4) + xy) / 4, (2, 2))
        with pytest.raises(ValueError, match=r"couples the y axis to x/z \(1\.000e\+00\)"):
            chsh_bruteforce(rho)

    def test_non_finite_matrix_in_stack_names_its_index(self):
        ts = np.array(SWAP_POINT_TS[:3])
        ts[1, 0, 0] = math.nan
        with pytest.raises(RowError, match="non-finite") as info:
            chsh_bruteforce(ts)
        assert info.value.row == 1

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (2, 3, 3, 3), (4, 3, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"3x3 or a (K, 3, 3) stack, got {shape}")):
            chsh_bruteforce(np.zeros(shape))


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

    @pytest.mark.parametrize("channel", [
        pytest.param(AttackScenario("SWITCH", 0.3, "U_SG", 0.9), id="scenario"),
        pytest.param(lambda rho: rho, id="callable"),
    ])
    def test_every_number_is_a_python_float(self, channel):
        r = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        f, d, alpha = fidelity_disturbance_shrink(channel, r)
        assert [type(v) for v in (f, d, *alpha)] == [float] * 5

    def test_channel_built_once_per_scenario(self, cold_memos, monkeypatch):
        # the three axes of one scenario read one memoised map, built from one state,
        # and a warm call gives the floats of a cold one
        import qswitch_qkd.metrics as metrics

        scenario = AttackScenario("SWITCH", 0.7, "V_DRAFT", 0.4)
        axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        expected = [fidelity_disturbance_shrink(scenario, axis) for axis in axes]
        for memo in cold_memos:
            memo.cache_clear()
        real = metrics.scenario_pure_state
        builds = []

        def counting(s):
            builds.append(s)
            return real(s)

        monkeypatch.setattr(metrics, "scenario_pure_state", counting)
        got = [fidelity_disturbance_shrink(scenario, axis) for axis in axes]
        assert builds == [scenario]
        assert _transit_map.cache_info().misses == 1
        for (f, d, shrink), (f_want, d_want, shrink_want) in zip(got, expected):
            assert (f, d) == (f_want, d_want)
            np.testing.assert_array_equal(shrink, shrink_want)  # exact, NaN where NaN

    def test_channel_cache_stays_bounded(self):
        assert _transit_map.cache_info().maxsize == 128

    def test_memoised_map_is_read_only(self):
        m = _transit_map(AttackScenario("SG", 0.3))
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [[True, False, False], ["1", "0", "0"], [1 + 0j, 0, 0],
                                   (True, 0.0, 0.0), 1.0, [1.0, [0.0], 0.0]],
                             ids=["bool", "str", "complex", "bool-beside-floats", "scalar", "ragged"])
    def test_rejects_a_vector_that_is_not_real_numbers(self, r):
        with pytest.raises(ValueError, match="^input Bloch vector"):
            fidelity_disturbance_shrink(AttackScenario("SG", 0.3), r)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("out, message", [
        (np.full((2, 2), np.nan), "^channel output contains non-finite entries$"),
        (np.eye(3) / 3, r"^channel output must be a 2x2 matrix, got shape \(3, 3\)$"),
        (np.eye(4)[0], r"^channel output must be 2-D, got shape \(4,\)$"),
        ([["0.5", "0"], ["0", "0.5"]], "^channel output must hold numbers, got dtype <U3$"),
    ], ids=["nan", "3x3", "1-D", "str"])
    def test_rejects_a_channel_output_that_is_not_a_finite_2x2(self, out, message):
        with pytest.raises(ValueError, match=message):
            fidelity_disturbance_shrink(lambda rho_in: out, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_pauli_stack_gives_the_per_pauli_floats(self, scenario, rng):
        # a caller's channel: rho_in and r_out come from one contraction over a Pauli
        # stack; the floats are those of a sum and a trace per Pauli
        paulis = (PAULI_X, PAULI_Y, PAULI_Z)
        channel = kraus_channel(scenario)
        inputs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)]
        inputs += [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(4, 3))]
        for r in inputs:
            r_in = np.array(r)
            rho_in = 0.5 * (I2 + sum(r_in[i] * paulis[i] for i in range(3)))
            rho_out = channel(rho_in)
            fidelity = float(np.trace(rho_in @ rho_out).real)
            r_out = [float(np.trace(rho_out @ p).real) for p in paulis]
            alpha = [r_out[i] / r_in[i] if abs(r_in[i]) > 1e-12 else math.nan for i in range(3)]
            f, d, shrink = fidelity_disturbance_shrink(channel, r)
            assert (f, d) == (fidelity, 1.0 - fidelity)
            np.testing.assert_array_equal(shrink, alpha)  # exact, NaN where NaN

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_scenario_map_matches_the_kraus_form(self, scenario, rng):
        # the map read off the AB pair gives the Kraus form's fidelity to 1e-15 and its
        # output Bloch components (shrink times input) to 1e-15, and its own Bloch output
        inputs = [tuple(sign * axis) for axis in np.eye(3) for sign in (1.0, -1.0)]
        inputs += [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(4, 3))]
        for r in inputs:
            want_f, _, want_shrink = fidelity_disturbance_shrink(kraus_channel(scenario), r)
            f, d, shrink = fidelity_disturbance_shrink(scenario, r)
            assert abs(f - want_f) <= 1e-15
            assert d == 1.0 - f
            np.testing.assert_array_equal(np.isnan(shrink), np.isnan(want_shrink))
            r_out = map_output(scenario, r)[1]
            for i in np.flatnonzero(np.abs(r) > 1e-12):
                assert abs(shrink[i] - want_shrink[i]) * abs(r[i]) <= 1e-15
                assert shrink[i] == r_out[i] / r[i]

    @pytest.mark.parametrize("phi", [math.pi / 2 - 1e-3, math.pi / 2 - 1e-5])
    def test_nearly_annihilated_input_keeps_its_digits(self, phi):
        # the -z input is nearly annihilated here (weight 2e-6, 2e-10); the map's
        # |0><0|, |1><1| rows carry it without the cancellation of 1 - a_z, which
        # costs a Pauli-basis map 4e-7 of fidelity at the smaller weight
        scenario = AttackScenario("SWITCH", phi, "V_DRAFT", 0.15782150368505063)
        r = (0.0, 0.0, -1.0)
        assert map_output(scenario, r)[0] < 1e-5
        f = fidelity_disturbance_shrink(scenario, r)[0]
        assert abs(f - fidelity_disturbance_shrink(kraus_channel(scenario), r)[0]) <= 1e-15

    @pytest.mark.parametrize("scenario", [
        AttackScenario("SYMMETRIC_CNOT", 0.0),
        AttackScenario("SWITCH", math.pi / 2, "SWAP"),
    ])
    def test_annihilated_input_is_reported(self, scenario):
        with pytest.raises(ValueError, match="^attack annihilates state: output trace vanishes$"):
            fidelity_disturbance_shrink(scenario, (0.0, 0.0, -1.0))

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_channel_consistent_with_tripartite_state(self, scenario):
        # feeding the maximally mixed input (r = 0) through Bob's map must
        # reproduce Bob's marginal of the tripartite attack state, at full weight
        from qswitch_qkd.qstate import partial_trace

        weight, r_out = map_output(scenario, (0.0, 0.0, 0.0))
        rho_b = partial_trace(scenario_state(scenario), [1])
        assert weight == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r_out, bloch_vector(rho_b.mat), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_channel_matches_explicit_operator_form(self, scenario):
        for axis in range(3):
            for sign in (+1.0, -1.0):
                r = sign * np.eye(3)[axis]
                rho_in = 0.5 * (I2 + sign * (PAULI_X, PAULI_Y, PAULI_Z)[axis])
                want = bloch_vector(explicit_bob_output(scenario, rho_in))
                assert np.max(np.abs(map_output(scenario, r)[1] - want)) <= 1e-12

    @pytest.mark.parametrize("kind, partner, phi1", POINT_COMBOS)
    def test_stacked_maps_are_the_memoised_point_maps(self, cold_memos, kind, partner, phi1):
        phis = np.linspace(0.1, 1.4, 7)
        pairs = _pair_stack(scenario_amplitudes(kind, phis, partner, phi1))
        maps = _transit_maps(pairs[: len(phis)])
        assert maps.shape == (len(phis), 4, 4)
        for n, phi in enumerate(phis.tolist()):
            want = _transit_map(AttackScenario(kind, phi, partner, phi1))
            assert maps[n].tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_memory_peak_per_row(self, n):
        # the whole grid is scored at once, so the peak grows with the rows:
        # 5.84 KiB per row on real pair stacks, 9.59 KiB on complex ones
        phis = np.linspace(0.0, np.pi / 2, n)
        evaluate_rows("SWITCH", phis[:2], "SWAP")  # the cached operators are built outside
        tracemalloc.start()
        try:
            evaluate_rows("SWITCH", phis, "SWAP")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 6.5 * 1024

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


def _point_bytes(scenario) -> list[bytes]:
    """The bytes of every single-point output of a scenario: its metrics row, the
    fidelity/disturbance/shrink of each Bloch axis, its density matrix and state vector."""
    row = evaluate_row(scenario)
    out = [np.array([getattr(row, f.name) for f in dataclasses.fields(row)]).tobytes()]
    for axis in np.eye(3):
        f, d, alpha = fidelity_disturbance_shrink(scenario, axis)
        out.append(np.array([f, d, *alpha]).tobytes())
    out.append(scenario_state(scenario).mat.tobytes())
    out.append(scenario_pure_state(scenario).amplitudes.tobytes())
    return out


class TestPointMemo:
    """One memoised state per scenario behind evaluate_row, the transit map and
    scenario_state: a warm call gives the bytes of a cold one, the state is built once,
    and a signed-zero angle is read as +0.0 on either side of the memo."""

    @pytest.mark.parametrize("kind, partner, phi1", POINT_COMBOS)
    def test_warm_calls_give_the_bytes_of_a_cold_call(self, cold_memos, kind, partner, phi1):
        scenario = AttackScenario(kind, 0.6, partner, phi1)
        cold = _point_bytes(scenario)
        assert _point_bytes(scenario) == cold
        assert not scenario_pure_state(scenario).amplitudes.flags.writeable  # shared, read-only
        for memo in cold_memos:
            memo.cache_clear()
        assert _point_bytes(scenario) == cold

    @pytest.mark.parametrize("kind, partner, phi1", POINT_COMBOS)
    def test_row_is_the_bytes_of_its_grid_row(self, cold_memos, kind, partner, phi1):
        columns = evaluate_rows(kind, [0.1, 0.6, 1.2], partner, phi1)
        for warm in (False, True):
            row = evaluate_row(AttackScenario(kind, 0.6, partner, phi1))
            for name, column in columns.items():
                got = np.array(getattr(row, name)).tobytes()
                assert got == column[1:2].tobytes(), (warm, name)

    @pytest.mark.parametrize("kind, partner, phi1", POINT_COMBOS)
    def test_one_build_per_scenario(self, cold_memos, monkeypatch, kind, partner, phi1):
        import qswitch_qkd.metrics as metrics
        import qswitch_qkd.scenarios as scenarios

        builds = []
        real = scenarios.scenario_amplitudes

        def counting(*args):
            builds.append(args)
            return real(*args)

        for module in (scenarios, metrics):
            monkeypatch.setattr(module, "scenario_amplitudes", counting)
        _point_bytes(AttackScenario(kind, 0.6, partner, phi1))
        assert len(builds) == 1

    def test_memos_stay_bounded(self):
        assert scenario_pure_state.cache_info().maxsize == 128
        assert _transit_map.cache_info().maxsize == 128

    @pytest.mark.parametrize("negative_first", [True, False], ids=["-0.0 first", "+0.0 first"])
    @pytest.mark.parametrize("kind, partner, phi1, field", [
        ("SG", None, None, "phi"),
        ("SWITCH", "U_SG", 0.9, "phi"),
        ("SWITCH", "U_SG", None, "phi1"),
        ("SWITCH", "V_DRAFT", None, "phi1"),
        ("DRAFT_SWITCH", "V_DRAFT", None, "phi1"),
    ])
    def test_signed_zero_is_plus_zero(self, cold_memos, negative_first, kind, partner, phi1,
                                      field):
        def at(zero):
            values = {"kind": kind, "phi": 0.6, "partner": partner, "phi1": phi1, field: zero}
            return AttackScenario(**values)

        order = (-0.0, 0.0) if negative_first else (0.0, -0.0)
        first, second = (_point_bytes(at(zero)) for zero in order)
        assert math.copysign(1.0, getattr(at(-0.0), field)) == 1.0
        assert first == second
        for memo in cold_memos:
            memo.cache_clear()
        assert _point_bytes(at(0.0)) == first
