"""Property tests over the whole scenario space: kind x partner x phi x phi1.

Angles are drawn from [0, pi/2] with both endpoints always in the mix.  The
runs are derandomized so the suite stays deterministic.
"""

import math
from unittest import mock

import numpy as np
import pytest
from conftest import GRID_101, amp_joint_probs, column_rows, entropy_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from qswitch_qkd import metrics
from qswitch_qkd.cli import SweepConfig, compute_sweep
from qswitch_qkd.metrics import (
    MEASUREMENT_SETTINGS,
    _matched_mi_rows,
    evaluate_row,
    evaluate_rows,
    fidelity_disturbance_shrink,
)
from qswitch_qkd.qstate import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _checked_probs,
    _norm_sq_rows,
    check_density_stack,
    gate_stack,
    make_gate,
    partial_trace,
    pure_to_density,
)
from qswitch_qkd.scenarios import (
    SWITCH_PARTNERS,
    AttackScenario,
    _attack_amplitudes,
    _pair_stack,
    reduced_pair,
    reduced_pairs,
    scenario_amplitudes,
    scenario_pure_state,
    scenario_state,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from qswitch_qkd.switch import lambda_branch_stack

HALF_PI = math.pi / 2
COMBOS = (
    [("SG", None), ("SYMMETRIC_CNOT", None)]
    + [("SWITCH", partner) for partner in SWITCH_PARTNERS]
    + [("DRAFT_SWITCH", "U_SG"), ("DRAFT_SWITCH", "V_DRAFT")]
)
ANGLES = st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI))
# MI, QBER and CHSH are bounded exactly; the slack only absorbs round-off.
SLACK = 1e-12
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)
GRID_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


@st.composite
def scenarios(draw):
    kind, partner = draw(st.sampled_from(COMBOS))
    phi1 = draw(ANGLES) if partner in ("U_SG", "V_DRAFT") else None
    return AttackScenario(kind, draw(ANGLES), partner, phi1)


@st.composite
def families(draw):
    """Kind, partner and phi1 of a sweep: everything but phi."""
    kind, partner = draw(st.sampled_from(COMBOS))
    phi1 = draw(ANGLES) if partner in ("U_SG", "V_DRAFT") else None
    return kind, partner, phi1


@st.composite
def unit_bloch_vectors(draw):
    axis = st.floats(-1.0, 1.0)
    r = np.array(draw(st.tuples(axis, axis, axis).filter(lambda v: math.hypot(*v) > 0.1)))
    return r / np.linalg.norm(r)


@PROPERTY_SETTINGS
@given(scenarios())
def test_row_metrics_stay_in_range(scenario):
    row = evaluate_row(scenario)
    for mi in (row.i_ab, row.i_ae, row.i_be):
        assert 0.0 <= mi <= 1.0 + SLACK
    for chsh in (row.bell_ab, row.bell_ae, row.bell_be):
        assert chsh <= 2 * math.sqrt(2) + SLACK
    assert 0.0 <= row.qber <= 1.0


@PROPERTY_SETTINGS
@given(scenarios())
def test_state_has_unit_trace_and_purity(scenario):
    rho = scenario_state(scenario)
    assert abs(np.trace(rho.mat).real - 1.0) <= 1e-9
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) <= 1e-9


@PROPERTY_SETTINGS
@given(scenarios())
def test_point_states_are_valid_without_a_check(scenario):
    # the point constructors, pure_to_density of a PureState and partial_trace
    # wrap what they derive from checked amplitudes; it must pass the
    # density-matrix checks they skip, as must each of its reductions
    args = (scenario.phi, scenario.partner, scenario.phi1)
    states = [scenario_state(scenario), pure_to_density(scenario_pure_state(scenario))]
    if scenario.kind == "SG":
        states.append(sg_state(scenario.phi))
    elif scenario.kind == "SYMMETRIC_CNOT":
        states.append(symmetric_cnot_state(scenario.phi))
    elif scenario.kind == "SWITCH":
        states.append(switch_attack_state(*args))
    for rho in states:
        reductions = [reduced_pair(rho, pair) for pair in ("AB", "AE", "BE")]
        reductions += [partial_trace(rho, [k]) for k in range(3)]
        for state in [rho] + reductions:
            check_density_stack(state.mat[None])


@PROPERTY_SETTINGS
@given(scenarios(), unit_bloch_vectors())
def test_fidelity_and_disturbance_are_complementary(scenario, r):
    try:
        f, d, _ = fidelity_disturbance_shrink(scenario, r)
    except ValueError as exc:
        # Bob's transit weight is 2 Tr(rho_in rho_A^T); only an input with
        # no weight there may be annihilated.
        rho_in = 0.5 * (np.eye(2) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
        rho_a = partial_trace(scenario_state(scenario), [0]).mat
        assert "annihilates" in str(exc)
        assert 2 * np.trace(rho_in @ rho_a.T).real <= 1e-9
        return
    assert -SLACK <= f <= 1.0 + SLACK
    assert abs(f + d - 1.0) <= SLACK


def pointwise_rows(family, grid):
    kind, partner, phi1 = family
    return [evaluate_row(AttackScenario(kind, float(phi), partner, phi1)) for phi in grid]


def _oracle_mi(amps, i, j):
    vals = []
    for t in MEASUREMENT_SETTINGS:
        settings_ = [None, None, None]
        settings_[i] = settings_[j] = t
        joint = amp_joint_probs(amps, settings_)
        p = [joint[(a, +1)] + joint[(a, -1)] for a in (+1, -1)]
        q = [joint[(+1, b)] + joint[(-1, b)] for b in (+1, -1)]
        vals.append(entropy_bits(p) + entropy_bits(q) - entropy_bits(joint.values()))
    return sum(vals) / 2


def oracle_scores(amps):
    """MI, gain and QBER straight from the amplitudes (tensor contraction)."""
    eve = [amp_joint_probs(amps, [None, None, t]) for t in MEASUREMENT_SETTINGS]
    z = amp_joint_probs(amps, [0.0, 0.0, None])
    return {
        "i_ab": _oracle_mi(amps, 0, 1),
        "i_ae": _oracle_mi(amps, 0, 2),
        "i_be": _oracle_mi(amps, 1, 2),
        "gain": 0.25 * sum(abs(eve[0][(lam,)] - eve[1][(lam,)]) for lam in (+1, -1)),
        "qber": z[(+1, -1)] + z[(-1, +1)],
    }


@GRID_SETTINGS
@given(families(), st.integers(2, 24))
def test_sweep_equals_pointwise_rows(family, steps):
    # the default range, so both endpoints are always on the grid
    kind, partner, phi1 = family
    config = SweepConfig(kind, partner, phi1, 0.0, HALF_PI, steps, ("mi",), None)
    assert column_rows(compute_sweep(config)) == pointwise_rows(family, config.grid())


@GRID_SETTINGS
@given(families(), st.lists(st.floats(0.0, HALF_PI), max_size=12))
def test_batched_rows_match_pointwise_rows_and_amplitude_oracle(family, interior):
    grid = [0.0] + interior + [HALF_PI]
    kind, partner, phi1 = family
    rows = column_rows(evaluate_rows(kind, grid, partner, phi1))
    assert rows == pointwise_rows(family, grid)
    for phi, row in zip(grid, rows):
        amps = scenario_pure_state(AttackScenario(kind, phi, partner, phi1)).amplitudes
        for name, value in oracle_scores(amps).items():
            assert abs(getattr(row, name) - value) <= 1e-12, (name, phi)


@GRID_SETTINGS
@given(families(), st.lists(ANGLES, min_size=1, max_size=12))
def test_engine_states_and_pairs_are_valid_without_a_check(family, grid):
    # evaluate_rows checks only the amplitudes; the states and the pairs it
    # reduces them to must pass the density-matrix checks it skips
    kind, partner, phi1 = family
    amps = scenario_amplitudes(kind, grid, partner, phi1)
    check_density_stack(amps[:, :, None] * amps.conj()[:, None, :])
    check_density_stack(_pair_stack(amps))


@GRID_SETTINGS
@given(families(), st.lists(ANGLES, min_size=1, max_size=12))
def test_batched_norms_equal_per_row_vdot(family, grid):
    # the norm checks take one stacked <a|a> product for the per-row np.vdot;
    # it must give the same bits, on the states and on the switch branch
    # before its renormalization
    kind, partner, phi1 = family
    stacks = [scenario_amplitudes(kind, grid, partner, phi1)]
    if partner is not None:
        p = make_gate(partner, [] if phi1 is None else [phi1]).mat
        stacks.append(_attack_amplitudes(lambda_branch_stack(gate_stack("U_SG", grid), p, +1)))
    for amps in stacks:
        per_row = np.array([np.vdot(a, a).real for a in amps])
        assert (_norm_sq_rows(amps) == per_row).all()


@PROPERTY_SETTINGS
@given(st.sampled_from(["U_SG", "V_DRAFT"]), st.lists(ANGLES, min_size=1, max_size=12))
def test_gate_stack_is_unitary_without_a_check(name, angles):
    # gate_stack builds the rotation and the reflection from checked angles
    # and skips the unitarity check that UnitaryGate runs; each must pass it
    mats = gate_stack(name, angles)
    assert np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(4)).max() <= 1e-9


def assert_mi_joints_are_distributions(pairs):
    # _matched_mi_rows scores the output of its one _checked_probs call with
    # unchecked entropies; the joints, and the marginals built from them, must
    # pass the checks the entropy pass dropped: no negative entry, each sum
    # within 1e-9 of 1
    seen = []

    def capture(probs):
        seen.append(_checked_probs(probs))
        return seen[-1]

    with mock.patch.object(metrics, "_checked_probs", capture):
        _matched_mi_rows(pairs)
    (joints,) = seen
    assert joints.shape == (len(pairs), 2, 4)
    assert (joints >= 0.0).all()
    first = joints[..., [0, 2]] + joints[..., [1, 3]]
    second = joints[..., [0, 1]] + joints[..., [2, 3]]
    for dists in (first, second, joints):
        assert np.abs(dists.sum(axis=-1) - 1.0).max() <= 1e-9


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 24))
def test_mi_joints_of_random_states_are_distributions(seed, rank, n):
    # rank-deficient states have zero outcomes, where round-off goes negative
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank))
    m = g @ g.conj().swapaxes(1, 2)
    pairs = m / np.trace(m, axis1=1, axis2=2)[:, None, None]
    check_density_stack(pairs)
    assert_mi_joints_are_distributions(pairs)


GRID_FAMILIES = [(kind, partner, phi1) for kind, partner in COMBOS
                 for phi1 in ((0.0, 0.9, HALF_PI) if partner in ("U_SG", "V_DRAFT") else (None,))]


@pytest.mark.parametrize("kind, partner, phi1", GRID_FAMILIES)
def test_amplitude_pairs_equal_the_density_route_bit_for_bit(kind, partner, phi1):
    # the engine reduces the amplitudes; reduced_pairs traces |psi><psi| with
    # np.trace, and every float must agree (a BLAS product M M' does not)
    amps = scenario_amplitudes(kind, np.linspace(0.0, HALF_PI, 1001), partner, phi1)
    want = np.concatenate(list(reduced_pairs(amps[:, :, None] * amps.conj()[:, None, :]).values()))
    assert _pair_stack(amps).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, partner, phi1", GRID_FAMILIES)
def test_mi_joints_of_grid_pairs_are_distributions(kind, partner, phi1):
    amps = scenario_amplitudes(kind, GRID_101, partner, phi1)
    assert_mi_joints_are_distributions(_pair_stack(amps))
    columns = evaluate_rows(kind, GRID_101, partner, phi1)
    assert all(np.isfinite(columns[name]).all() for name in ("i_ab", "i_ae", "i_be"))
