"""Property tests over the whole scenario space: kind x partner x phi x phi1.

Angles are drawn from [0, pi/2] with both endpoints always in the mix.  The
runs are derandomized so the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qswitch_qkd.metrics import evaluate_row, fidelity_disturbance_shrink
from qswitch_qkd.qstate import PAULI_X, PAULI_Y, PAULI_Z, partial_trace
from qswitch_qkd.scenarios import SWITCH_PARTNERS, AttackScenario, scenario_state

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


@st.composite
def scenarios(draw):
    kind, partner = draw(st.sampled_from(COMBOS))
    phi1 = draw(ANGLES) if partner in ("U_SG", "V_DRAFT") else None
    return AttackScenario(kind, draw(ANGLES), partner, phi1)


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
    assert abs(rho.purity() - 1.0) <= 1e-9


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
