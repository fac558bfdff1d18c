"""Quantum-switch eavesdropping attacks on QKD.

Density-matrix simulation of individual eavesdropping attacks on
entanglement-based and prepare-and-measure key distribution, with and
without a quantum switch (two attack unitaries applied in superposed
order), plus the security metrics used to judge them: Eve's information
gain, pairwise mutual information and the one-way secret-key condition,
QBER, and CHSH maxima via the correlation-matrix criterion.
"""

from .linalg import RowError, hermitian_eigenvalues
from .qstate import (
    DensityMatrix,
    PureState,
    UnitaryGate,
    embed,
    make_gate,
    measure_probs,
    partial_trace,
)
from .switch import (
    ControlQubit,
    KrausChannel,
    SwitchSpec,
    apply_switch_full,
    apply_switch_postselected,
    lambda_branch,
    switch_kraus_ops,
    traced_switch,
)
from .scenarios import (
    AttackScenario,
    reduced_pair,
    scenario_pure_state,
    scenario_state,
    sg_state,
    switch_attack_state,
    symmetric_cnot_state,
)
from .metrics import (
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

__version__ = "0.1.0"

__all__ = [
    "AttackScenario",
    "BellReport",
    "ControlQubit",
    "DensityMatrix",
    "KrausChannel",
    "MetricsRow",
    "PureState",
    "RowError",
    "SwitchSpec",
    "UnitaryGate",
    "apply_switch_full",
    "apply_switch_postselected",
    "embed",
    "evaluate_row",
    "evaluate_rows",
    "fidelity_disturbance_shrink",
    "hermitian_eigenvalues",
    "horodecki_bell_max",
    "information_gain",
    "lambda_branch",
    "make_gate",
    "matched_error_rate",
    "measure_probs",
    "mutual_information",
    "partial_trace",
    "qber",
    "reduced_pair",
    "scenario_pure_state",
    "scenario_state",
    "security_condition",
    "sg_state",
    "switch_attack_state",
    "switch_kraus_ops",
    "symmetric_cnot_state",
    "traced_switch",
]
