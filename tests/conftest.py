"""Shared test helpers.

``amp_joint_probs`` recomputes measurement statistics straight from state
amplitudes (tensor contraction with measurement kets), giving an oracle
that shares no code with the density-matrix path under test.
"""

import numpy as np
import pytest

from qswitch_qkd.metrics import _ROW_FIELDS, MetricsRow, _entropy_rows
from qswitch_qkd.qstate import _setting_kets


def mket(theta: float, outcome: int) -> np.ndarray:
    half = theta / 2.0
    if outcome > 0:
        return np.array([np.cos(half), np.sin(half)], dtype=complex)
    return np.array([np.sin(half), -np.cos(half)], dtype=complex)


def amp_joint_probs(amps: np.ndarray, settings) -> dict:
    """Outcome distribution of per-qubit measurements on a pure state.

    ``settings`` lists one angle (or None to skip) per qubit.  Returns a
    dict over outcome tuples of +1/-1 for the measured qubits.
    """
    n = int(np.log2(amps.size))
    tensor = np.asarray(amps, dtype=complex).reshape([2] * n)
    measured = [i for i, s in enumerate(settings) if s is not None]
    out = {}
    for combo in np.ndindex(*([2] * len(measured))):
        outcomes = tuple(+1 if c == 0 else -1 for c in combo)
        t = tensor
        for pos, qubit in enumerate(measured):
            ket = mket(settings[qubit], outcomes[pos])
            # contract the (possibly shifted) qubit axis with the bra
            axis = qubit - sum(1 for q in measured[:pos] if q < qubit)
            t = np.tensordot(ket.conj(), t, axes=([0], [axis]))
        out[outcomes] = float(np.sum(np.abs(t) ** 2))
    return out


def projector(theta: float, outcome: int) -> np.ndarray:
    """Rank-1 projector for outcome +1 or -1 of the measurement at angle ``theta``.

    Built from the package's own kets, so a Kronecker chain of these factors
    is a float-exact reference for the stacked measurement operators.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    k = _setting_kets(np.array([float(theta)]))[0, 0 if outcome > 0 else 1]
    return np.outer(k, k.conj())


def column_rows(columns: dict) -> list:
    """The rows of a columns result (``evaluate_rows``, ``compute_sweep``) as ``MetricsRow``s.

    First checks its layout: one array per field, in field order, all of one
    length, float columns and a boolean ``secure``.
    """
    assert tuple(columns) == _ROW_FIELDS
    assert len({len(column) for column in columns.values()}) == 1
    assert [column.dtype for column in columns.values()] == [np.float64] * 9 + [np.bool_]
    return [MetricsRow(*values) for values in zip(*(c.tolist() for c in columns.values()))]


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of one distribution, through the package's entropy rows."""
    return float(_entropy_rows(np.asarray(list(dist), dtype=float)[None, None])[0, 0])


def entropy_bits(ps) -> float:
    ps = np.asarray([p for p in ps if p > 1e-15], dtype=float)
    return float(-np.sum(ps * np.log2(ps)))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_mat(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


GRID_101 = np.linspace(0.0, np.pi / 2, 101)


@pytest.fixture
def check_calls(monkeypatch) -> dict:
    """Counts of ``check_density_stack`` and ``check_pure_stack`` calls from
    here on, wherever the package calls them."""
    import qswitch_qkd.metrics as metrics
    import qswitch_qkd.qstate as qstate
    import qswitch_qkd.scenarios as scenarios

    calls = {"check_density_stack": 0, "check_pure_stack": 0}
    for name in calls:
        real = getattr(qstate, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (qstate, scenarios, metrics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


# Every kind x partner combination; a partner with an angle takes phi1 = 0.9.
POINT_COMBOS = (
    ("SG", None, None), ("SYMMETRIC_CNOT", None, None),
    ("SWITCH", "XZ", None), ("SWITCH", "SWAP", None), ("SWITCH", "CNOT", None),
    ("SWITCH", "U_SG", 0.9), ("SWITCH", "V_DRAFT", 0.9),
    ("DRAFT_SWITCH", "U_SG", 0.9), ("DRAFT_SWITCH", "V_DRAFT", 0.9),
)


def traced_switch_operands(partner: str, phi: float, phi1: float | None):
    """U_SG(phi) and the partner gate, each embedded on (Bob, Eve) of three qubits: the two
    unitaries whose traced switch a single point scores."""
    from qswitch_qkd.qstate import embed, make_gate

    dims = (2, 2, 2)
    u = embed(make_gate("U_SG", [phi]), [1, 2], dims)
    v = embed(make_gate(partner, [] if phi1 is None else [phi1]), [1, 2], dims)
    return u, v


@pytest.fixture
def cold_memos():
    """The point-state and transit-map memos, empty at the start and the end of a test."""
    from qswitch_qkd.metrics import _transit_map
    from qswitch_qkd.scenarios import _pure_state

    memos = (_pure_state, _transit_map)
    for memo in memos:
        memo.cache_clear()
    yield memos
    for memo in memos:
        memo.cache_clear()
