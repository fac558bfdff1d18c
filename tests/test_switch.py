import numpy as np
import pytest
from conftest import random_density_mat, random_unitary

from qswitch_qkd.linalg import RowError
from qswitch_qkd.qstate import DensityMatrix, PAULI_X, PAULI_Z, make_gate, partial_trace, pure_to_density
from qswitch_qkd.switch import (
    ControlQubit,
    KrausChannel,
    SwitchSpec,
    apply_switch_full,
    apply_switch_full_stack,
    apply_switch_postselected,
    apply_switch_postselected_stack,
    check_kraus_stack,
    lambda_branch,
    lambda_branch_stack,
    switch_kraus_ops,
    switch_kraus_stack,
    traced_switch,
    traced_switch_stack,
)

I2 = np.eye(2, dtype=complex)


def random_channel(rng, d, n_ops):
    g = rng.normal(size=(d * n_ops, d)) + 1j * rng.normal(size=(d * n_ops, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * d:(i + 1) * d, :] for i in range(n_ops)))


class TestTypes:
    def test_channel_rejects_incomplete_kraus_set(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel((PAULI_X / 2,))

    def test_channel_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="share one square shape"):
            KrausChannel((I2, np.eye(4)))

    def test_control_defaults_to_plus(self):
        c = ControlQubit()
        assert np.allclose(c.density(), np.full((2, 2), 0.5))

    def test_control_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            ControlQubit(1.0, 1.0)

    def test_control_rejects_nan(self):
        # a NaN norm passes a `>` test; the error must name the control, not
        # surface later as a non-finite density matrix
        with pytest.raises(ValueError, match="control amplitudes are not normalized: nan"):
            ControlQubit(float("nan"), 1.0)

    def test_spec_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            SwitchSpec(make_gate("X"), make_gate("SWAP"))


class TestKrausOps:
    def test_identity_channels_give_identity(self):
        spec = SwitchSpec(KrausChannel((I2,)), KrausChannel((I2,)))
        ops = switch_kraus_ops(spec)
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(4))

    def test_unitary_pair_block_structure(self, rng):
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        spec = SwitchSpec(KrausChannel((u,)), KrausChannel((v,)))
        (m,) = switch_kraus_ops(spec)
        p00 = np.diag([1.0, 0.0])
        p11 = np.diag([0.0, 1.0])
        assert np.allclose(m, np.kron(u @ v, p00) + np.kron(v @ u, p11))

    def test_completeness_for_random_channels(self, rng):
        for _ in range(10):
            spec = SwitchSpec(random_channel(rng, 2, 2), random_channel(rng, 2, 2))
            total = sum(m.conj().T @ m for m in switch_kraus_ops(spec))
            assert np.max(np.abs(total - np.eye(4))) < 1e-9


class TestFullSwitch:
    def test_identity_channels_leave_state_alone(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        spec = SwitchSpec(KrausChannel((I2,)), KrausChannel((I2,)))
        out = apply_switch_full(spec, rho)
        assert out.dims == (2, 2)
        assert np.allclose(out.mat, np.kron(rho.mat, spec.control.density()), atol=1e-12)

    def test_equal_unitaries_square_on_system(self, rng):
        u = random_unitary(rng, 2)
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        spec = SwitchSpec(KrausChannel((u,)), KrausChannel((u,)))
        out = apply_switch_full(spec, rho)
        expected = np.kron(u @ u @ rho.mat @ dagger2(u @ u), spec.control.density())
        assert np.allclose(out.mat, expected, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        spec = SwitchSpec(random_channel(rng, 2, 3), random_channel(rng, 2, 2))
        out = apply_switch_full(spec, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
        spec = SwitchSpec(KrausChannel((I2,)), KrausChannel((I2,)))
        with pytest.raises(ValueError, match="dimension"):
            apply_switch_full(spec, rho)


def dagger2(m):
    return m.conj().T


class TestLambdaBranch:
    def test_equal_unitaries(self, rng):
        u = random_unitary(rng, 4)
        assert np.allclose(lambda_branch(u, u, +1), u @ u)
        assert np.allclose(lambda_branch(u, u, -1), np.zeros((4, 4)), atol=1e-12)

    def test_anticommuting_paulis(self):
        assert np.allclose(lambda_branch(PAULI_X, PAULI_Z, +1), np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(lambda_branch(PAULI_X, PAULI_Z, -1), PAULI_X @ PAULI_Z)

    def test_branch_operators_resolve_identity(self, rng):
        for _ in range(20):
            u, v = random_unitary(rng, 4), random_unitary(rng, 4)
            lp, lm = lambda_branch(u, v, +1), lambda_branch(u, v, -1)
            total = dagger2(lp) @ lp + dagger2(lm) @ lm
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_invalid_branch_label(self):
        with pytest.raises(ValueError, match="branch"):
            lambda_branch(PAULI_X, PAULI_Z, 2)


class TestPostselected:
    def test_equal_unitaries_certain_plus_branch(self, rng):
        u = random_unitary(rng, 2)
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        out, prob = apply_switch_postselected(u, u, rho, +1)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.mat, u @ u @ rho.mat @ dagger2(u @ u), atol=1e-12)

    def test_vanishing_branch_is_reported(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        with pytest.raises(ValueError, match="branch unreachable"):
            apply_switch_postselected(PAULI_X, PAULI_Z, rho, +1)

    def test_plus_branch_reproduces_swap_partner_state(self):
        from qswitch_qkd.qstate import embed
        from qswitch_qkd.scenarios import switch_attack_state

        phi = 0.65
        base = np.zeros(8, dtype=complex)
        base[0b000] = base[0b110] = 1 / np.sqrt(2)
        u = embed(make_gate("U_SG", [phi]), [1, 2], [2, 2, 2])
        v = embed(make_gate("SWAP"), [1, 2], [2, 2, 2])
        out, prob = apply_switch_postselected(u, v, pure_to_density(base, (2, 2, 2)), +1)
        assert np.allclose(out.mat, switch_attack_state(phi, "SWAP").mat, atol=1e-12)
        assert prob == pytest.approx((1 + np.cos(phi) ** 2) / 2, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            u, v = random_unitary(rng, 4), random_unitary(rng, 4)
            rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
            total = 0.0
            for branch in (+1, -1):
                try:
                    total += apply_switch_postselected(u, v, rho, branch)[1]
                except ValueError:
                    pass
            assert total == pytest.approx(1.0, abs=1e-9)


class TestTracedSwitch:
    def test_commuting_unitaries_compose(self, rng):
        u = random_unitary(rng, 2)
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        out = traced_switch(u, u, rho)
        assert np.allclose(out.mat, u @ u @ rho.mat @ dagger2(u @ u), atol=1e-12)

    def test_matches_full_switch_plus_partial_trace(self, rng):
        for _ in range(40):
            u, v = random_unitary(rng, 4), random_unitary(rng, 4)
            rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
            direct = traced_switch(u, v, rho)
            spec = SwitchSpec(KrausChannel((u,)), KrausChannel((v,)))
            via_full = partial_trace(apply_switch_full(spec, rho), [0, 1])
            assert np.max(np.abs(direct.mat - via_full.mat)) < 1e-9

    def test_anticommuting_pair_leaves_minus_branch(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 2), (2,))
        out = traced_switch(PAULI_X, PAULI_Z, rho)
        xz = PAULI_X @ PAULI_Z
        assert np.allclose(out.mat, xz @ rho.mat @ dagger2(xz), atol=1e-12)


def kraus_set(rng, d, n_ops):
    g = rng.normal(size=(d * n_ops, d)) + 1j * rng.normal(size=(d * n_ops, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(n_ops, d, d)


class TestStackForms:
    """Row n of every stack form equals the single-matrix function on row n, bit for bit."""

    N = 200

    @pytest.fixture
    def rows(self, rng):
        us = np.array([random_unitary(rng, 4) for _ in range(self.N)])
        vs = np.array([random_unitary(rng, 4) for _ in range(self.N)])
        mats = np.array([random_density_mat(rng, 4) for _ in range(self.N)])
        return us, vs, mats

    @pytest.mark.parametrize("branch", [+1, -1])
    def test_branch_operators(self, rows, branch):
        us, vs, _ = rows
        stack = lambda_branch_stack(us, vs, branch)
        for n in range(self.N):
            assert (stack[n] == lambda_branch(us[n], vs[n], branch)).all()

    @pytest.mark.parametrize("branch", [+1, -1])
    def test_postselected_states_and_probabilities(self, rows, branch):
        us, vs, mats = rows
        states, probs = apply_switch_postselected_stack(us, vs, mats, branch)
        for n in range(self.N):
            state, prob = apply_switch_postselected(us[n], vs[n], DensityMatrix(mats[n], (2, 2)), branch)
            assert (states[n] == state.mat).all()
            assert probs[n] == prob

    def test_traced_switch(self, rows):
        us, vs, mats = rows
        stack = traced_switch_stack(us, vs, mats)
        for n in range(self.N):
            assert (stack[n] == traced_switch(us[n], vs[n], DensityMatrix(mats[n], (2, 2))).mat).all()

    def test_full_switch(self, rng):
        es = np.array([kraus_set(rng, 2, 2) for _ in range(self.N)])
        fs = np.array([kraus_set(rng, 2, 3) for _ in range(self.N)])
        mats = np.array([random_density_mat(rng, 2) for _ in range(self.N)])
        control = ControlQubit(0.6, 0.8j)
        kraus = switch_kraus_stack(es, fs)
        out = apply_switch_full_stack(es, fs, mats, control)
        for n in range(self.N):
            spec = SwitchSpec(KrausChannel(tuple(es[n])), KrausChannel(tuple(fs[n])), control)
            assert all((a == b).all() for a, b in zip(kraus[n], switch_kraus_ops(spec), strict=True))
            assert (out[n] == apply_switch_full(spec, DensityMatrix(mats[n], (2,))).mat).all()

    def test_unreachable_branch_names_its_row(self):
        us, vs = np.array([I2] * 5), np.array([I2] * 5)
        us[3], vs[3] = PAULI_X, PAULI_Z  # anticommuting: the |+> branch vanishes
        mats = np.array([I2 / 2] * 5)
        with pytest.raises(RowError, match="branch unreachable") as info:
            apply_switch_postselected_stack(us, vs, mats, +1)
        assert info.value.row == 3

    def test_kraus_check_names_its_row(self, rng):
        ops = np.array([kraus_set(rng, 2, 2) for _ in range(4)])
        ops[2, 1] *= 1.01
        with pytest.raises(RowError, match="trace preserving") as info:
            check_kraus_stack(ops)
        assert info.value.row == 2

    def test_kraus_check_rejects_nan(self):
        with pytest.raises(RowError, match=r"trace preserving: \|sum K'K - I\| = nan") as info:
            check_kraus_stack(np.full((1, 1, 2, 2), np.nan))
        assert info.value.row == 0
