import re
import warnings

import numpy as np
import pytest
from conftest import amp_joint_probs, projector, random_density_mat

import qswitch_qkd.qstate as qstate
from qswitch_qkd import selfcheck
from qswitch_qkd.linalg import RowError
from qswitch_qkd.metrics import matched_error_rate
from qswitch_qkd.qstate import (
    _measurement_ops,
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    check_density_stack,
    check_pure_stack,
    embed,
    expectations,
    gate_stack,
    make_gate,
    measure_probs,
    measure_probs_stack,
    partial_trace,
    partial_trace_stack,
)
from qswitch_qkd.scenarios import _pair_stack, reduced_pairs, scenario_amplitudes, sg_state

I2 = np.eye(2, dtype=complex)


def ket(*bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = idx * 2 + b
    v[idx] = 1.0
    return v


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = 1 / np.sqrt(2)
    return v


def bell_density():
    v = bell_phi_plus()
    return DensityMatrix(np.outer(v, v.conj()), (2, 2))


class TestStateTypes:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_pure_state_requires_matching_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(np.array([1.0, 0.0]), (2, 2))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))

    def test_density_accepts_hermiticity_deviation_within_its_tolerance(self):
        # 5e-10 is inside the density-matrix tolerance of 1e-9, though above
        # the 1e-10 of hermitian_eigenvalues: the PSD step must not reject it
        rho = DensityMatrix(np.array([[0.5, 5e-10], [0.0, 0.5]]), (2,))
        assert rho.mat[0, 1] == 5e-10

    def test_density_rejects_hermiticity_deviation_past_its_tolerance(self):
        message = r"^density matrix is not Hermitian \(deviation 2\.000e-09\)$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.array([[0.5, 2e-9], [0.0, 0.5]]), (2,))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    @pytest.mark.filterwarnings("error")
    def test_entries_that_are_not_numbers_rejected_by_name(self):
        # np.asarray(a, dtype=complex) would parse the str entries and cast the bools
        with pytest.raises(ValueError, match="^density matrix must hold numbers, got dtype <U3$"):
            DensityMatrix([["0.5", "0"], ["0", "0.5"]], (2,))
        with pytest.raises(ValueError, match="^amplitudes must hold numbers, got dtype bool$"):
            PureState(np.array([True, False]), (2,))
        with pytest.raises(ValueError, match="^gate must hold numbers, got dtype bool$"):
            embed(np.eye(2, dtype=bool)[None], [0], [2, 2])
        with pytest.raises(ValueError, match="^gate must hold numbers, got dtype <U1$"):
            embed([["0", "1"], ["1", "0"]], [0], [2, 2])

    def test_density_is_immutable(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0

    def test_measurement_setting_range(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        assert measure_probs(rho, [np.pi]) == pytest.approx({(1,): 0.5, (-1,): 0.5})
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            measure_probs(rho, [3.5])


class TestIntegerArguments:
    # int() would keep subsystem 0 for 0.5, target it for 0.7, and read
    # dims 2.5 and 2.9 as 2; each is now a ValueError naming the argument

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.5, 0.0, np.float64(1.0), "0", True, np.True_])
    def test_keep_and_targets_must_be_integers(self, bad):
        rho = bell_density()
        message = f"must hold integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match="^keep " + message):
            partial_trace(rho, [bad])
        with pytest.raises(ValueError, match="^keep " + message):
            partial_trace_stack(rho.mat[None], rho.dims, [1, bad])
        with pytest.raises(ValueError, match="^targets " + message):
            embed(make_gate("X"), [bad], [2, 2])
        with pytest.raises(ValueError, match="^targets " + message):
            embed(np.stack([PAULI_X] * 3), [bad], (2, 2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [2.5, 2.9, 2.0, "2", True, np.bool_(True)])
    def test_dims_must_be_integers(self, bad):
        message = f"^dims must hold integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.eye(2) / 2, (bad,))
        with pytest.raises(ValueError, match=message):
            PureState([1, 0], (bad,))
        with pytest.raises(ValueError, match=message):
            embed(make_gate("X"), [0], [2, bad])
        with pytest.raises(ValueError, match=message):
            partial_trace_stack(np.eye(4)[None] / 4, (bad, 2), [0])
        with pytest.raises(ValueError, match=message):
            measure_probs_stack(np.eye(4)[None] / 4, (bad, 2), [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scalar", [0, 1, 2, np.int64(1), np.array(1), 1.5, None])
    def test_scalar_in_place_of_a_sequence_is_named(self, scalar):
        # iterating a scalar used to raise a bare "'int' object is not iterable"
        def message(name):
            return f"^{name} must be a sequence of integers, got {re.escape(repr(scalar))}$"

        with pytest.raises(ValueError, match=message("dims")):
            DensityMatrix(np.eye(2) / 2, scalar)
        with pytest.raises(ValueError, match=message("dims")):
            PureState([1, 0], scalar)
        with pytest.raises(ValueError, match=message("dims")):
            embed(make_gate("X"), [0], scalar)
        with pytest.raises(ValueError, match=message("targets")):
            embed(make_gate("X"), scalar, [2, 2])
        with pytest.raises(ValueError, match=message("keep")):
            partial_trace(sg_state(0.3), scalar)
        with pytest.raises(ValueError, match=message("keep")):
            partial_trace_stack(bell_density().mat[None], (2, 2), scalar)
        with pytest.raises(ValueError, match=message("dims")):
            partial_trace_stack(np.eye(4)[None] / 4, scalar, [0])
        with pytest.raises(ValueError, match=message("dims")):
            measure_probs_stack(np.eye(4)[None] / 4, scalar, [0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scalar", [0.0, np.float64(0.3), np.array(0.0), None])
    def test_scalar_in_place_of_the_settings_is_named(self, scalar):
        # len() of a scalar raises a bare "object of type 'float' has no len()"
        message = f"^per_subsystem must be a sequence, got {re.escape(repr(scalar))}$"
        with pytest.raises(ValueError, match=message):
            measure_probs_stack(np.eye(4)[None] / 4, (2, 2), scalar)
        with pytest.raises(ValueError, match=message):
            measure_probs(bell_density(), scalar)

    @pytest.mark.filterwarnings("error")
    def test_numpy_integers_are_integers(self):
        rho = DensityMatrix(np.eye(4) / 4, np.array([2, 2]))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
        assert partial_trace(rho, [np.int64(1)]).dims == (2,)
        assert (embed(make_gate("X"), (np.int32(1),), [np.int8(2), 2])
                == embed(make_gate("X"), [1], [2, 2])).all()


class TestMakeGate:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angle", ["0.3", True, 0.3 + 0j, np.bool_(True)],
                             ids=["str", "bool", "complex", "numpy-bool"])
    @pytest.mark.parametrize("name", ["U_SG", "V_DRAFT"])
    def test_angle_that_is_not_a_real_number_rejected_by_name(self, name, angle):
        message = f"^gate {name} angle must be a real number, got "
        with pytest.raises(ValueError, match=message):
            make_gate(name, [angle])
        with pytest.raises(ValueError, match=message):
            gate_stack(name, [0.1, angle])
        with pytest.raises(ValueError, match=message):
            gate_stack(name, np.array([angle]))

    @pytest.mark.filterwarnings("error")
    def test_scalar_in_place_of_the_parameters_rejected(self):
        with pytest.raises(ValueError, match="^gate U_SG parameters must be a sequence, got 0.3$"):
            make_gate("U_SG", 0.3)

    def test_integer_angles_are_angles(self):
        assert make_gate("U_SG", [np.int64(1)]).params == (1.0,)
        assert gate_stack("U_SG", [0, 1]).tobytes() == gate_stack("U_SG", [0.0, 1.0]).tobytes()

    def test_usg_at_zero_is_identity(self):
        assert np.allclose(make_gate("U_SG", [0.0]).mat, np.eye(4))

    def test_usg_at_half_pi_swaps_excitation(self):
        u = make_gate("U_SG", [np.pi / 2]).mat
        assert np.allclose(u @ ket(1, 0), ket(0, 1), atol=1e-12)

    def test_usg_action_general(self):
        phi = 0.8
        u = make_gate("U_SG", [phi]).mat
        out = u @ ket(1, 0)
        assert np.allclose(out, np.cos(phi) * ket(1, 0) + np.sin(phi) * ket(0, 1))

    def test_vdraft_action_on_00(self):
        p1 = 0.9
        v = make_gate("V_DRAFT", [p1]).mat
        out = v @ ket(0, 0)
        assert np.allclose(out, np.cos(p1) * ket(0, 0) + np.sin(p1) * ket(1, 1))

    def test_xz_is_x_tensor_z(self):
        assert np.allclose(make_gate("XZ").mat, np.kron(PAULI_X, np.diag([1, -1])))

    def test_all_gates_unitary(self):
        for name, nparams in (("X", 0), ("Y", 0), ("Z", 0), ("H", 0), ("XZ", 0),
                              ("SWAP", 0), ("CNOT", 0), ("U_SG", 1), ("V_DRAFT", 1)):
            g = make_gate(name, [0.9] * nparams)
            assert np.allclose(g.mat.conj().T @ g.mat, np.eye(g.dim), atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gate"):
            make_gate("TOFFOLI")

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameter"):
            make_gate("U_SG")
        with pytest.raises(ValueError, match="parameter"):
            make_gate("X", [1.0])

    def test_non_finite_angle_named_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gate U_SG angle must be finite, got inf"):
                make_gate("U_SG", [np.inf])

    def test_parametric_gate_checked_for_unitarity_once(self, monkeypatch):
        calls = []
        real = qstate._check_unitary

        def counted(name, mats):
            calls.append(len(mats))
            real(name, mats)

        monkeypatch.setattr(qstate, "_check_unitary", counted)
        make_gate("U_SG", [0.6])
        # built from finite angles, unitary by construction (tests/test_properties.py)
        gate_stack("V_DRAFT", [0.1, 0.2, 0.3])
        assert calls == [1]

    def test_fixed_gate_checked_at_import_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qstate, "_check_unitary", lambda name, mats: calls.append(name))
        swap = make_gate("SWAP")
        assert calls == []
        assert make_gate("swap") is swap
        assert not swap.mat.flags.writeable

    @pytest.mark.parametrize("params, message", [
        pytest.param(["0.3", True], "gate 'U' parameter must be a real number, got '0.3'",
                     id="str"),
        pytest.param([True], "gate 'U' parameter must be a real number, got True", id="bool"),
        pytest.param([[0.3]], "gate 'U' parameter must be one number, got a list", id="list"),
        pytest.param(0.3, "gate 'U' parameters must be a sequence, got 0.3", id="scalar"),
    ])
    def test_direct_gate_params_are_real_numbers(self, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            qstate.UnitaryGate("U", params, np.eye(2))

    def test_direct_gate_params_are_floats(self):
        gate = qstate.UnitaryGate("U", (1, np.float32(0.5)), np.eye(2))
        assert gate.params == (1.0, 0.5)
        assert [type(p) for p in gate.params] == [float, float]

    def test_non_unitary_gate_message_kept(self):
        with pytest.raises(RowError, match=r"gate 'U_SG' is not unitary \(max \|U'U - I\| = "):
            qstate.UnitaryGate("U_SG", (0.0,), 1.01 * np.eye(4))


class TestEmbed:
    def test_single_qubit_on_first(self):
        assert np.allclose(embed(PAULI_X, [0], [2, 2]), np.kron(PAULI_X, I2))

    def test_identity_embeds_to_identity(self):
        assert np.allclose(embed(np.eye(2), [1], [2, 2, 2]), np.eye(8))

    def test_usg_on_bob_eve(self):
        phi = 0.6
        u = embed(make_gate("U_SG", [phi]), [1, 2], [2, 2, 2])
        out = u @ ket(1, 1, 0)
        expected = np.cos(phi) * ket(1, 1, 0) + np.sin(phi) * ket(1, 0, 1)
        assert np.allclose(out, expected, atol=1e-12)

    def test_reversed_targets_transpose_the_gate_factors(self):
        # CNOT with control on qubit 1 and target on qubit 0
        cnot = make_gate("CNOT")
        m = embed(cnot, [1, 0], [2, 2])
        assert np.allclose(m @ ket(0, 1), ket(1, 1))
        assert np.allclose(m @ ket(1, 0), ket(1, 0))

    def test_composition(self, rng):
        from conftest import random_unitary

        u = random_unitary(rng, 4)
        w = random_unitary(rng, 4)
        lhs = embed(u @ w, [0, 2], [2, 2, 2])
        rhs = embed(u, [0, 2], [2, 2, 2]) @ embed(w, [0, 2], [2, 2, 2])
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("targets", [[0], [1], [2], [0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1]])
    def test_bytes_equal_kron_lift(self, rng, targets):
        # the broadcast lift forms the same complex products as np.kron(g, I)
        from conftest import random_unitary

        rest = [i for i in range(3) if i not in targets]
        order = targets + rest
        perm = [order.index(i) for i in range(3)]
        for _ in range(20):
            g = random_unitary(rng, 2 ** len(targets))
            big = np.kron(g, np.eye(2 ** len(rest), dtype=complex))
            ref = big.reshape([2] * 6).transpose(perm + [p + 3 for p in perm]).reshape(8, 8)
            assert embed(g, targets, [2, 2, 2]).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("targets", [[1], [0, 2], [2, 0]])
    def test_stack_lifts_each_gate_byte_for_byte(self, rng, targets):
        from conftest import random_unitary

        gates = np.array([random_unitary(rng, 2 ** len(targets)) for _ in range(6)])
        lifted = embed(gates, targets, [2, 2, 2])
        assert lifted.shape == (6, 8, 8)
        for g, big in zip(gates, lifted):
            assert big.tobytes() == embed(g, targets, [2, 2, 2]).tobytes()

    def test_stack_with_non_finite_gate_names_its_row(self):
        gates = np.array([np.eye(2), np.eye(2), np.full((2, 2), np.nan)], dtype=complex)
        with pytest.raises(RowError, match="gate contains non-finite entries") as info:
            embed(gates, [0], [2, 2])
        assert info.value.row == 2

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2, 2)])
    def test_gate_neither_matrix_nor_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"2-D or an (N, d, d) stack, got shape {shape}")):
            embed(np.ones(shape), [0], [2, 2])

    def test_stack_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"gate of shape \(3, 4, 4\) does not fit"):
            embed(np.zeros((3, 4, 4)), [0], [2, 2])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed(PAULI_X, [3], [2, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            embed(np.eye(4), [0], [2, 2])


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = bell_density()
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.mat, I2 / 2)

    def test_keep_all_is_identity_operation(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 8), (2, 2, 2))
        assert np.allclose(partial_trace(rho, [0, 1, 2]).mat, rho.mat)

    def test_biseparable_state_reduces_to_pure_pair(self):
        phi = 0.7
        c = np.cos(phi)
        n = np.sqrt(1 + c * c)
        amps = (ket(0, 0, 0) + c * ket(1, 0, 1)) / n
        rho_ae = partial_trace(DensityMatrix(np.outer(amps, amps.conj()), (2, 2, 2)), [0, 2])
        target = (ket(0, 0) + c * ket(1, 1)) / n
        assert np.allclose(rho_ae.mat, np.outer(target, target.conj()), atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = bell_density()
        with pytest.raises(ValueError, match="empty"):
            partial_trace(rho, [])


class TestProjector:
    """The Kronecker reference's factor, ``conftest.projector``."""

    def test_z_basis(self):
        assert np.allclose(projector(0.0, +1), np.diag([1, 0]))

    def test_x_basis(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(projector(np.pi / 2, +1), np.outer(plus, plus))

    def test_completeness(self):
        total = projector(1.1, +1) + projector(1.1, -1)
        assert np.allclose(total, I2, atol=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            projector(0.0, 0)


class TestMeasureProbs:
    def test_maximally_mixed_is_uniform(self):
        rho = DensityMatrix(I2 / 2, (2,))
        probs = measure_probs(rho, [0.83])
        assert probs[(+1,)] == pytest.approx(0.5)
        assert probs[(-1,)] == pytest.approx(0.5)

    def test_bell_perfect_z_correlation(self):
        rho = bell_density()
        probs = measure_probs(rho, [0.0, 0.0])
        assert probs[(+1, +1)] == pytest.approx(0.5)
        assert probs[(-1, -1)] == pytest.approx(0.5)
        assert probs[(+1, -1)] == pytest.approx(0.0, abs=1e-12)

    def test_eve_marginal_of_attacked_state(self):
        from qswitch_qkd.scenarios import reduced_pair, sg_state

        phi = 0.9
        rho_ae = reduced_pair(sg_state(phi), "AE")
        probs = measure_probs(rho_ae, [None, 0.0])
        assert probs[(+1,)] == pytest.approx((1 + np.cos(phi) ** 2) / 2, abs=1e-12)
        assert probs[(-1,)] == pytest.approx(np.sin(phi) ** 2 / 2, abs=1e-12)

    def test_against_amplitude_oracle(self, rng):
        for _ in range(25):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            settings = [rng.uniform(0, np.pi), None, rng.uniform(0, np.pi)]
            rho = DensityMatrix(np.outer(v, v.conj()), (2, 2, 2))
            got = measure_probs(rho, settings)
            want = amp_joint_probs(v, settings)
            for key, p in want.items():
                assert got[key] == pytest.approx(p, abs=1e-11)

    def test_wrong_length_rejected(self):
        rho = bell_density()
        with pytest.raises(ValueError, match="one entry per subsystem"):
            measure_probs(rho, [0.0])

    @pytest.mark.parametrize("bad", [-0.1, 4.0, np.nan])
    def test_bad_angle_is_one_error_for_the_whole_stack(self, rng, bad):
        mats = np.array([random_density_mat(rng, 4) for _ in range(5)])
        with pytest.raises(ValueError, match=r"^measurement angle must lie in \[0, pi\], got ") as info:
            measure_probs_stack(mats, (2, 2), [0.2, bad])
        assert not isinstance(info.value, RowError)

    @pytest.mark.parametrize(
        "angle", [[0.3], (0.3, 0.4), np.array([0.3, 0.4]), np.zeros((1, 1)), [0.1, [0.2]]]
    )
    def test_array_in_place_of_an_angle_names_its_subsystem(self, angle):
        # one setting per subsystem, shared by every row: a list or array is
        # a ValueError naming the subsystem, never a TypeError from float()
        rho = bell_density()
        with pytest.raises(ValueError, match="^subsystem 1 measurement angle must be one number"):
            measure_probs(rho, [0.0, angle])
        with pytest.raises(ValueError, match="^subsystem 0 measurement angle must be one number"):
            measure_probs_stack(np.array([rho.mat] * 3), (2, 2), [angle, None])

    @pytest.mark.parametrize(
        "angle", ["0.3", b"0.3", True, np.True_, np.bool_(False), np.complex128(0.3)]
    )
    def test_angle_that_is_not_a_real_number_names_its_subsystem(self, angle):
        # float() would measure "0.3" at 0.3 and True at 1.0
        rho = bell_density()
        message = "^subsystem {} measurement angle must be a real number, got "
        with pytest.raises(ValueError, match=message.format(1)):
            measure_probs(rho, [0.0, angle])
        with pytest.raises(ValueError, match=message.format(0)):
            measure_probs_stack(np.array([rho.mat] * 3), (2, 2), [angle, None])
        with pytest.raises(ValueError, match=message.format(0)):
            matched_error_rate(rho, angle)

    def test_integer_angles_are_measured_as_floats(self):
        rho = bell_density()
        assert measure_probs(rho, [0, np.int64(1)]) == measure_probs(rho, [0.0, 1.0])


def kron_reference_ops(dims, settings):
    """Outcome keys and operators, each operator one chain of ``np.kron`` calls."""
    measured = [i for i, s in enumerate(settings) if s is not None]
    keys, ops = [], []
    for combo in np.ndindex(*([2] * len(measured))):
        outcomes = tuple(+1 if c == 0 else -1 for c in combo)
        op = np.eye(1, dtype=complex)
        for i, s in enumerate(settings):
            if s is None:
                op = np.kron(op, np.eye(dims[i], dtype=complex))
            else:
                op = np.kron(op, projector(s, outcomes[measured.index(i)]))
        keys.append(outcomes)
        ops.append(op)
    return tuple(keys), np.array(ops)


def kron_reference_probs(rho, settings):
    """Outcome distribution with one Kronecker-built operator per outcome."""
    keys, ops = kron_reference_ops(rho.dims, settings)
    return {k: max(float(np.trace(rho.mat @ op).real), 0.0) for k, op in zip(keys, ops)}


class TestMeasurementOperatorCache:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_matches_kron_reference_exactly(self, rng, n_qubits):
        dims = (2,) * n_qubits
        for _ in range(200):
            rho = DensityMatrix(random_density_mat(rng, 2**n_qubits), dims)
            settings = [
                None if rng.random() < 0.3 else float(rng.uniform(0, np.pi))
                for _ in dims
            ]
            assert measure_probs(rho, settings) == kron_reference_probs(rho, settings)

    def test_metric_settings_match_kron_reference_exactly(self, rng):
        for _ in range(200):
            rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
            for settings in ([0.0, 0.0], [np.pi / 2, np.pi / 2], [None, 0.0], [None, np.pi / 2]):
                assert measure_probs(rho, settings) == kron_reference_probs(rho, settings)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_stack_equals_kron_chain_bytewise(self, rng, n_qubits):
        dims = (2,) * n_qubits
        cases = [
            tuple(None if rng.random() < 0.3 else float(rng.uniform(0, np.pi)) for _ in dims)
            for _ in range(100)
        ]
        # both end angles, nothing measured, and one subsystem measured with
        # the rest skipped
        cases += [(0.0,) * n_qubits, (np.pi,) * n_qubits, (None,) * n_qubits]
        for k in range(n_qubits):
            for theta in (0.0, float(rng.uniform(0, np.pi))):
                cases.append(tuple(theta if i == k else None for i in range(n_qubits)))
        for thetas in cases:
            keys, stack = _measurement_ops(dims, thetas)
            ref_keys, ref_stack = kron_reference_ops(dims, thetas)
            assert keys == ref_keys
            assert stack.shape == ref_stack.shape and stack.dtype == ref_stack.dtype
            # byte for byte, so signed zeros count
            assert np.array_equal(stack.view(np.uint8), ref_stack.view(np.uint8)), thetas

    def test_stack_is_read_only(self):
        keys, ops = _measurement_ops((2, 2), (0.0, None))
        assert keys == ((+1,), (-1,))
        assert ops.shape == (2, 4, 4)
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 9.0

    def test_cache_stays_bounded(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 4), (2, 2))
        for theta in rng.uniform(0, np.pi, 1000):
            measure_probs(rho, [float(theta), None])
        assert _measurement_ops.cache_info().currsize <= 256

    def test_verify_misses_only_the_shared_settings(self):
        before = _measurement_ops.cache_info().misses
        selfcheck.run_all(0)
        # the metrics' matched and single-party settings, at most
        assert _measurement_ops.cache_info().misses - before <= 4


class TestStacks:
    def test_density_check_names_first_failing_row(self, rng):
        good = random_density_mat(rng, 4)
        bad = good.copy()
        bad[0, 1] += 0.1
        with pytest.raises(RowError, match="not Hermitian") as info:
            check_density_stack(np.array([good, good, bad, bad]))
        assert info.value.row == 2

    def test_density_trace_check_names_first_failing_row(self):
        with pytest.raises(RowError, match=r"^density matrix trace is \(2\+0j\), expected 1$") as info:
            check_density_stack(np.array([np.eye(2) / 2, np.eye(2), np.eye(2)], dtype=complex))
        assert info.value.row == 1

    def test_density_check_messages_match_single_matrix(self):
        not_psd = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError) as single:
            DensityMatrix(not_psd, (2,))
        with pytest.raises(RowError) as stacked:
            check_density_stack(np.array([np.eye(2) / 2, not_psd]))
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    def test_pure_check_names_first_unnormalized_row(self):
        with pytest.raises(RowError, match=r"\|psi\|\^2 = 2\.0") as info:
            check_pure_stack(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))
        assert info.value.row == 1

    def test_stack_rows_equal_single_matrix_results_exactly(self, rng):
        mats = np.array([random_density_mat(rng, 8) for _ in range(5)])
        reduced, dims = partial_trace_stack(mats, (2, 2, 2), [0, 2])
        keys, probs = measure_probs_stack(reduced, dims, [0.3, None])
        assert dims == (2, 2)
        for n, m in enumerate(mats):
            single = partial_trace(DensityMatrix(m, (2, 2, 2)), [0, 2])
            assert np.array_equal(reduced[n], single.mat)
            assert dict(zip(keys, probs[n].tolist())) == measure_probs(single, [0.3, None])

    def test_empty_stack_gives_no_rows(self):
        keys, probs = measure_probs_stack(np.zeros((0, 4, 4), dtype=complex), (2, 2), [0.0, 0.3])
        assert len(keys) == 4 and probs.shape == (0, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mats, dims",
        [(np.zeros((2, 8, 8)), (2, 2)), (np.eye(8)[None] / 8, (2, 2)),
         (np.zeros((8, 8)), (2, 2, 2)), (np.zeros((2, 4, 8)), (2, 2))],
        ids=["too-wide", "too-wide-one-row", "no-row-axis", "not-square"],
    )
    def test_stack_of_wrong_width_rejected_naming_dims_and_shape(self, mats, dims):
        message = re.escape(f"stack of shape {mats.shape} does not hold") + ".*" + re.escape(f"{dims}")
        with pytest.raises(ValueError, match=message):
            partial_trace_stack(mats, dims, [0])
        with pytest.raises(ValueError, match=message):
            measure_probs_stack(mats, dims, [0.0] * len(dims))


def same_bytes(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


def reference_partial_trace(mats, dims, keep):
    """One ``np.trace`` per traced subsystem, last subsystem first."""
    dims = list(dims)
    tensor = mats.reshape([len(mats)] + dims * 2)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=ax + 1, axis2=ax + 1 + len(dims))
        dims.pop(ax)
    d = int(np.prod(dims))
    return tensor.reshape(len(mats), d, d)


@pytest.fixture(scope="module")
def trace_stacks():
    """``(N, d, d)`` stacks for d = 2, 4 and 8 at N = 101 and N = 1, and under
    ``"pure"`` the ``(N, 8)`` amplitudes of the pure ones.  d = 3, 16 and 128
    hold random states only, at N = 101 (N = 5 for d = 128) and N = 1.

    The SG and SWITCH/SWAP grids over [0, pi/2] hold exact zeros and -0.0
    (at phi = 0 and pi/2 above all); the random states hold generic floats.
    Two-qubit stacks are the pair reductions, one-qubit stacks the single
    reductions, each taken by the reference partial trace.
    """
    rng = np.random.default_rng(2024)
    phis = np.linspace(0.0, np.pi / 2, 101)
    pure = [scenario_amplitudes("SG", phis), scenario_amplitudes("SWITCH", phis, "SWAP")]
    states = [amps[:, :, None] * amps.conj()[:, None, :] for amps in pure]
    states.append(np.array([random_density_mat(rng, 8) for _ in range(101)]))
    stacks = {8: states, 4: [], 2: [], "pure": pure}
    for rho in states:
        for keep in ((0, 1), (0, 2), (1, 2)):
            stacks[4].append(reference_partial_trace(rho, (2, 2, 2), keep))
        for keep in ((0,), (1,), (2,)):
            stacks[2].append(reference_partial_trace(rho, (2, 2, 2), keep))
    for d in stacks:
        # N = 1: the first and last row of each stack (phi = 0 and pi/2 on the grids)
        stacks[d] += [m[i : i + 1] for m in stacks[d] for i in (0, 100)]
    other = np.random.default_rng(2025)
    for d, n in ((3, 101), (16, 101), (128, 5)):
        mats = np.array([random_density_mat(other, d) for _ in range(n)])
        stacks[d] = [mats, mats[:1], mats[-1:]]
    return stacks


def operator_stacks(d, k, rng):
    """``(K, d, d)`` stacks: Pauli strings (entries 0, +-1, +-1j) when d is a power of two,
    and dense random matrices."""
    paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
    stacks = []
    if d & (d - 1) == 0:
        strings = []
        for _ in range(k):
            op = np.eye(1, dtype=complex)
            for p in rng.integers(0, 4, int(np.log2(d))):
                op = np.kron(op, paulis[p])
            strings.append(op)
        stacks.append(np.array(strings))
    dense = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    return stacks + [dense]


class TestTraceKernels:
    """The stacked-trace kernels reproduce the floats of ``np.trace`` byte for byte."""

    @pytest.mark.parametrize("d", [2, 4, 8, 3, 16, 128])
    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_expectations_equal_broadcast_trace(self, trace_stacks, d, k):
        rng = np.random.default_rng(d * 100 + k)
        for ops in operator_stacks(d, k, rng):
            for mats in trace_stacks[d]:
                want = np.trace(mats[:, None] @ ops[None], axis1=2, axis2=3).real
                assert same_bytes(expectations(mats, ops), want)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 128])
    def test_real_stack_gives_the_bytes_of_its_complex_cast(self, d):
        # a real stack meets the complex operators, or at d = 4 their real parts
        rng = np.random.default_rng(d)
        for ops in operator_stacks(d, 9, rng):
            for n in (1, 5):
                mats = rng.normal(size=(n, d, d))
                assert same_bytes(expectations(mats, ops), expectations(mats.astype(complex), ops))

    def test_expectations_on_metric_operators(self, trace_stacks):
        pauli_pairs = np.array([np.kron(a, b) for a in (PAULI_X, PAULI_Y, PAULI_Z)
                                for b in (PAULI_X, PAULI_Y, PAULI_Z)])
        for mats in trace_stacks[4]:
            for ops in (pauli_pairs, _measurement_ops((2, 2), (0.0, 0.0))[1],
                        _measurement_ops((2, 2), (np.pi / 2, np.pi / 2))[1]):
                want = np.trace(mats[:, None] @ ops[None], axis1=2, axis2=3).real
                assert same_bytes(expectations(mats, ops), want)

    @pytest.mark.parametrize("d", [4, 8])
    def test_partial_traces_equal_np_trace(self, trace_stacks, d):
        dims = (2,) * int(np.log2(d))
        keeps = [(0,), (1,)] if d == 4 else [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        for mats in trace_stacks[d]:
            for keep in keeps:
                got, _ = partial_trace_stack(mats, dims, keep)
                assert same_bytes(got, reference_partial_trace(mats, dims, keep))

    def test_amplitude_pairs_equal_np_trace_of_the_outer_products(self, trace_stacks):
        # the grid amplitudes are real, and reduce in real arithmetic to the real
        # parts of np.trace; a global phase makes them complex, as the trace is
        for real in trace_stacks["pure"]:
            for amps in (real, real * np.exp(0.7j)):
                states = amps[:, :, None] * amps.conj()[:, None, :]
                want = np.concatenate([reference_partial_trace(states, (2, 2, 2), keep)
                                       for keep in ((0, 1), (0, 2), (1, 2))])
                if amps is real:
                    assert not want.imag.any()
                    want = want.real
                assert same_bytes(_pair_stack(amps), want)

    def test_negative_zero_amplitudes_give_positive_zero_pairs(self):
        # all -0.0, and -0.0 beside +0.0, whose products can be -0.0: np.trace
        # adds from +0.0, so every entry comes out +0.0
        amps = np.full((2, 8), complex(-0.0, -0.0))
        amps[1, 4:] = 0.0
        pairs = _pair_stack(amps)
        assert pairs.shape == (6, 4, 4)
        assert not np.signbit(pairs.view(float)).any()

    @pytest.mark.parametrize("d", [2, 4])
    def test_expectations_reject_operators_per_row(self, rng, d):
        mats = np.array([random_density_mat(rng, d) for _ in range(2)])
        with pytest.raises(ValueError, match=r"operators must be one \(2, \d, \d\) stack"):
            expectations(mats, np.array([[np.eye(d)] * 2] * 2, dtype=complex))

    def test_all_negative_zero_diagonal_sums_to_positive_zero(self):
        mats = np.full((3, 4, 4), complex(-0.0, -0.0))
        assert not np.signbit(expectations(mats, mats[:1])).any()
