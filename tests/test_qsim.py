import numpy as np
import pytest
from oracles import (
    MeasurementSetting,
    bit,
    ideal_outcome_samples,
    measurement_probabilities,
    tensordot_single_qubit,
)

from xshadow.bitspace import BitString
from xshadow.exceptions import CapabilityError
from xshadow.qsim import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EXACT_SIM_MAX_QUBITS,
    Correlator,
    Direction,
    StateVector,
    apply_single_qubit,
    direction_from_label,
    exact_expectation,
    pauli_directions,
    pauli_operator,
    random_circuit_state,
    rotation_gate,
)


def _random_direction(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Direction("r", tuple(v))


class TestDirection:
    def test_pauli_vectors(self):
        x, y, z = pauli_directions()
        assert x.vector == (1.0, 0.0, 0.0)
        assert y.vector == (0.0, 1.0, 0.0)
        assert z.vector == (0.0, 0.0, 1.0)

    def test_label_lookup(self):
        assert direction_from_label("y").label == "y"
        with pytest.raises(ValueError):
            direction_from_label("q")

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            Direction("bad", (1.0, 1.0, 0.0))

    def test_pauli_operator_matrices(self):
        x, y, z = pauli_directions()
        assert np.array_equal(pauli_operator(x), SIGMA_X)
        assert np.array_equal(pauli_operator(y), SIGMA_Y)
        assert np.array_equal(pauli_operator(z), SIGMA_Z)

    def test_pauli_operator_general_direction(self):
        d = Direction("t", (0.6, 0.0, 0.8))
        assert np.allclose(pauli_operator(d), 0.6 * SIGMA_X + 0.8 * SIGMA_Z)


class TestRotationGate:
    def test_z_gives_identity(self):
        assert np.allclose(rotation_gate(direction_from_label("z")), np.eye(2), atol=1e-12)

    def test_x_gives_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(rotation_gate(direction_from_label("x")), h, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_rotates_projectors_onto_direction(self, seed):
        # defining property: G^dag |s><s| G = (identity + (-1)^s d.sigma)/2
        rng = np.random.default_rng(seed)
        d = _random_direction(rng)
        gate = rotation_gate(d)
        assert np.allclose(gate @ gate.conj().T, np.eye(2), atol=1e-12)
        d_sigma = pauli_operator(d)
        for s in (0, 1):
            proj = np.zeros((2, 2), dtype=complex)
            proj[s, s] = 1.0
            rotated = gate.conj().T @ proj @ gate
            sign = 1 - 2 * s
            assert np.allclose(rotated, (np.eye(2) + sign * d_sigma) / 2, atol=1e-12)


class TestStateVector:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_qubit_cap(self):
        with pytest.raises(CapabilityError):
            StateVector(13, np.zeros(1 << 13))

    def test_random_circuit_is_deterministic(self):
        a = random_circuit_state(3, 8, seed=5)
        b = random_circuit_state(3, 8, seed=5)
        c = random_circuit_state(3, 8, seed=6)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.allclose(a.amplitudes, c.amplitudes)

    def test_depth_zero_is_all_zeros_state(self):
        state = random_circuit_state(2, 0, seed=1)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 7), (4, 12)])
    def test_normalization(self, n, depth):
        state = random_circuit_state(n, depth, seed=3)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestApplySingleQubit:
    def test_equals_the_tensordot_form_bit_for_bit(self):
        """One transposed copy and np.dot(gate, .) make the product that
        np.tensordot makes, so every amplitude is equal, for every n up to
        the simulation cap and every qubit."""
        rng = np.random.default_rng(11)
        for n in range(1, EXACT_SIM_MAX_QUBITS + 1):
            amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            for qubit in range(n):
                direction = _random_direction(rng)
                for gate in (rotation_gate(direction), pauli_operator(direction), SIGMA_Z):
                    applied = apply_single_qubit(amplitudes, gate, qubit, n)
                    assert applied.shape == (1 << n,) and applied.flags.c_contiguous
                    assert np.array_equal(
                        applied, tensordot_single_qubit(amplitudes, gate, qubit, n)
                    )


class TestMeasurement:
    def test_z_basis_on_computational_state(self):
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))  # |10> (qubit 1 set)
        z = direction_from_label("z")
        probs = measurement_probabilities(state, MeasurementSetting((z, z)))
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(probs, expected, atol=1e-12)

    def test_x_basis_on_zero_state(self):
        state = StateVector(1, np.array([1, 0], dtype=complex))
        probs = measurement_probabilities(state, MeasurementSetting((direction_from_label("x"),)))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        state = random_circuit_state(3, 9, seed=2)
        dirs = pauli_directions()
        for labels in [(0, 1, 2), (2, 2, 0), (1, 1, 1)]:
            setting = MeasurementSetting(tuple(dirs[i] for i in labels))
            probs = measurement_probabilities(state, setting)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(probs >= -1e-12)

    def test_sampler_follows_probabilities(self):
        state = random_circuit_state(2, 6, seed=9)
        setting = MeasurementSetting((direction_from_label("x"), direction_from_label("y")))
        probs = measurement_probabilities(state, setting)
        rng = np.random.default_rng(0)
        draws = 20000
        counts = np.bincount(ideal_outcome_samples(state, setting, rng, draws), minlength=4)
        # 4 sigma on each cell
        for s in range(4):
            tol = 4 * np.sqrt(probs[s] * (1 - probs[s]) / draws) + 1e-9
            assert counts[s] / draws == pytest.approx(probs[s], abs=tol)


class TestCorrelator:
    def test_observables_must_match_support(self):
        z = direction_from_label("z")
        with pytest.raises(ValueError):
            Correlator(BitString(3, 0b011), {0: z})
        with pytest.raises(ValueError):
            Correlator(BitString(3, 0b001), {0: z, 2: z})

    def test_degree(self):
        z = direction_from_label("z")
        c = Correlator(BitString(4, 0b1010), {1: z, 3: z})
        assert c.degree == 2
        assert c.n == 4

    def test_expectation_on_computational_state(self):
        # <10| Z1 Z0 |10> = -1 * +1
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: z, 1: z})
        assert exact_expectation(state, c) == pytest.approx(-1.0, abs=1e-12)

    def test_expectation_x_on_zero_state_vanishes(self):
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        x = direction_from_label("x")
        c = Correlator(BitString(2, 0b01), {0: x})
        assert exact_expectation(state, c) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_expectation_matches_dense_matrix(self, seed):
        rng = np.random.default_rng(seed)
        state = random_circuit_state(3, 10, seed=seed + 20)
        pattern = BitString(3, int(rng.integers(1, 8)))
        dirs = pauli_directions()
        observables = {q: dirs[rng.integers(0, 3)] for q in pattern.support()}
        c = Correlator(pattern, observables)
        # independent dense evaluation with explicit kron ordering
        op = np.ones((1, 1), dtype=complex)
        for qubit in range(2, -1, -1):
            factor = pauli_operator(observables[qubit]) if bit(pattern, qubit) else np.eye(2)
            op = np.kron(op, factor)
        psi = state.amplitudes
        dense = np.real(psi.conj() @ op @ psi)
        assert exact_expectation(state, c) == pytest.approx(dense, abs=1e-10)
