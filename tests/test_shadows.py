import numpy as np
import pytest
from oracles import dense_mitigated_shadow, dense_shadow

from xshadow.bitspace import BitString
from xshadow.exceptions import (
    CapabilityError,
    NotInformationallyCompleteError,
    UnmitigatableComponentError,
)
from xshadow.noise import independent_flip_model
from xshadow.qsim import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Correlator,
    Direction,
    MeasurementSetting,
    direction_from_label,
    pauli_directions,
    pauli_operator,
)
from xshadow.shadows import (
    XiTable,
    compute_xi,
    fourier_shadow_trace,
    kappa,
    mitigated_shade,
    unmitigated_shade,
)


@pytest.fixture(scope="module")
def pauli_xi():
    return compute_xi(pauli_directions())


def _tilted_directions():
    s = 1 / np.sqrt(2)
    return (
        Direction("a", (1.0, 0.0, 0.0)),
        Direction("b", (0.0, s, s)),
        Direction("c", (0.0, 0.0, 1.0)),
        Direction("d", (0.0, 1.0, 0.0)),
    )


class TestComputeXi:
    def test_pauli_set_gives_three_sigma(self, pauli_xi):
        assert np.allclose(pauli_xi.xi("x"), 3 * SIGMA_X, atol=1e-10)
        assert np.allclose(pauli_xi.xi("y"), 3 * SIGMA_Y, atol=1e-10)
        assert np.allclose(pauli_xi.xi("z"), 3 * SIGMA_Z, atol=1e-10)

    def test_half_overlap_is_three_delta_for_pauli(self, pauli_xi):
        for nu in "xyz":
            for mu in pauli_directions():
                expected = 3.0 if nu == mu.label else 0.0
                assert pauli_xi.half_overlap(nu, mu) == pytest.approx(expected, abs=1e-10)

    def test_incomplete_set_rejected(self):
        x, y, _ = pauli_directions()
        with pytest.raises(NotInformationallyCompleteError):
            compute_xi((x, y))

    def test_overcomplete_set_reconstructs_frame(self):
        directions = _tilted_directions()
        xi = compute_xi(directions)
        # least-squares frame condition: mean over the set of the two
        # outcome shadows weighted by Born probabilities reproduces any state
        rng = np.random.default_rng(4)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rho = (np.eye(2) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2
        recon = np.zeros((2, 2), dtype=complex)
        for d in directions:
            d_sigma = pauli_operator(d)
            for s in (0, 1):
                sign = 1 - 2 * s
                effect = (np.eye(2) + sign * d_sigma) / 2
                prob = np.trace(effect @ rho).real / len(directions)
                shadow = (np.eye(2) + sign * xi.xi(d.label)) / 2
                recon += prob * shadow
        assert np.allclose(recon, rho, atol=1e-9)

    def test_xi_operators_are_traceless_hermitian(self):
        xi = compute_xi(_tilted_directions())
        for d in xi.directions:
            op = xi.xi(d.label)
            assert abs(np.trace(op)) < 1e-10
            assert np.allclose(op, op.conj().T, atol=1e-10)


class TestKappa:
    def test_pauli_value(self, pauli_xi):
        assert kappa(pauli_xi, pauli_directions()) == pytest.approx(3.0, abs=1e-9)

    def test_empty_observables_rejected(self, pauli_xi):
        with pytest.raises(ValueError):
            kappa(pauli_xi, ())


class TestShades:
    def test_unmitigated_frozen_value(self, pauli_xi):
        z = direction_from_label("z")
        setting = MeasurementSetting((z, z))
        c = Correlator(BitString(2, 0b01), {0: z})
        assert unmitigated_shade(pauli_xi, setting, BitString(2, 0b00), c) == pytest.approx(3.0)
        assert unmitigated_shade(pauli_xi, setting, BitString(2, 0b01), c) == pytest.approx(-3.0)

    def test_unmitigated_mismatched_direction_vanishes(self, pauli_xi):
        z = direction_from_label("z")
        x = direction_from_label("x")
        setting = MeasurementSetting((x, z))
        c = Correlator(BitString(2, 0b01), {0: z})
        assert unmitigated_shade(pauli_xi, setting, BitString(2, 0b00), c) == pytest.approx(0.0)

    def test_mitigated_frozen_value(self, pauli_xi):
        z = direction_from_label("z")
        setting = MeasurementSetting((z,))
        c = Correlator(BitString(1, 1), {0: z})
        value = mitigated_shade(pauli_xi, setting, BitString(1, 1), c, g_v=0.8)
        assert value == pytest.approx(-3.75)

    def test_mitigated_equals_unmitigated_at_unit_g(self, pauli_xi):
        rng = np.random.default_rng(8)
        dirs = pauli_directions()
        for _ in range(20):
            setting = MeasurementSetting(tuple(dirs[i] for i in rng.integers(0, 3, 3)))
            outcome = BitString(3, int(rng.integers(0, 8)))
            pattern = BitString(3, int(rng.integers(1, 8)))
            c = Correlator(pattern, {q: dirs[rng.integers(0, 3)] for q in pattern.support()})
            assert mitigated_shade(pauli_xi, setting, outcome, c, g_v=1.0) == pytest.approx(
                unmitigated_shade(pauli_xi, setting, outcome, c), abs=1e-12
            )

    def test_g_floor_guard(self, pauli_xi):
        z = direction_from_label("z")
        c = Correlator(BitString(1, 1), {0: z})
        with pytest.raises(UnmitigatableComponentError):
            mitigated_shade(pauli_xi, MeasurementSetting((z,)), BitString(1, 0), c, g_v=1e-9)


class TestFourierShadowTrace:
    def test_diagonal_value(self, pauli_xi):
        z = direction_from_label("z")
        x = direction_from_label("x")
        setting = MeasurementSetting((z, x))
        c = Correlator(BitString(2, 0b11), {0: z, 1: x})
        # both qubits contribute tr(3 sigma * sigma) = 6
        value = fourier_shadow_trace(pauli_xi, setting, BitString(2, 0b11), c)
        assert value == pytest.approx(36.0)

    def test_off_pattern_components_vanish(self, pauli_xi):
        z = direction_from_label("z")
        setting = MeasurementSetting((z, z))
        c = Correlator(BitString(2, 0b01), {0: z})
        for w in (0b00, 0b10, 0b11):
            assert fourier_shadow_trace(
                pauli_xi, setting, BitString(2, w), c
            ) == pytest.approx(0.0, abs=1e-12)


class TestDenseRoutes:
    def test_single_qubit_shadow_eigenvalues(self, pauli_xi):
        z = direction_from_label("z")
        shadow = dense_shadow(pauli_xi, MeasurementSetting((z,)), BitString(1, 0))
        eigs = sorted(np.linalg.eigvalsh(shadow))
        assert eigs[0] == pytest.approx(-1.0, abs=1e-10)
        assert eigs[1] == pytest.approx(2.0, abs=1e-10)

    def test_dense_matches_factorized_shade(self, pauli_xi):
        rng = np.random.default_rng(12)
        dirs = pauli_directions()
        for _ in range(25):
            setting = MeasurementSetting(tuple(dirs[i] for i in rng.integers(0, 3, 3)))
            outcome = BitString(3, int(rng.integers(0, 8)))
            pattern = BitString(3, int(rng.integers(1, 8)))
            c = Correlator(pattern, {q: dirs[rng.integers(0, 3)] for q in pattern.support()})
            op = np.ones((1, 1), dtype=complex)
            for qubit in range(2, -1, -1):
                factor = pauli_operator(c.observables[qubit]) if pattern.bit(qubit) else np.eye(2)
                op = np.kron(op, factor)
            dense = np.trace(dense_shadow(pauli_xi, setting, outcome) @ op).real
            assert dense == pytest.approx(
                unmitigated_shade(pauli_xi, setting, outcome, c), abs=1e-10
            )

    def test_identity_noise_mitigated_equals_plain(self, pauli_xi):
        z = direction_from_label("z")
        x = direction_from_label("x")
        setting = MeasurementSetting((z, x))
        table = independent_flip_model(2, 0.0, 0.0).twirled_table()
        for value in range(4):
            outcome = BitString(2, value)
            assert np.allclose(
                dense_mitigated_shadow(pauli_xi, setting, outcome, table),
                dense_shadow(pauli_xi, setting, outcome),
                atol=1e-10,
            )

    def test_dense_cap(self, pauli_xi):
        z = direction_from_label("z")
        setting = MeasurementSetting((z,) * 5)
        with pytest.raises(CapabilityError):
            dense_shadow(pauli_xi, setting, BitString(5, 0))

    def test_mitigated_shadow_unbiased_under_noise(self, pauli_xi):
        # average over noisy outcomes of the mitigated shadow = plain shadow average
        z = direction_from_label("z")
        x = direction_from_label("x")
        setting = MeasurementSetting((z, x))
        table = independent_flip_model(2, 0.1, 0.1).twirled_table()
        for ideal in range(4):
            plain = dense_shadow(pauli_xi, setting, BitString(2, ideal))
            averaged = np.zeros((4, 4), dtype=complex)
            for observed in range(4):
                averaged += table[ideal ^ observed] * dense_mitigated_shadow(
                    pauli_xi, setting, BitString(2, observed), table
                )
            assert np.allclose(averaged, plain, atol=1e-9)


class TestXiTableValidation:
    def test_rejects_traceful_operator(self):
        d = direction_from_label("z")
        with pytest.raises(ValueError):
            XiTable((d,), {"z": np.eye(2, dtype=complex)})
