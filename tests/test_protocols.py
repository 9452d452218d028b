import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    born_outcomes,
    independent_model_values,
    parity_counts,
    sorted_shade_cells,
    support_shades,
)

from xshadow import protocols
from xshadow.bitspace import BitString, walsh_transform
from xshadow.exceptions import (
    CapabilityError,
    SingularNoiseError,
    UnmitigatableComponentError,
)
from xshadow.noise import crosstalk_model, independent_flip_model
from xshadow.protocols import (
    CalibrationDataset,
    TomographyDataset,
    calibration_sample_bound,
    estimate_correlator_independent_model,
    estimate_correlator_mitigated,
    estimate_correlator_unmitigated,
    estimate_g,
    median_of_means,
    pack_bits,
    random_correlators,
    run_calibration,
    run_tomography,
    tomography_sample_bound,
    unpack_bits,
)
from xshadow.qsim import (
    Correlator,
    Direction,
    StateVector,
    direction_from_label,
    exact_expectation,
    pauli_directions,
    random_circuit_state,
    rotation_gate,
)
from xshadow.shadows import compute_xi
from xshadow.storage import write_tomography


@pytest.fixture(scope="module")
def pauli_xi():
    return compute_xi(pauli_directions())


def _noiseless(n):
    return independent_flip_model(n, 0.0, 0.0)


class TestBitPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(50, 6), dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 6), bits)

    def test_column_zero_is_lsb(self):
        bits = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8)
        assert np.array_equal(pack_bits(bits), [1, 4])


class TestDatasets:
    def test_calibration_shape_validation(self):
        with pytest.raises(ValueError):
            CalibrationDataset(3, np.zeros((5, 2), dtype=np.uint8))

    def test_calibration_record(self):
        ds = CalibrationDataset(3, np.array([[1, 0, 1]], dtype=np.uint8))
        assert ds.record(0) == BitString.from_text("101")

    def test_tomography_validation(self):
        z = direction_from_label("z")
        with pytest.raises(ValueError):
            TomographyDataset(
                2,
                (z,),
                np.array([[0, 1]], dtype=np.uint8),  # index 1 outside the set
                np.zeros((1, 2), dtype=np.uint8),
            )
        with pytest.raises(ValueError):
            TomographyDataset(
                2,
                (z,),
                np.zeros((2, 2), dtype=np.uint8),
                np.zeros((1, 2), dtype=np.uint8),
            )

    def test_arrays_are_column_major(self):
        rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)  # row-major, wider int
        cal = CalibrationDataset(3, rows)
        tomo = TomographyDataset(3, pauli_directions(), rows, rows)
        collected = (
            run_calibration(_noiseless(3), 10, seed=0),
            run_tomography(random_circuit_state(3, 2, seed=0), pauli_directions(),
                           _noiseless(3), 10, seed=0),
        )
        arrays = [cal.outcomes, tomo.setting_indices, tomo.outcomes, collected[0].outcomes,
                  collected[1].setting_indices, collected[1].outcomes]
        for array in arrays:
            assert array.dtype == np.uint8 and array.flags.f_contiguous
        assert cal.record(1) == BitString.from_text("110")

    def test_tomography_record(self):
        x = direction_from_label("x")
        z = direction_from_label("z")
        ds = TomographyDataset(
            2,
            (x, z),
            np.array([[1, 0]], dtype=np.uint8),
            np.array([[0, 1]], dtype=np.uint8),
        )
        setting, outcome = ds.record(0)
        assert tuple(d.label for d in setting.directions) == ("z", "x")
        assert outcome.to_text() == "10"


class TestRunCalibration:
    def test_identity_noise_cancels_to_zero(self):
        data = run_calibration(_noiseless(3), shots=200, seed=4)
        assert len(data) == 200
        assert not data.outcomes.any()

    def test_deterministic(self):
        a = run_calibration(crosstalk_model(3, 0.1, 0.05, 0.4), 500, seed=7)
        b = run_calibration(crosstalk_model(3, 0.1, 0.05, 0.4), 500, seed=7)
        c = run_calibration(crosstalk_model(3, 0.1, 0.05, 0.4), 500, seed=8)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_estimate_g_identity_is_exactly_one(self):
        data = run_calibration(_noiseless(2), 100, seed=0)
        for w in range(4):
            assert estimate_g(data, BitString(2, w)) == 1.0

    @pytest.mark.parametrize("w_value", [0b001, 0b011, 0b111])
    def test_estimate_g_matches_exact_spectrum(self, w_value):
        model = crosstalk_model(3, 0.07, 0.05, 0.5)
        shots = 200000
        data = run_calibration(model, shots, seed=11)
        w = BitString(3, w_value)
        truth = walsh_transform(model.twirled_table())[w.value]
        # variance of a +-1 mean
        tol = 4 * np.sqrt((1 - truth**2) / shots)
        assert estimate_g(data, w) == pytest.approx(truth, abs=tol)

    def test_empty_support_component(self):
        data = run_calibration(_noiseless(2), 50, seed=1)
        assert estimate_g(data, BitString(2, 0)) == 1.0

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), records=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_spectrum_equals_per_wavevector_parity_means(self, n, records, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(records, n), dtype=np.uint8)
        cal = CalibrationDataset(n, bits)
        g = protocols._parity_sums(cal) / records
        for w in range(1 << n):
            assert g[w] == parity_counts(cal, BitString(n, w)) @ [1.0, -1.0] / records

    def test_spectrum_above_the_qubit_cap_is_a_capability_error(self):
        cal = CalibrationDataset(13, np.zeros((4, 13), dtype=np.uint8))
        with pytest.raises(CapabilityError):
            estimate_g(cal, BitString(13, 1))


class TestRunTomography:
    def test_identity_noise_z_only_reproduces_state(self):
        # |10> measured in the z basis always reads 10, twirl included
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        z = direction_from_label("z")
        data = run_tomography(state, (z,), _noiseless(2), 300, seed=3)
        assert np.array_equal(
            data.outcomes, np.tile(np.array([0, 1], dtype=np.uint8), (300, 1))
        )
        assert not data.setting_indices.any()

    def test_deterministic(self):
        state = random_circuit_state(3, 8, seed=0)
        model = crosstalk_model(3, 0.07, 0.05, 0.5)
        a = run_tomography(state, pauli_directions(), model, 400, seed=5)
        b = run_tomography(state, pauli_directions(), model, 400, seed=5)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.setting_indices, b.setting_indices)

    def test_settings_roughly_uniform(self):
        state = random_circuit_state(2, 4, seed=1)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 30000, seed=2)
        counts = np.bincount(data.setting_indices.ravel(), minlength=3) / (30000 * 2)
        assert np.allclose(counts, 1 / 3, atol=4 * np.sqrt((1 / 3) * (2 / 3) / 60000))

    def test_rejects_duplicate_labels(self):
        state = random_circuit_state(1, 2, seed=0)
        z = direction_from_label("z")
        with pytest.raises(ValueError):
            run_tomography(state, (z, z), _noiseless(1), 10, seed=0)

    def test_directions_beyond_uint8_indices_are_a_capability_error(self):
        vectors = np.random.default_rng(4).normal(size=(300, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
        state = random_circuit_state(2, 3, seed=0)
        data = run_tomography(state, directions[:256], _noiseless(2), 50, seed=1)
        assert len(data) == 50
        with pytest.raises(CapabilityError):
            run_tomography(state, directions, _noiseless(2), 50, seed=1)
        with pytest.raises(CapabilityError):
            TomographyDataset(
                2, directions, np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 2), dtype=np.uint8)
            )


class TestEstimators:
    def test_mitigated_equals_unmitigated_without_noise(self, pauli_xi):
        state = random_circuit_state(2, 6, seed=4)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 2000, seed=6)
        cal = run_calibration(_noiseless(2), 1000, seed=7)
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b10), {1: z})
        mit = estimate_correlator_mitigated(data, cal, c, pauli_xi, bootstrap_seed=1)
        unm = estimate_correlator_unmitigated(data, c, pauli_xi, bootstrap_seed=1)
        assert mit.estimate == pytest.approx(unm.estimate, abs=1e-12)
        assert mit.stderr == pytest.approx(unm.stderr, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mitigated_recovers_truth_under_noise(self, pauli_xi, seed):
        state = random_circuit_state(2, 8, seed=seed)
        model = independent_flip_model(2, 0.12, 0.08)
        data = run_tomography(state, pauli_directions(), model, 60000, seed=seed + 10)
        cal = run_calibration(model, 60000, seed=seed + 20)
        x = direction_from_label("x")
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: z, 1: x})
        truth = exact_expectation(state, c)
        mit = estimate_correlator_mitigated(data, cal, c, pauli_xi, bootstrap_seed=3)
        assert mit.estimate == pytest.approx(truth, abs=5 * mit.stderr)

    def test_indep_model_recovers_truth_when_model_is_right(self, pauli_xi):
        state = random_circuit_state(2, 8, seed=2)
        model = independent_flip_model(2, [0.1, 0.05], [0.02, 0.07])
        data = run_tomography(state, pauli_directions(), model, 60000, seed=30)
        y = direction_from_label("y")
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: y, 1: z})
        truth = exact_expectation(state, c)
        ind = estimate_correlator_independent_model(
            data, c, pauli_xi, [0.1, 0.05], [0.02, 0.07], bootstrap_seed=4
        )
        assert ind.estimate == pytest.approx(truth, abs=5 * ind.stderr)

    def test_g_floor(self, pauli_xi):
        state = random_circuit_state(2, 4, seed=3)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 500, seed=8)
        # qubit 0 reads 0 and 1 equally often: ghat(01) = 0
        cal = CalibrationDataset(2, np.array([[0, 0], [1, 0], [0, 1], [1, 1]] * 25))
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b01), {0: z})
        with pytest.raises(UnmitigatableComponentError, match="below floor"):
            estimate_correlator_mitigated(data, cal, c, pauli_xi)

    def test_mitigation_rejects_a_pattern_of_another_size(self, pauli_xi):
        cal = run_calibration(_noiseless(2), 20, seed=2)
        data = run_tomography(random_circuit_state(2, 2, seed=0), pauli_directions(),
                              _noiseless(2), 20, seed=3)
        z = direction_from_label("z")
        for n in (1, 3):
            c = Correlator(BitString(n, 1 << (n - 1)), {n - 1: z})
            with pytest.raises(ValueError, match=f"pattern has {n} bits, spectrum has 4 entries"):
                estimate_correlator_mitigated(data, cal, c, pauli_xi)

    def test_indep_model_rejects_singular_rates(self, pauli_xi):
        state = random_circuit_state(2, 4, seed=7)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 100, seed=60)
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: z, 1: z})
        with pytest.raises(SingularNoiseError, match="qubit 1"):
            estimate_correlator_independent_model(data, c, pauli_xi, [0.1, 0.3], [0.1, 0.7])

    def test_bootstrap_is_seeded(self, pauli_xi):
        state = random_circuit_state(2, 4, seed=6)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 1000, seed=50)
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b01), {0: z})
        a = estimate_correlator_unmitigated(data, c, pauli_xi, bootstrap_seed=2)
        b = estimate_correlator_unmitigated(data, c, pauli_xi, bootstrap_seed=2)
        c2 = estimate_correlator_unmitigated(data, c, pauli_xi, bootstrap_seed=3)
        assert a.stderr == b.stderr
        assert a.stderr != c2.stderr


def _tilted_directions():
    s = 1 / np.sqrt(2)
    return (
        Direction("a", (1.0, 0.0, 0.0)),
        Direction("b", (0.0, s, s)),
        Direction("c", (0.0, 0.0, 1.0)),
        Direction("d", (0.0, 1.0, 0.0)),
    )


class TestCountTableKernel:
    """The estimators bin records into (setting, bit) cells of the support;
    the per-record oracles in tests/oracles.py skip the binning."""

    P10, P01 = 0.08, 0.04

    @pytest.fixture(scope="class")
    def noisy_data(self):
        n = 4
        model = crosstalk_model(n, self.P10, self.P01, 0.5)
        state = random_circuit_state(n, 8, seed=21)
        cal = run_calibration(model, 20000, seed=22)
        sets = {"pauli": pauli_directions(), "tilted": _tilted_directions()}
        tomos = {
            name: run_tomography(state, directions, model, 20000, seed=23)
            for name, directions in sets.items()
        }
        return cal, tomos

    @pytest.mark.parametrize("direction_set", ["pauli", "tilted"])
    def test_point_estimates_equal_per_record_means(self, noisy_data, direction_set):
        cal, tomos = noisy_data
        tomo = tomos[direction_set]
        xi = compute_xi(tomo.directions)
        for c in random_correlators(4, [1, 2, 3, 4], 3, seed=24, directions=tomo.directions):
            shades = support_shades(tomo, c, xi)
            g_hat = estimate_g(cal, c.pattern)
            mit = estimate_correlator_mitigated(tomo, cal, c, xi, bootstrap_resamples=2)
            unm = estimate_correlator_unmitigated(tomo, c, xi, bootstrap_resamples=2)
            ind = estimate_correlator_independent_model(
                tomo, c, xi, self.P10, self.P01, bootstrap_resamples=2
            )
            assert mit.estimate == pytest.approx(np.mean(shades / g_hat), abs=1e-12)
            assert unm.estimate == pytest.approx(np.mean(shades), abs=1e-12)
            expected = np.mean(independent_model_values(tomo, c, xi, self.P10, self.P01))
            assert ind.estimate == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_stderr_matches_sample_sd(self, noisy_data, pauli_xi):
        cal, tomos = noisy_data
        tomo = tomos["pauli"]
        for c in random_correlators(4, [1, 2, 3], 2, seed=25):
            shades = support_shades(tomo, c, pauli_xi)
            g_hat = estimate_g(cal, c.pattern)
            for report, per_record in (
                (estimate_correlator_unmitigated(tomo, c, pauli_xi), shades),
                (estimate_correlator_mitigated(tomo, cal, c, pauli_xi), shades / g_hat),
            ):
                plain_se = np.std(per_record, ddof=1) / np.sqrt(len(tomo))
                assert report.resamples == 200
                assert report.stderr == pytest.approx(plain_se, rel=0.2)

    def test_blocked_draws_keep_the_stream(self, noisy_data, pauli_xi, monkeypatch):
        _, tomos = noisy_data
        c = random_correlators(4, [3], 1, seed=26)[0]
        whole = estimate_correlator_unmitigated(tomos["pauli"], c, pauli_xi, bootstrap_seed=9)
        monkeypatch.setattr(protocols, "_DRAW_BLOCK", 1000)  # a few resamples per block
        blocked = estimate_correlator_unmitigated(tomos["pauli"], c, pauli_xi, bootstrap_seed=9)
        assert blocked == whole

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 4))
    def test_estimates_ignore_record_order(self, noisy_data, seed, degree):
        cal, tomos = noisy_data
        tomo = tomos["tilted"]
        xi = compute_xi(tomo.directions)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(tomo))
        shuffled = TomographyDataset(
            tomo.n, tomo.directions, tomo.setting_indices[order], tomo.outcomes[order]
        )
        shuffled_cal = CalibrationDataset(cal.n, cal.outcomes[rng.permutation(len(cal))])
        c = random_correlators(4, [degree], 1, seed=seed, directions=tomo.directions)[0]
        kw = {"bootstrap_resamples": 20, "bootstrap_seed": seed}
        for estimate in (
            lambda t, k: estimate_correlator_mitigated(t, k, c, xi, **kw),
            lambda t, k: estimate_correlator_unmitigated(t, c, xi, **kw),
            lambda t, k: estimate_correlator_independent_model(
                t, c, xi, self.P10, self.P01, **kw
            ),
        ):
            assert estimate(shuffled, shuffled_cal) == estimate(tomo, cal)

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 8),
        direction_set=st.sampled_from(["pauli", "tilted"]),
        records=st.integers(1, 400),
        degree_draw=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    # one example on each side of the bincount rule: 6^2 <= 300 < 6^4
    @example(n=4, direction_set="pauli", records=300, degree_draw=1, seed=1)
    @example(n=4, direction_set="pauli", records=300, degree_draw=3, seed=1)
    def test_cells_equal_the_sorted_int64_route(
        self, n, direction_set, records, degree_draw, seed
    ):
        directions = pauli_directions() if direction_set == "pauli" else _tilted_directions()
        xi = compute_xi(directions)
        rng = np.random.default_rng(seed)
        data = TomographyDataset(
            n,
            directions,
            rng.integers(0, len(directions), size=(records, n), dtype=np.uint8),
            rng.integers(0, 2, size=(records, n), dtype=np.uint8),
        )
        degree = 1 + degree_draw % n
        c = random_correlators(n, [degree], 1, seed=seed, directions=directions)[0]
        counts, shades = protocols._shade_cells(data, c, xi)
        expected_counts, expected_shades = sorted_shade_cells(data, c, xi)
        assert counts.dtype == expected_counts.dtype and shades.dtype == expected_shades.dtype
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(shades, expected_shades)

    def test_cell_code_overflow_is_a_capability_error(self, pauli_xi):
        # 6 cells per qubit: a 24-qubit code fits in int64, a 25-qubit one does not
        n = 25
        z = direction_from_label("z")
        data = TomographyDataset(
            n,
            pauli_directions(),
            np.full((3, n), 2, dtype=np.uint8),
            np.zeros((3, n), dtype=np.uint8),
        )
        fits = Correlator(BitString(n, (1 << 24) - 1), {q: z for q in range(24)})
        report = estimate_correlator_unmitigated(data, fits, pauli_xi, bootstrap_resamples=2)
        assert report.estimate == 3.0**24  # z measured along z: overlap 3, outcome 0
        overflows = Correlator(BitString(n, (1 << 25) - 1), {q: z for q in range(25)})
        with pytest.raises(CapabilityError):
            estimate_correlator_unmitigated(data, overflows, pauli_xi)


def _born_case(n, direction_set, shots, seed):
    """A random state, a (shots, n) setting matrix, the gates and one
    variate per shot; the first and last variates sit at the ends of [0, 1)."""
    rng = np.random.default_rng(seed)
    if direction_set == "pauli":
        directions = pauli_directions()
    elif direction_set == "tilted":
        directions = _tilted_directions()
    else:
        vectors = rng.normal(size=(int(direction_set[-1]), 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
    state = random_circuit_state(n, 2 * n, seed=seed)
    setting_matrix = np.asfortranarray(
        rng.integers(0, len(directions), size=(shots, n), dtype=np.uint8)
    )
    gates = np.array([rotation_gate(d) for d in directions])
    u = rng.random(shots)
    u[0], u[-1] = 0.0, np.nextafter(1.0, 0.0)
    return state, directions, setting_matrix, gates, u


_BORN_CASES = dict(
    n=st.integers(1, 9),
    direction_set=st.sampled_from(["pauli", "tilted", "random3", "random4"]),
    shots=st.integers(1, 400),
    chunk_log2=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)


class TestTreeOutcomes:
    """The tree-descent Born draw against the inverse CDF of the full
    rotated distribution, with chunks of at most 2^chunk_log2 shots so
    that chunk boundaries split shared setting prefixes."""

    @settings(max_examples=60)
    @given(**_BORN_CASES)
    def test_draws_match_inverse_cdf_oracle(self, n, direction_set, shots, chunk_log2, seed):
        state, directions, setting_matrix, gates, u = _born_case(n, direction_set, shots, seed)
        with mock.patch.object(protocols, "_TREE_AMPLITUDES", 1 << (n + chunk_log2)):
            drawn = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, u)
        expected = born_outcomes(state, directions, setting_matrix, u)
        assert drawn.dtype == np.int64
        assert (drawn == expected).all()

    @settings(max_examples=60)
    @given(**_BORN_CASES)
    def test_chunk_size_leaves_draws_unchanged(self, n, direction_set, shots, chunk_log2, seed):
        state, _, setting_matrix, gates, u = _born_case(n, direction_set, shots, seed)
        with mock.patch.object(protocols, "_TREE_AMPLITUDES", 1 << (n + chunk_log2)):
            small = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, u)
        default = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, u)
        assert np.array_equal(small, default)

    def test_many_directions_keep_chunks_small(self):
        # 256 directions at n=3: 2^17-shot chunks held k flags and an int64
        # count per node, an 82 MiB tracemalloc peak at 20,000 shots
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(256, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
        state = random_circuit_state(3, 6, seed=5)
        tracemalloc.start()
        try:
            data = run_tomography(state, directions, _noiseless(3), 20000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 20000
        assert peak < 32 * 2**20


class TestFrozenDatasets:
    """SHA-256 of the written tomography file, pinned so that any change to
    the Born draw (rotation arithmetic, CDF rule, draw order) shows up.
    A moved hash is a behaviour change to investigate, not to re-pin."""

    @pytest.mark.parametrize(
        "n,direction_set,shots,seed,digest",
        [
            (1, "pauli", 3000, 31, "10537dcadce3c3d538f49f970ca1ab20715a8c27ad34bd9f36c47b88b9123d6a"),
            (4, "tilted", 3000, 32, "f00c1dca715684b6751452aeef4ae396f2bebf9c2a4ec5cb7e7af67050612e6a"),
            (5, "pauli", 3000, 33, "11b2b7a12d21cd5e6cac696bc53bc60a3fb1d9222708e511939c634f6958d1ca"),
            (8, "pauli", 3000, 34, "cc08818645fe5963bdc80230a4570495d18c1a4a9896484057f0c41671a23287"),
            (12, "pauli", 2000, 35, "5ea290f707c49407b5214292382b8ca1e288b116467b877822aeb6cbe40dd05a"),
        ],
    )
    def test_written_bytes(self, tmp_path, n, direction_set, shots, seed, digest):
        directions = pauli_directions() if direction_set == "pauli" else _tilted_directions()
        state = random_circuit_state(n, 2 * n, seed=seed)
        model = crosstalk_model(n, 0.07, 0.05, 0.5)
        data = run_tomography(state, directions, model, shots, seed=seed + 100)
        path = tmp_path / "tomography.txt"
        write_tomography(str(path), data)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestMedianOfMeans:
    def test_single_group_is_mean(self):
        assert median_of_means([1.0, 2.0, 6.0], 1) == pytest.approx(3.0)

    def test_outlier_resistance(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 100.0, 0.0])
        assert median_of_means(values, 3) == pytest.approx(0.0)
        assert median_of_means(values, 1) == pytest.approx(100.0 / 6)

    def test_group_validation(self):
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            median_of_means([], 1)


class TestSampleBounds:
    def test_frozen_values(self):
        assert calibration_sample_bound(0.1, 0.05) == 11805
        assert tomography_sample_bound(0.1, 0.05, 3.0, 2) == 59760

    def test_g_rescaling(self):
        base = calibration_sample_bound(0.1, 0.05)
        scaled = calibration_sample_bound(0.1, 0.05, g=0.5)
        assert scaled in (4 * base - 3, 4 * base - 2, 4 * base - 1, 4 * base)

    def test_monotone_in_epsilon(self):
        assert calibration_sample_bound(0.05, 0.05) > calibration_sample_bound(0.1, 0.05)
        assert tomography_sample_bound(0.05, 0.05, 3.0, 2) > tomography_sample_bound(
            0.1, 0.05, 3.0, 2
        )

    def test_degree_scaling_is_kappa_squared(self):
        low = tomography_sample_bound(0.1, 0.05, 3.0, 1)
        high = tomography_sample_bound(0.1, 0.05, 3.0, 2)
        assert high / low == pytest.approx(9.0, rel=1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "delta": 0.05},
            {"epsilon": 0.1, "delta": 0.0},
            {"epsilon": 0.1, "delta": 1.0},
            {"epsilon": 0.1, "delta": 0.05, "g": 0.0},
        ],
    )
    def test_calibration_bound_rejects(self, kwargs):
        with pytest.raises(ValueError):
            calibration_sample_bound(**kwargs)

    def test_tomography_bound_rejects(self):
        with pytest.raises(ValueError):
            tomography_sample_bound(0.1, 0.05, 0.5, 2)
        with pytest.raises(ValueError):
            tomography_sample_bound(0.1, 0.05, 3.0, -1)


class TestRandomCorrelators:
    def test_counts_and_degrees(self):
        cs = random_correlators(6, [1, 2, 3], 4, seed=5)
        assert len(cs) == 12
        degrees = [c.degree for c in cs]
        assert degrees == [1] * 4 + [2] * 4 + [3] * 4

    def test_deterministic(self):
        a = random_correlators(5, [2], 3, seed=9)
        b = random_correlators(5, [2], 3, seed=9)
        assert [(c.pattern.value, sorted((q, d.label) for q, d in c.observables.items())) for c in a] == [
            (c.pattern.value, sorted((q, d.label) for q, d in c.observables.items())) for c in b
        ]

    def test_observables_live_on_support(self):
        for c in random_correlators(7, [1, 2, 4], 5, seed=13):
            assert set(c.observables) == set(c.pattern.support())
            assert all(d.label in "xyz" for d in c.observables.values())

    def test_degree_above_n_rejected(self):
        with pytest.raises(ValueError):
            random_correlators(2, [3], 1, seed=0)
