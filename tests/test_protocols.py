import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    MeasurementSetting,
    bitstring_from_text,
    born_outcomes,
    cell_codes,
    chain_sample_bits,
    independent_model_values,
    independent_sample_bits,
    measurement_probabilities,
    one_product_resample_means,
    pack_bits,
    parity_counts,
    sorted_shade_cells,
    support_shades,
    twirl_table,
    xi_by_label,
)

from xshadow import noise, protocols
from xshadow.bitspace import BitString, walsh_transform
from xshadow.exceptions import (
    CapabilityError,
    NotInformationallyCompleteError,
    SingularNoiseError,
    UnmitigatableComponentError,
)
from xshadow.noise import ChainCrosstalkModel, IndependentFlipModel
from xshadow.protocols import (
    CalibrationDataset,
    TomographyDataset,
    calibration_sample_bound,
    estimate_correlators,
    g_hat,
    independent_g,
    random_correlators,
    run_calibration,
    run_tomography,
    tomography_sample_bound,
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
from xshadow.storage import write_calibration, write_tomography


@pytest.fixture(scope="module")
def pauli_xi():
    return xi_by_label(pauli_directions())


def _noiseless(n):
    return IndependentFlipModel(n, 0.0, 0.0)


class TestCellCodes:
    """protocols._cell_codes, the one coder of records, against integer
    oracles: outcome values at base 2 and int64 cell codes at base 2k."""

    @settings(max_examples=50)
    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 40), st.just(16)), elements=st.integers(0, 1))
    )
    @example(np.ones((1, 16), dtype=np.uint8))  # the largest value at every width
    def test_outcome_bits_code_to_their_values(self, bits):
        for n in range(1, 17):
            for order in "CF":
                part = np.asarray(bits[:, :n], order=order)
                codes = protocols._cell_codes(part, range(n), 2)
                assert codes.dtype == np.min_scalar_type((1 << n) - 1)
                assert np.array_equal(codes, pack_bits(part))

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 200),
        records=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_support_cells_code_to_the_int64_route(self, n, k, records, seed, data):
        base = 2 * k
        degree = 1
        while degree < n and base ** (degree + 1) < 1 << 63:  # the int64 oracle's range
            degree += 1
        support = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=degree)))
        rng = np.random.default_rng(seed)
        setting_matrix = rng.integers(0, k, size=(records, n), dtype=np.uint8)
        outcomes = rng.integers(0, 2, size=(records, n), dtype=np.uint8)
        digits = 2 * setting_matrix.astype(np.min_scalar_type(base - 1)) + outcomes
        codes = protocols._cell_codes(np.asfortranarray(digits), support, base)
        assert codes.dtype == np.min_scalar_type(base ** len(support) - 1)
        expected = cell_codes(setting_matrix, outcomes, support, base)
        assert np.array_equal(codes.astype(np.int64), expected)


class TestDatasets:
    def test_calibration_shape_validation(self):
        for n, outcomes, message in (
            (3, np.zeros((5, 2), dtype=np.uint8), r"expected an \(M, 3\) array of outcome bits"),
            (3, np.zeros(3, dtype=np.uint8), r"expected an \(M, 3\) array of outcome bits"),
            (3, np.zeros((2, 3, 1), dtype=np.uint8), r"expected an \(M, 3\) array"),
            (0, np.zeros((5, 0), dtype=np.uint8), "n must be >= 1, got 0"),
            (0, np.array([256]), "n must be >= 1, got 0"),  # refused before shape and values
        ):
            with pytest.raises(ValueError, match=message):
                CalibrationDataset(n, outcomes)

    def test_calibration_record(self):
        ds = CalibrationDataset(3, np.array([[1, 0, 1]], dtype=np.uint8))
        assert pack_bits(ds.outcomes[0]) == bitstring_from_text("101").value

    def test_tomography_validation(self):
        z = direction_from_label("z")
        with pytest.raises(ValueError, match=r"record digits must be integers in \[0, 2\)"):
            TomographyDataset(2, (z,), np.array([[0, 2]], dtype=np.uint8))  # setting 1 of 1
        for n, digits, message in (
            (2, np.zeros(2, dtype=np.uint8), r"expected an \(M, 2\) array of record digits"),
            (2, np.zeros((1, 3), dtype=np.uint8), r"expected an \(M, 2\) array of record"),
            (0, np.zeros((5, 0), dtype=np.uint8), "n must be >= 1, got 0"),
            (0, np.array([256]), "n must be >= 1, got 0"),
        ):
            with pytest.raises(ValueError, match=message):
                TomographyDataset(n, (z,), digits)

    @pytest.mark.parametrize(
        "digits",
        [
            [[256, 0]],  # a uint8 cast makes it 0
            [[-1, 0]],  # ... and this 255
            [[6, 0]],  # setting 3 of 3
            [[0.0, 0.0]],
        ],
        ids=["256", "minus-1", "6", "float"],
    )
    def test_out_of_range_digits_are_refused_before_the_cast(self, digits):
        with pytest.raises(ValueError, match=r"record digits must be integers in \[0, 6\)"):
            TomographyDataset(2, pauli_directions(), np.array(digits))

    @pytest.mark.parametrize("bit", [-1, 2, 256])
    def test_out_of_range_calibration_bits_are_refused(self, bit):
        outcomes = np.array([[0, 1], [1, bit]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"outcome bits must be integers in \[0, 2\)"):
            CalibrationDataset(2, outcomes)

    def test_arrays_are_column_major(self):
        rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)  # row-major, wider int
        cal = CalibrationDataset(3, rows)
        tomo = TomographyDataset(3, pauli_directions(), 3 * rows)  # digit 2*bit + bit
        collected = (
            run_calibration(_noiseless(3), 10, seed=0),
            run_tomography(random_circuit_state(3, 2, seed=0), pauli_directions(),
                           _noiseless(3), 10, seed=0),
        )
        arrays = [cal.outcomes, tomo.digits, tomo.setting_indices, tomo.outcomes,
                  collected[0].outcomes, collected[1].digits, collected[1].setting_indices,
                  collected[1].outcomes]
        for array in arrays:
            assert array.dtype == np.uint8 and array.flags.f_contiguous
        assert pack_bits(cal.outcomes[1]) == bitstring_from_text("110").value

    def test_tomography_record(self):
        x = direction_from_label("x")
        z = direction_from_label("z")
        ds = TomographyDataset(2, (x, z), np.array([[2, 1]], dtype=np.uint8))
        assert tuple(ds.directions[i].label for i in ds.setting_indices[0]) == ("z", "x")
        assert BitString(2, int(pack_bits(ds.outcomes[0]))).to_text() == "10"


class TestRunCalibration:
    def test_identity_noise_cancels_to_zero(self):
        data = run_calibration(_noiseless(3), shots=200, seed=4)
        assert len(data) == 200
        assert not data.outcomes.any()

    def test_deterministic(self):
        a = run_calibration(ChainCrosstalkModel(3, 0.1, 0.05, 0.4), 500, seed=7)
        b = run_calibration(ChainCrosstalkModel(3, 0.1, 0.05, 0.4), 500, seed=7)
        c = run_calibration(ChainCrosstalkModel(3, 0.1, 0.05, 0.4), 500, seed=8)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_estimate_g_identity_is_exactly_one(self):
        data = run_calibration(_noiseless(2), 100, seed=0)
        for w in range(4):
            assert data.spectrum[w] == 1.0

    @pytest.mark.parametrize("w_value", [0b001, 0b011, 0b111])
    def test_estimate_g_matches_exact_spectrum(self, w_value):
        model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
        shots = 200000
        data = run_calibration(model, shots, seed=11)
        w = BitString(3, w_value)
        truth = walsh_transform(model.twirled_table())[w.value]
        # variance of a +-1 mean
        tol = 4 * np.sqrt((1 - truth**2) / shots)
        assert data.spectrum[w.value] == pytest.approx(truth, abs=tol)

    def test_empty_support_component(self):
        data = run_calibration(_noiseless(2), 50, seed=1)
        assert data.spectrum[0] == 1.0

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), records=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_spectrum_equals_per_wavevector_parity_means(self, n, records, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(records, n), dtype=np.uint8)
        cal = CalibrationDataset(n, bits)
        g = cal.spectrum
        for w in range(1 << n):
            assert g[w] == parity_counts(cal, BitString(n, w)) @ [1.0, -1.0] / records

    def test_the_outcome_count_holds_one_row_block(self):
        # 200,000 x 12 outcome bits: their codes and np.bincount's intp copy
        # of them, 10 bytes a record, peaked at 1.94 MiB under tracemalloc;
        # counted in row blocks they peak at 0.69 MiB.  A warm-up count runs
        # untraced (numpy's first calls)
        n, records = 12, 200_000
        rng = np.random.default_rng(3)
        CalibrationDataset(n, rng.integers(0, 2, (1000, n))).outcome_counts
        cal = CalibrationDataset(n, rng.integers(0, 2, (records, n)))
        tracemalloc.start()
        try:
            counts = cal.outcome_counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == records
        assert np.array_equal(counts, np.bincount(pack_bits(cal.outcomes), minlength=1 << n))
        assert peak < 8 * records

    def test_spectrum_above_the_qubit_cap_is_a_capability_error(self):
        cal = CalibrationDataset(13, np.zeros((4, 13), dtype=np.uint8))
        with pytest.raises(CapabilityError):
            cal.spectrum

    def test_spectrum_is_built_once_and_read_only(self):
        cal = run_calibration(ChainCrosstalkModel(3, 0.1, 0.05, 0.4), 500, seed=7)
        outcome_counts = CalibrationDataset.outcome_counts
        with mock.patch.object(outcome_counts, "func", wraps=outcome_counts.func) as counts:
            spectrum = cal.spectrum
            assert cal.spectrum is spectrum and g_hat(cal, BitString(3, 0b011)) == spectrum[3]
        assert counts.call_count == 1
        with pytest.raises(ValueError, match="read-only"):
            spectrum[1] = 0.5
        with pytest.raises(ValueError, match="pattern has 2 bits, calibration has 3 qubits"):
            g_hat(cal, BitString(2, 1))


class TestTwirledReadout:
    """The readout step (the twirl's flip pattern, XORed into the ideal
    bits) against the one-call oracle: one (M, n) mask draw, the model's
    oracle sampler on the masked bits, then the XORs, at shot counts
    around noise._BLOCK_ROWS = B."""

    @pytest.mark.parametrize(
        "shots",
        [1, noise._BLOCK_ROWS - 1, noise._BLOCK_ROWS, noise._BLOCK_ROWS + 1,
         2 * noise._BLOCK_ROWS + 3],
        ids=["1", "B-1", "B", "B+1", "2B+3"],
    )
    @pytest.mark.parametrize("n", [1, 3, 5, 12])
    @pytest.mark.parametrize("kind", ["chain", "independent"])
    def test_records_equal_the_one_call_oracle(self, kind, n, shots):
        p10, p01 = np.random.default_rng(n).uniform(0.0, 0.6, (2, n))
        if kind == "chain":
            model, oracle = ChainCrosstalkModel(n, p10, p01, 0.5), chain_sample_bits
        else:
            model, oracle = IndependentFlipModel(n, p10, p01), independent_sample_bits
        drawn = np.random.default_rng(shots).integers(0, 6, (shots, n), dtype=np.uint8)
        zeros = np.broadcast_to(np.uint8(0), (shots, n))  # calibration's ideal bits
        for digits in (None, np.asfortranarray(drawn)):  # ideal bits: zero, or the low bits
            ideal = zeros if digits is None else drawn & 1
            rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
            flips = protocols._twirl_flips(model, shots, rng, digits)
            assert flips.dtype == np.uint8 and flips.flags.f_contiguous
            records = ideal ^ flips
            masks = oracle_rng.integers(0, 2, size=(shots, n), dtype=np.uint8)
            expected = oracle(model, masks ^ ideal, oracle_rng) ^ masks
            assert np.array_equal(records, expected)
            assert rng.random() == oracle_rng.random()  # both drew the same count

    @pytest.mark.parametrize(
        "model,bound",
        [
            (ChainCrosstalkModel(12, 0.07, 0.05, 0.5), 3.5),
            (IndependentFlipModel(12, 0.07, 0.05), 3.5),
        ],
        ids=["chain", "independent"],
    )
    def test_calibration_holds_its_records_and_one_row_block(self, model, bound):
        # 200,000 x 12 records are 2.3 MiB.  Under tracemalloc, a row-major
        # mask, the sampler's copy and its (M,) float64 uniforms or its
        # output copy peaked at 8.1 MiB (chain) and 7.8 MiB (independent);
        # the one array read out in place peaks at 2.6 and 2.7 MiB, as the
        # independent sampler's (2^14 // n, n) blocks of uniforms and rates
        # hold about as many values as a chain block's column (5.4 MiB with
        # blocks of 2^14 rows).  A first call in a process adds 0.6 MiB of
        # numpy's own allocations, so a warm-up call runs untraced
        run_calibration(model, 1000, seed=6)
        tracemalloc.start()
        try:
            data = run_calibration(model, 200_000, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 200_000
        assert peak < bound * 2**20


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
        model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
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

    def test_the_dataset_keeps_one_record_array(self):
        # 50,000 x 10 records: the digits are 0.48 MiB, and the setting and
        # outcome arrays kept side by side were 0.95 MiB under tracemalloc
        n, shots = 10, 50_000
        state, model = random_circuit_state(n, 8, seed=0), ChainCrosstalkModel(n, 0.07, 0.05, 0.5)
        run_tomography(state, pauli_directions(), model, 1000, seed=1)  # numpy's first calls
        tracemalloc.start()
        try:
            data = run_tomography(state, pauli_directions(), model, shots, seed=1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert data.digits.dtype == np.uint8 and data.digits.nbytes == shots * n
        assert kept < shots * n + 2**16

    def test_a_run_holds_its_settings_and_one_array_a_shot(self):
        # 200,000 x 12 records are 2.3 MiB of digits.  With the Born draw's
        # (M, n) bit matrix and the readout's mask beside the settings, a
        # run peaked at 7.2 MiB under tracemalloc; with each shot's outcome
        # value, its variate and its sort order instead it peaks at 5.3 MiB,
        # below M * (2n + 8) bytes.  A warm-up run goes untraced
        n, shots = 12, 200_000
        state, model = random_circuit_state(n, 20, seed=0), ChainCrosstalkModel(n, 0.07, 0.05, 0.5)
        run_tomography(state, pauli_directions(), model, 1000, seed=1)
        tracemalloc.start()
        try:
            data = run_tomography(state, pauli_directions(), model, shots, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == shots
        assert peak < shots * (2 * n + 8)

    def test_past_128_directions_the_digits_widen_to_uint16(self):
        """The ideal bits and the readout's flips are folded into a widened
        copy of the uint8 setting draw: the derived arrays equal the draws
        run_tomography makes, in its order."""
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(130, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
        state, model = random_circuit_state(3, 4, seed=2), ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
        data = run_tomography(state, directions, model, 2000, seed=4)
        assert data.digits.dtype == np.uint16 and data.digits.flags.f_contiguous
        rng = np.random.default_rng(4)
        settings = np.asfortranarray(rng.integers(0, 130, size=(2000, 3), dtype=np.uint8))
        gates = np.array([rotation_gate(d) for d in directions])
        values = protocols._tree_outcomes(state.amplitudes, gates, settings, rng.random)
        ideal = np.asfortranarray((values[:, None] >> np.arange(3)) & 1, dtype=np.uint8)
        assert (settings >= 128).any()  # digits past 255
        assert np.array_equal(data.setting_indices, settings)
        flips = protocols._twirl_flips(model, 2000, rng, ideal)
        assert np.array_equal(data.outcomes, ideal ^ flips)

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
            TomographyDataset(2, directions, np.zeros((1, 2), dtype=np.uint16))

    def test_shots_past_the_cap_are_refused_before_any_draw(self, monkeypatch):
        # the Born draw's order is uint32 and the spectrum's sums are exact
        # below 2^53, so both collectors refuse more shots up front
        state = random_circuit_state(1, 2, seed=0)
        shots = protocols.MAX_SHOTS + 1
        message = rf"^shots must lie in \[1, {protocols.MAX_SHOTS}\], got {shots}$"

        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(ValueError, match=message):
            run_tomography(state, pauli_directions(), _noiseless(1), shots, 0)
        with pytest.raises(ValueError, match=message):
            run_calibration(_noiseless(3), shots, 0)


def _g_statistic(observed, expected):
    """G = 2 sum O ln(O / E) over the cells; a cell of O = 0 adds 0."""
    seen = observed > 0
    return 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))


class TestExactLaw:
    """The collectors' records against their exact law by a G-test at
    significance 1e-3, with fixed seeds.  Every expected cell count is at
    least 5, so G is near chi-square with cells - 1 degrees of freedom;
    its 0.999 quantiles are written in (scipy.stats.chi2.ppf), as scipy is
    not a dependency.  The law is built from the oracles: the twirled row
    Rbar(. | 0) averaged over exact rows and the Born rows of a rotated
    state."""

    CRITICAL = {7: 24.3219, 63: 103.4424, 215: 284.8153}
    SHOTS = 20000

    @staticmethod
    def _models(n):
        p10, p01 = [0.1, 0.2, 0.05][:n], [0.05, 0.1, 0.15][:n]
        return {
            "independent": IndependentFlipModel(n, p10, p01),
            "chain": ChainCrosstalkModel(n, p10, p01, 0.4),
        }

    def _assert_law(self, codes, law):
        expected = self.SHOTS * law.ravel()
        assert expected.min() >= 5.0
        observed = np.bincount(codes, minlength=len(expected))
        assert _g_statistic(observed, expected) < self.CRITICAL[len(expected) - 1]

    @pytest.mark.parametrize("model_name", ["independent", "chain"])
    @pytest.mark.parametrize("n,direction_set", [(3, "pauli"), (2, "tilted")])
    def test_tomography_records(self, n, direction_set, model_name):
        """P(s, x) = k^-n sum_y Born(y | s) Rbar(x XOR y | 0)."""
        directions = pauli_directions() if direction_set == "pauli" else _tilted_directions()
        model = self._models(n)[model_name]
        state = random_circuit_state(n, 6, seed=3)
        k, values = len(directions), np.arange(1 << n)
        channel = twirl_table(model)[values[:, None] ^ values]  # [x, y] = Rbar(x XOR y | 0)
        law = np.empty((k**n, 1 << n))  # row: setting code, qubit 0 least significant
        for code, setting in enumerate(itertools.product(range(k), repeat=n)):
            rotated = MeasurementSetting(tuple(directions[i] for i in reversed(setting)))
            law[code] = channel @ measurement_probabilities(state, rotated) / k**n
        data = run_tomography(state, directions, model, self.SHOTS, seed=41)
        settings = data.setting_indices.astype(np.int64) @ k ** np.arange(n)
        self._assert_law(settings * 2**n + pack_bits(data.outcomes), law)

    @pytest.mark.parametrize("model_name", ["independent", "chain"])
    def test_calibration_records(self, model_name):
        model = self._models(3)[model_name]
        data = run_calibration(model, self.SHOTS, seed=42)
        self._assert_law(pack_bits(data.outcomes), twirl_table(model))


class TestEstimators:
    def test_mitigated_equals_unmitigated_without_noise(self):
        state = random_circuit_state(2, 6, seed=4)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 2000, seed=6)
        cal = run_calibration(_noiseless(2), 1000, seed=7)
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b10), {1: z})
        g_v = g_hat(cal, c.pattern)
        ((mit,),) = estimate_correlators(data, [c], [(g_v,)], resamples=200, seed=1)
        ((unm,),) = estimate_correlators(data, [c], [(1.0,)], resamples=200, seed=1)
        assert mit.estimate == pytest.approx(unm.estimate, abs=1e-12)
        assert mit.stderr == pytest.approx(unm.stderr, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mitigated_recovers_truth_under_noise(self, seed):
        state = random_circuit_state(2, 8, seed=seed)
        model = IndependentFlipModel(2, 0.12, 0.08)
        data = run_tomography(state, pauli_directions(), model, 60000, seed=seed + 10)
        cal = run_calibration(model, 60000, seed=seed + 20)
        x = direction_from_label("x")
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: z, 1: x})
        truth = exact_expectation(state, c)
        g_v = g_hat(cal, c.pattern)
        ((mit,),) = estimate_correlators(data, [c], [(g_v,)], resamples=200, seed=3)
        assert mit.estimate == pytest.approx(truth, abs=5 * mit.stderr)

    def test_indep_model_recovers_truth_when_model_is_right(self):
        state = random_circuit_state(2, 8, seed=2)
        model = IndependentFlipModel(2, [0.1, 0.05], [0.02, 0.07])
        data = run_tomography(state, pauli_directions(), model, 60000, seed=30)
        y = direction_from_label("y")
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: y, 1: z})
        truth = exact_expectation(state, c)
        g_ind = independent_g(c, [0.1, 0.05], [0.02, 0.07])
        ((ind,),) = estimate_correlators(data, [c], [(g_ind,)], resamples=200, seed=4)
        assert ind.estimate == pytest.approx(truth, abs=5 * ind.stderr)

    def test_g_floor(self):
        # qubit 0 reads 0 and 1 equally often: ghat(01) = 0
        cal = CalibrationDataset(2, np.array([[0, 0], [1, 0], [0, 1], [1, 1]] * 25))
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b01), {0: z})
        with pytest.raises(UnmitigatableComponentError, match="below floor"):
            g_hat(cal, c.pattern)

    def test_mitigation_rejects_a_pattern_of_another_size(self):
        cal = run_calibration(_noiseless(2), 20, seed=2)
        z = direction_from_label("z")
        for n in (1, 3):
            c = Correlator(BitString(n, 1 << (n - 1)), {n - 1: z})
            with pytest.raises(ValueError, match=f"pattern has {n} bits, calibration has 2 qubits"):
                g_hat(cal, c.pattern)

    def test_indep_model_rejects_singular_rates(self):
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b11), {0: z, 1: z})
        with pytest.raises(SingularNoiseError, match="qubit 1"):
            independent_g(c, [0.1, 0.3], [0.1, 0.7])

    def test_bootstrap_is_seeded(self):
        state = random_circuit_state(2, 4, seed=6)
        data = run_tomography(state, pauli_directions(), _noiseless(2), 1000, seed=50)
        z = direction_from_label("z")
        c = Correlator(BitString(2, 0b01), {0: z})
        a, b, c2 = (
            estimate_correlators(data, [c], [(1.0,)], resamples=200, seed=seed)[0][0]
            for seed in (2, 2, 3)
        )
        assert a.stderr == b.stderr
        assert a.stderr != c2.stderr

    def test_divisor_i_is_a_one_divisor_call_at_seed_plus_i(self):
        state = random_circuit_state(3, 6, seed=8)
        model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
        data = run_tomography(state, pauli_directions(), model, 5000, seed=70)
        c = random_correlators(3, [2], 1, seed=71)[0]
        divisors = (0.8, 1.0, -0.6)
        (reports,) = estimate_correlators(data, [c], [divisors], resamples=50, seed=5)
        assert len(reports) == len(divisors)
        for i, g in enumerate(divisors):
            assert [reports[i]] == estimate_correlators(
                data, [c], [(g,)], resamples=50, seed=5 + i
            )[0]

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    def test_zero_or_non_finite_divisor_is_refused_before_binning(self, monkeypatch, bad):
        data = run_tomography(random_circuit_state(2, 2, seed=0), pauli_directions(),
                              _noiseless(2), 20, seed=3)
        c = Correlator(BitString(2, 0b01), {0: direction_from_label("z")})

        def no_binning(*args):
            raise AssertionError("binned before the divisors were checked")

        monkeypatch.setattr(protocols, "_shade_tables", no_binning)
        with pytest.raises(AssertionError, match="binned"):  # the patch is on the binning path
            estimate_correlators(data, [c], [(1.0,)], resamples=2, seed=0)
        with pytest.raises(ValueError, match="finite and nonzero"):
            estimate_correlators(data, [c, c], [(1.0,), (bad,)], resamples=2, seed=0)

    @pytest.mark.parametrize(
        "divisors,resamples,message",
        [
            ([(1.0, 2.0), (1.0,)], 2, "every correlator needs 2 divisors, got 1"),
            ([(1.0,), (1.0,), (1.0,)], 2, "3 divisor lists for 2 correlators"),
            ([(1.0,)], 2, "1 divisor lists for 2 correlators"),
            ([(1.0,), (1.0,)], 1, "need >= 2 bootstrap resamples, got 1"),
        ],
    )
    def test_malformed_batch_is_refused_before_binning(
        self, monkeypatch, divisors, resamples, message
    ):
        data = run_tomography(random_circuit_state(2, 2, seed=0), pauli_directions(),
                              _noiseless(2), 20, seed=3)
        z = direction_from_label("z")
        correlators = [Correlator(BitString(2, 1 << q), {q: z}) for q in range(2)]

        def no_binning(*args):
            raise AssertionError("binned before the batch was checked")

        monkeypatch.setattr(protocols, "_shade_tables", no_binning)
        with pytest.raises(ValueError, match=message):
            estimate_correlators(
                data, correlators, divisors, resamples=resamples, seed=0
            )


    def test_incomplete_direction_set_is_refused_before_binning(self, monkeypatch):
        directions = (direction_from_label("x"), direction_from_label("y"))
        zeros = np.zeros((4, 2), dtype=np.uint8)
        data = TomographyDataset(2, directions, zeros)
        c = Correlator(BitString(2, 0b01), {0: directions[0]})

        def no_binning(*args):
            raise AssertionError("binned before the direction set was checked")

        monkeypatch.setattr(protocols, "_record_cells", no_binning)
        with pytest.raises(NotInformationallyCompleteError, match="rank 3 of 4"):
            estimate_correlators(data, [c], [(1.0,)], resamples=2, seed=0)


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
        model = ChainCrosstalkModel(n, self.P10, self.P01, 0.5)
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
        xi = xi_by_label(tomo.directions)
        for c in random_correlators(4, [1, 2, 3, 4], 3, seed=24, directions=tomo.directions):
            shades = support_shades(tomo, c, xi)
            g_v = g_hat(cal, c.pattern)
            divisors = (g_v, 1.0, independent_g(c, self.P10, self.P01))
            ((mit, unm, ind),) = estimate_correlators(
                tomo, [c], [divisors], resamples=2, seed=0
            )
            assert mit.estimate == pytest.approx(np.mean(shades / g_v), abs=1e-12)
            assert unm.estimate == pytest.approx(np.mean(shades), abs=1e-12)
            expected = np.mean(independent_model_values(tomo, c, xi, self.P10, self.P01))
            assert ind.estimate == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_stderr_matches_sample_sd(self, noisy_data, pauli_xi):
        cal, tomos = noisy_data
        tomo = tomos["pauli"]
        for c in random_correlators(4, [1, 2, 3], 2, seed=25):
            shades = support_shades(tomo, c, pauli_xi)
            g_v = g_hat(cal, c.pattern)
            ((unm, mit),) = estimate_correlators(
                tomo, [c], [(1.0, g_v)], resamples=200, seed=0
            )
            for report, per_record in ((unm, shades), (mit, shades / g_v)):
                plain_se = np.std(per_record, ddof=1) / np.sqrt(len(tomo))
                assert report.stderr == pytest.approx(plain_se, rel=0.2)

    def test_blocked_draws_keep_the_stream(self, noisy_data, monkeypatch):
        _, tomos = noisy_data
        c = random_correlators(4, [3], 1, seed=26)[0]
        kw = {"resamples": 200, "seed": 9}
        whole = estimate_correlators(tomos["pauli"], [c], [(1.0,)], **kw)
        monkeypatch.setattr(protocols, "_PRODUCT_CELLS", 1000)  # a few resamples per sub-block
        blocked = estimate_correlators(tomos["pauli"], [c], [(1.0,)], **kw)
        assert blocked == whole

    def test_blocked_integer_draws_keep_the_stream(self, monkeypatch):
        """Sub-blocks of 4 rows (5 round down to 4), the last one of 3: the
        integer draws must still be the unsplit call's.  The values 18^j
        encode a draw of 17 records over 4 cells in one exact float."""
        counts = np.array([3, 5, 2, 7])
        values = 18.0 ** np.arange(4)
        expected = np.random.default_rng(4).multinomial(17, counts / counts.sum(), 23)
        monkeypatch.setattr(protocols, "_PRODUCT_CELLS", 5 * len(counts))
        means = protocols._resample_means(counts, values, 23, np.random.default_rng(4))
        codes = np.rint(means * 17).astype(np.int64)
        assert np.array_equal(codes[:, None] // 18 ** np.arange(4) % 18, expected)

    @pytest.mark.parametrize(
        "cells,resamples,product_rows",
        [
            (1296, 200, None),  # sub-blocks of 4 rows (6 round down to 4)
            (1296, 49, None),  # the last 4 rows take in the lone last row
            (300, 5, 4),  # 4 rows take in the lone fifth: one product
            (300, 6, 4),  # sub-blocks of 4 and 2 rows
            (300, 13, 4),  # sub-blocks of 4, 4 and 5 rows
            (300, 13, 11),  # 11 rows round down to 8: sub-blocks of 8 and 5 rows
        ],
        ids=["default", "lone-row", "5-row-blocks", "6-row-blocks", "13-row-blocks", "round-down"],
    )
    def test_sub_blocks_equal_the_one_product_oracle(
        self, monkeypatch, cells, resamples, product_rows
    ):
        """Random values, so that the sum's order shows in the last bits."""
        rng = np.random.default_rng(cells + resamples)
        counts = rng.integers(1, 20, cells)
        values = rng.standard_normal(cells)
        if product_rows is not None:
            monkeypatch.setattr(protocols, "_PRODUCT_CELLS", product_rows * cells)
        expected = one_product_resample_means(counts, values, resamples, np.random.default_rng(8))
        means = protocols._resample_means(counts, values, resamples, np.random.default_rng(8))
        assert np.array_equal(means, expected)

    @settings(max_examples=40)
    @given(
        cells=st.integers(1, 300),
        resamples=st.integers(1, 60),
        product_rows=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_sub_blocks_equal_the_one_product_oracle(
        self, cells, resamples, product_rows, seed
    ):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 20, cells)
        values = rng.standard_normal(cells)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = one_product_resample_means(counts, values, resamples, oracle_rng)
        with mock.patch.object(protocols, "_PRODUCT_CELLS", product_rows * cells):
            means = protocols._resample_means(counts, values, resamples, rng)
        assert np.array_equal(means, expected)

    def test_means_do_not_depend_on_the_blas_thread_count(self):
        """One process per OpenBLAS thread count, which is read when numpy
        loads.  The last two streams are above 2^20 cell counts, where
        OpenBLAS splits one product between its threads: as one product,
        7776 cells x 201 resamples moved between 1 and 2 threads (200 rows
        split at 100, a multiple of 4, and did not)."""
        root = pathlib.Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, numpy as np\n"
            "from xshadow.protocols import _resample_means\n"
            "for cells, resamples in ((1296, 200), (300, 41), (7776, 200), (7776, 201)):\n"
            "    rng = np.random.default_rng(cells + resamples)\n"
            "    counts = rng.integers(1, 200, cells)\n"
            "    values = rng.standard_normal(cells)\n"
            "    means = _resample_means(counts, values, resamples, rng)\n"
            "    sys.stdout.buffer.write(means.tobytes())\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                check=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                timeout=120,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0]) == 8 * (200 + 41 + 200 + 201)
        assert outputs[0] == outputs[1]

    def test_a_stream_holds_one_sub_block_of_draws(self):
        # the (200, 1296) int64 draws and their float64 cast, drawn and
        # multiplied as one block, peaked at 3.97 MiB under tracemalloc, and
        # sub-blocks of 2^16 cell counts (48 rows) at 0.96 MiB; those of 4
        # rows peak at 0.09 MiB, and 2^13 cell counts of both are 0.125 MiB
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 200, 1296)
        values = rng.standard_normal(1296)
        tracemalloc.start()
        try:
            protocols._resample_means(counts, values, 200, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.15 * 2**20

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 4))
    def test_estimates_ignore_record_order(self, noisy_data, seed, degree):
        cal, tomos = noisy_data
        tomo = tomos["tilted"]
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(tomo))
        shuffled = TomographyDataset(tomo.n, tomo.directions, tomo.digits[order])
        shuffled_cal = CalibrationDataset(cal.n, cal.outcomes[rng.permutation(len(cal))])
        c = random_correlators(4, [degree], 1, seed=seed, directions=tomo.directions)[0]
        g_ind = independent_g(c, self.P10, self.P01)
        reports = [
            estimate_correlators(
                t, [c], [(g_hat(k, c.pattern), 1.0, g_ind)], resamples=20, seed=seed
            )
            for t, k in ((shuffled, shuffled_cal), (tomo, cal))
        ]
        assert reports[0] == reports[1]

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 8),
        direction_set=st.sampled_from(["pauli", "tilted"]),
        records=st.integers(1, 400),
        picks=st.lists(
            st.tuples(st.sampled_from(["fresh", "equal", "nested"]), st.integers(1, 255)),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # one correlator on each side of the bincount rule: 6^2 <= 300 < 6^4
    @example(n=4, direction_set="pauli", records=300, picks=[("fresh", 0b0011)], seed=1)
    @example(n=4, direction_set="pauli", records=300, picks=[("fresh", 0b1111)], seed=1)
    # a container on each side of the rule (6^4 > 50, 6^3 <= 400) with nested
    # and equal members, beside disjoint and overlapping supports
    @example(
        n=5,
        direction_set="pauli",
        records=50,
        picks=[("fresh", 0b01111), ("nested", 0b00101), ("nested", 0b00001), ("equal", 1),
               ("fresh", 0b10000)],
        seed=3,
    )
    @example(
        n=6,
        direction_set="pauli",
        records=400,
        picks=[("nested", 0b000110), ("fresh", 0b111000), ("nested", 0b101000),
               ("fresh", 0b000011), ("equal", 1)],
        seed=4,
    )
    def test_cells_equal_the_sorted_int64_route(self, n, direction_set, records, picks, seed):
        directions = pauli_directions() if direction_set == "pauli" else _tilted_directions()
        xi = xi_by_label(directions)
        rng = np.random.default_rng(seed)
        settings = rng.integers(0, len(directions), size=(records, n), dtype=np.uint8)
        data = TomographyDataset(
            n, directions, 2 * settings + rng.integers(0, 2, size=(records, n), dtype=np.uint8)
        )
        patterns = []
        for kind, bits in picks:
            pattern = bits % (1 << n) or 1
            if patterns and kind == "equal":
                pattern = patterns[-1]
            elif patterns and kind == "nested":  # a nonempty part of the last support
                pattern = patterns[-1] & pattern or patterns[-1] & -patterns[-1]
            patterns.append(pattern)
        correlators = [
            Correlator(
                BitString(n, pattern),
                {
                    q: directions[int(rng.integers(len(directions)))]
                    for q in BitString(n, pattern).support()
                },
            )
            for pattern in patterns
        ]
        tables = protocols._shade_tables(data, correlators)
        assert len(tables) == len(correlators)  # in correlator order, not container order
        for c, (counts, shades) in zip(correlators, tables):
            expected_counts, expected_shades = sorted_shade_cells(data, c, xi)
            assert counts.dtype == expected_counts.dtype and shades.dtype == expected_shades.dtype
            assert np.array_equal(counts, expected_counts)
            assert np.array_equal(shades, expected_shades)

    def test_cells_equal_the_sorted_int64_route_past_uint8_digits(self):
        """More than 128 directions: digits 2*setting + bit no longer fit
        uint8, so the digit table is uint16."""
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(130, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
        xi = xi_by_label(directions)
        settings = np.column_stack([np.arange(500) % 130, rng.integers(0, 130, (500, 2))])
        data = TomographyDataset(3, directions, 2 * settings + rng.integers(0, 2, size=(500, 3)))
        correlators = [
            Correlator(BitString(3, v), {q: directions[q] for q in BitString(3, v).support()})
            for v in (0b111, 0b001, 0b110, 0b100)
        ]
        for c, (counts, shades) in zip(correlators, protocols._shade_tables(data, correlators)):
            expected_counts, expected_shades = sorted_shade_cells(data, c, xi)
            assert np.array_equal(counts, expected_counts)
            assert np.array_equal(shades, expected_shades)

    def test_nested_cells_of_codes_past_2_to_the_53(self):
        """256 directions at n = 6: codes on all six qubits reach 512^6 =
        2^54 as uint64, past float64's integers, and the nested supports
        are tallied off the container's cells, read from those codes."""
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(256, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        directions = tuple(Direction(f"d{i}", tuple(v)) for i, v in enumerate(vectors))
        settings = rng.integers(0, 256, size=(3000, 6))
        data = TomographyDataset(6, directions, 2 * settings + rng.integers(0, 2, size=(3000, 6)))
        assert (settings[:, 5] >= 128).any()  # a top digit >= 256: a code >= 2^53
        correlators = [
            Correlator(BitString(6, v), {q: directions[7 * q] for q in BitString(6, v).support()})
            for v in (0b111111, 0b000011, 0b000001)
        ]
        tables = protocols._shade_tables(data, correlators)
        for c, (counts, shades) in zip(correlators[1:], tables[1:]):
            ((alone_counts, alone_shades),) = protocols._shade_tables(data, [c])
            assert counts.dtype == alone_counts.dtype
            assert np.array_equal(counts, alone_counts)
            assert np.array_equal(shades, alone_shades)

    def test_the_kernel_builds_no_record_sized_table(self):
        # 200,000 x 12 records are 2.3 MiB of digits.  A digit table built
        # from two (M, n) arrays peaked at 4.26 MiB under tracemalloc, and a
        # support's codes with np.bincount's intp copy of them, 10 bytes a
        # record, at 1.97 MiB; codes tallied in row blocks peak at 0.70 MiB
        n, records = 12, 200_000
        rng = np.random.default_rng(1)
        data = TomographyDataset(n, pauli_directions(), rng.integers(0, 6, (records, n)))
        correlators = random_correlators(n, [1, 2, 3, 4], 3, seed=2)
        protocols._shade_tables(data, correlators[:2])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            protocols._shade_tables(data, correlators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * records

    def test_cell_code_overflow_is_a_capability_error(self):
        # 6 cells per qubit: a 24-qubit code fits in int64, a 25-qubit one does not
        n = 25
        z = direction_from_label("z")
        data = TomographyDataset(n, pauli_directions(), np.full((3, n), 4, dtype=np.uint8))
        fits = Correlator(BitString(n, (1 << 24) - 1), {q: z for q in range(24)})
        ((report,),) = estimate_correlators(data, [fits], [(1.0,)], resamples=2, seed=0)
        assert report.estimate == 3.0**24  # z measured along z: overlap 3, outcome 0
        overflows = Correlator(BitString(n, (1 << 25) - 1), {q: z for q in range(25)})
        with pytest.raises(CapabilityError):
            estimate_correlators(data, [overflows], [(1.0,)], resamples=2, seed=0)


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


def _variates(u):
    """The variates function _tree_outcomes calls once: u, for len(u) shots."""

    def variates(shots):
        assert shots == len(u)
        return u

    return variates


_BORN_CASES = dict(
    n=st.integers(1, 9),
    direction_set=st.sampled_from(["pauli", "tilted", "random3", "random4"]),
    shots=st.integers(1, 400),
    chunk_log2=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)


class TestTreeOutcomes:
    """The tree-descent Born draw against the inverse CDF of the full
    rotated distribution, with chunks of 2^chunk_log2 shots so that chunk
    boundaries split shared setting prefixes."""

    @settings(max_examples=60)
    @given(**_BORN_CASES)
    def test_draws_match_inverse_cdf_oracle(self, n, direction_set, shots, chunk_log2, seed):
        state, directions, setting_matrix, gates, u = _born_case(n, direction_set, shots, seed)
        with mock.patch.object(protocols, "_tree_chunk", return_value=1 << chunk_log2):
            drawn = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, _variates(u))
        expected = born_outcomes(state, directions, setting_matrix, u)
        assert drawn.dtype == np.min_scalar_type((1 << n) - 1)
        assert drawn.shape == (shots,)
        assert np.array_equal(drawn, expected)

    @settings(max_examples=60)
    @given(**_BORN_CASES)
    def test_chunk_size_leaves_draws_unchanged(self, n, direction_set, shots, chunk_log2, seed):
        # small chunks, the rule's own, and the largest it can give: one
        # chunk of every shot
        state, _, setting_matrix, gates, u = _born_case(n, direction_set, shots, seed)
        with mock.patch.object(protocols, "_tree_chunk", return_value=1 << chunk_log2):
            small = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, _variates(u))
        default = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, _variates(u))
        with mock.patch.object(protocols, "_tree_chunk", return_value=shots):
            whole = protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, _variates(u))
        assert np.array_equal(small, default)
        assert np.array_equal(whole, default)

    @pytest.mark.parametrize(
        "shots,n,k,chunk",
        [
            (10_000, 12, 3, 256),  # collect_n12: the root rule's chunk
            (100_000, 8, 3, 4096),  # experiment_n8: the root rule's chunk
            (10**6, 12, 3, 1460),  # the dataset's bytes allow more
            (200_000, 3, 256, 4096),  # k-entry flag tables keep the root rule's chunk
        ],
    )
    def test_chunk_rule(self, shots, n, k, chunk):
        assert protocols._tree_chunk(shots, n, k) == chunk

    @settings(max_examples=200)
    @given(shots=st.integers(1, 10**8), n=st.integers(1, 16), k=st.integers(1, 256))
    def test_chunk_is_the_largest_whose_worst_level_fits(self, shots, n, k):
        def worst_level(chunk):  # two complex tables and a bool + int64 flag per node entry
            level = []
            for q in range(n):
                nodes = min(chunk, (2 * k) ** (n - 1 - q))
                pairs = min(chunk, k * (2 * k) ** (n - 1 - q))
                level.append(2 * 16 * pairs * 2 ** (q + 1) + (1 + 8) * k * nodes)
            return max(level)

        chunk = protocols._tree_chunk(shots, n, k)
        root = max(1, 2**20 // max(2**n, k))
        assert chunk >= root
        if chunk > root:
            assert chunk <= shots and worst_level(chunk) <= shots * n
        if chunk < shots:
            assert worst_level(chunk + 1) > shots * n

    def test_two_tables_per_level(self):
        # n=12, 10,000 shots (collect_n12's size, 256-shot chunks): a level
        # that kept the last level's rotation and nodes while rotating
        # peaked at 1.75 MiB; two tables per level and the uint32 order
        # peaked at 1.03 MiB with an (M, n) bit matrix beside them, and at
        # 0.94 MiB with the (M,) uint16 values instead
        n, shots = 12, 10_000
        state = random_circuit_state(n, 20, seed=0)
        gates = np.array([rotation_gate(d) for d in pauli_directions()])
        rng = np.random.default_rng(2)
        setting_matrix = np.asfortranarray(rng.integers(0, 3, size=(shots, n), dtype=np.uint8))
        u = rng.random(shots)
        protocols._tree_outcomes(state.amplitudes, gates, setting_matrix[:1000], _variates(u[:1000]))
        tracemalloc.start()
        try:
            protocols._tree_outcomes(state.amplitudes, gates, setting_matrix, _variates(u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.125 * 2**20

    def test_many_directions_keep_chunks_small(self):
        # 256 directions at n=3: 2^17-shot chunks held k flags and an int64
        # count per node, an 82 MiB tracemalloc peak at 20,000 shots; the
        # root rule's 4,096-shot chunks peak at 16.9 MiB here and at 14.9
        # MiB with 200,000 shots, where the dataset's bytes allow no more
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
    """SHA-256 of written dataset files, pinned so that any change to the
    Born draw (rotation arithmetic, CDF rule, draw order) or to either
    noise model's readout stream (mask, uniforms, flip rule) shows up.
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
        model = ChainCrosstalkModel(n, 0.07, 0.05, 0.5)
        data = run_tomography(state, directions, model, shots, seed=seed + 100)
        path = tmp_path / "tomography.txt"
        write_tomography(str(path), data)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # the readout streams of both noise models: shot counts that end in a
    # partial block of noise._BLOCK_ROWS rows, and one that ends on a
    # block boundary
    @pytest.mark.parametrize(
        "model,shots,seed,digest",
        [
            (ChainCrosstalkModel(12, 0.07, 0.05, 0.5), 20000, 41,
             "1a9be4c27bd610743fe2938cf44bdd16938d5059dcc06712648443e3f59877e6"),
            (ChainCrosstalkModel(3, [0.2, 0.0, 1.0], [0.1, 0.3, 0.0], 0.6), 32768, 42,
             "41dd2ca9ff1c0dbd5f7cf1bcb77ebcc9dd37ec0ed2a10bf800ae3fcffe9121fc"),
            (IndependentFlipModel(5, [0.1, 0.0, 1.0, 0.3, 0.07], [0.05, 1.0, 0.0, 0.2, 0.4]),
             33771, 43, "bcb6ffbfdbe273b76298165530cf7b8638f34d6cb50aa7e8b63c35946059f394"),
        ],
        ids=["chain-n12", "chain-n3", "independent-n5"],
    )
    def test_written_calibration_bytes(self, tmp_path, model, shots, seed, digest):
        path = tmp_path / "calibration.txt"
        write_calibration(str(path), run_calibration(model, shots, seed=seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_written_independent_tomography_bytes(self, tmp_path):
        state = random_circuit_state(7, 14, seed=44)
        model = IndependentFlipModel(7, 0.07, [0.05, 0.1, 0.0, 0.2, 0.3, 0.02, 0.15])
        data = run_tomography(state, pauli_directions(), model, 33771, seed=144)
        path = tmp_path / "tomography.txt"
        write_tomography(str(path), data)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9034e53bb7cb5dde6602bf4cb19bf3ecc4eab72a930a71a6389581c3ce93505d"
        )


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
