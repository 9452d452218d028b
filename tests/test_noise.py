import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    _chain_row,
    _independent_row,
    chain_sample_bits,
    independent_sample_bits,
    transition_row,
    twirl_table,
)

from xshadow import noise
from xshadow.bitspace import walsh_transform
from xshadow.exceptions import CapabilityError
from xshadow.noise import ChainCrosstalkModel, IndependentFlipModel


class TestIndependentFlipModel:
    def test_single_qubit_rows(self):
        model = IndependentFlipModel(1, 0.1, 0.05)
        # row is indexed by observed value
        assert np.allclose(transition_row(model, 0), [0.95, 0.05])
        assert np.allclose(transition_row(model, 1), [0.1, 0.9])

    def test_rows_factorize(self):
        model = IndependentFlipModel(2, [0.1, 0.2], [0.05, 0.3])
        # ideal 01: qubit 0 reads via p10[0], qubit 1 via p01[1]
        row = transition_row(model, 0b01)
        q0 = np.array([0.1, 0.9])
        q1 = np.array([0.7, 0.3])
        assert np.allclose(row, np.kron(q1, q0))

    def test_rows_are_distributions(self):
        model = IndependentFlipModel(3, 0.07, 0.05)
        for ideal in range(8):
            row = transition_row(model, ideal)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            IndependentFlipModel(2, 1.5, 0.0)
        with pytest.raises(ValueError):
            IndependentFlipModel(2, [0.1, 0.1, 0.1], 0.0)

    @pytest.mark.parametrize(
        "rates",
        [
            float("nan"),
            [0.1, float("nan")],
            None,
            True,
            np.bool_(False),
            "0.1",
            [0.1, "0.1"],
            [0.1, None],
            [True, 0.1],  # np.asarray would read it as [1.0, 0.1]
            [0.1],  # a list must hold exactly n rates
            [[0.1, 0.1]],
            1j,
        ],
    )
    def test_rejects_rates_that_are_not_n_real_numbers(self, rates):
        with pytest.raises(ValueError, match="p01"):
            IndependentFlipModel(2, 0.1, rates)
        with pytest.raises(ValueError, match="p10"):
            ChainCrosstalkModel(2, rates, 0.1, 0.5)

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_rejects_numbers_past_float_range(self, value):
        # float() of these integers raises OverflowError, not ValueError
        with pytest.raises(ValueError, match="p01 must lie in"):
            IndependentFlipModel(2, 0.1, [0.1, value])
        with pytest.raises(ValueError, match="p10 must lie in"):
            ChainCrosstalkModel(2, value, 0.1, 0.5)
        with pytest.raises(ValueError, match="gamma must be"):
            ChainCrosstalkModel(2, 0.1, 0.1, value)

    @pytest.mark.parametrize("rates", [0, 1, 0.25, [0, 0.5], np.array([0.1, 1.0]), np.float32(0.5)])
    def test_accepts_a_number_or_n_numbers(self, rates):
        model = IndependentFlipModel(2, rates, 0.0)
        assert model.p10.dtype == np.float64
        assert np.array_equal(model.p10, np.broadcast_to(np.asarray(rates, dtype=float), (2,)))

    def test_sampler_matches_rows(self):
        model = IndependentFlipModel(2, 0.15, 0.08)
        rng = np.random.default_rng(3)
        draws = 40000
        ideal = np.tile(np.array([[1, 0]], dtype=np.uint8), (draws, 1))
        observed = ideal ^ model.sample_bits(ideal.copy(), rng)
        values = observed[:, 0].astype(int) + 2 * observed[:, 1].astype(int)
        counts = np.bincount(values, minlength=4) / draws
        row = transition_row(model, 0b01)
        for s in range(4):
            tol = 4 * np.sqrt(row[s] * (1 - row[s]) / draws) + 1e-9
            assert counts[s] == pytest.approx(row[s], abs=tol)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sampler_equals_the_one_call_oracle(self, order):
        """The bits XOR the flip pattern written in place equal the readout
        of one (M, n) draw, with the same generator stream, over three
        whole row blocks and one partial block."""
        model = IndependentFlipModel(5, [0.1, 0.0, 1.0, 0.3, 0.07], [0.05, 1.0, 0.0, 0.2, 0.4])
        shots = 3 * noise._BLOCK_ROWS + 1234
        ideal = np.random.default_rng(3).integers(0, 2, (shots, 5), dtype=np.uint8)
        ideal = np.asarray(ideal, order=order)
        bits = ideal.copy(order="K")
        rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
        flips = model.sample_bits(bits, rng)
        assert flips is bits
        assert np.array_equal(ideal ^ flips, independent_sample_bits(model, ideal, oracle_rng))
        assert rng.random() == oracle_rng.random()  # both drew the same count

    def test_sampler_memory_stays_in_row_blocks(self):
        # 200,000 x 8 bits (1.5 MiB): the one-call form's (M, n) float64
        # rates and uniforms peaked at 25.9 MiB under tracemalloc, row blocks
        # on an output copy at 3.7 MiB, and row blocks written in place at
        # 2.2 MiB (one block's uniforms and rates, 1 MiB each)
        model = IndependentFlipModel(8, 0.07, 0.05)
        bits = np.random.default_rng(4).integers(0, 2, (200_000, 8), dtype=np.uint8)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            model.sample_bits(bits, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestChainCrosstalkModel:
    def test_frozen_pair_probability(self):
        # both qubits flipping from 00: p01 * min(1, p01 + gamma)
        model = ChainCrosstalkModel(2, 0.1, 0.1, 0.5)
        assert transition_row(model, 0)[0b11] == pytest.approx(0.1 * 0.6, abs=1e-15)

    def test_gamma_zero_reduces_to_independent(self):
        """The chain oracle at gamma = 0 against the plain product of flips."""
        p10, p01 = [0.07, 0.2, 1.0], [0.05, 0.0, 0.3]
        ideal = np.arange(8)
        chain_rows = _chain_row(ChainCrosstalkModel(3, p10, p01, 0.0), ideal)
        assert np.allclose(chain_rows, _independent_row(IndependentFlipModel(3, p10, p01), ideal))

    def test_independent_model_is_the_chain_at_gamma_zero(self):
        model = IndependentFlipModel(3, [0.1, 0.2, 0.3], 0.05)
        assert isinstance(model, ChainCrosstalkModel)
        assert model.gamma == 0.0
        assert "twirled_table" not in vars(IndependentFlipModel)

    def test_samplers_agree_in_law_at_gamma_zero(self):
        """Both samplers on every ideal value, counted per (ideal, observed)
        cell: their frequencies differ by at most 4 sigma of a difference
        of two binomial means."""
        p10, p01 = [0.15, 0.3, 0.05], [0.08, 0.1, 0.25]
        indep = IndependentFlipModel(3, p10, p01)
        chain = ChainCrosstalkModel(3, p10, p01, 0.0)
        per_ideal = 20000
        values = np.repeat(np.arange(8), per_ideal)
        ideal = ((values[:, None] >> np.arange(3)) & 1).astype(np.uint8)
        frequencies = []
        for model, seed in ((indep, 11), (chain, 12)):
            observed = ideal ^ model.sample_bits(ideal.copy(), np.random.default_rng(seed))
            cells = 8 * values + observed @ (1 << np.arange(3))
            frequencies.append(np.bincount(cells, minlength=64).reshape(8, 8) / per_ideal)
        rows = _independent_row(indep, np.arange(8))
        tol = 4 * np.sqrt(2 * rows * (1 - rows) / per_ideal) + 1e-9
        assert np.all(np.abs(frequencies[0] - frequencies[1]) <= tol)

    def test_rows_are_distributions(self):
        model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
        for ideal in range(8):
            row = transition_row(model, ideal)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0)

    def test_row_by_explicit_chain_enumeration(self):
        model = ChainCrosstalkModel(3, [0.1, 0.07, 0.05], [0.02, 0.04, 0.06], 0.3)
        ideal = 0b101
        expected = np.zeros(8)
        for flips in itertools.product((0, 1), repeat=3):  # flips[i] is qubit i
            prob = 1.0
            prev = 0
            for i in range(3):
                if (ideal >> i) & 1:
                    base = [0.1, 0.07, 0.05][i]
                else:
                    base = [0.02, 0.04, 0.06][i]
                rate = min(1.0, base + 0.3) if prev else base
                prob *= rate if flips[i] else 1.0 - rate
                prev = flips[i]
            observed = ideal ^ sum(f << i for i, f in enumerate(flips))
            expected[observed] += prob
        assert np.allclose(transition_row(model, ideal), expected, atol=1e-14)

    def test_sampler_matches_rows(self):
        model = ChainCrosstalkModel(3, 0.1, 0.08, 0.4)
        rng = np.random.default_rng(5)
        draws = 60000
        ideal_value = 0b010
        ideal = np.tile(
            np.array([[(ideal_value >> i) & 1 for i in range(3)]], dtype=np.uint8), (draws, 1)
        )
        observed = ideal ^ model.sample_bits(ideal.copy(), rng)
        values = observed @ (1 << np.arange(3))
        counts = np.bincount(values, minlength=8) / draws
        row = transition_row(model, ideal_value)
        for s in range(8):
            tol = 4 * np.sqrt(row[s] * (1 - row[s]) / draws) + 1e-9
            assert counts[s] == pytest.approx(row[s], abs=tol)

    @pytest.mark.parametrize(
        "p10,p01,gamma",
        [
            (0.07, 0.05, 0.5),
            ([0.9, 0.1, 0.6, 0.3], 0.7, 0.6),  # p10 + gamma and p01 + gamma clamp at 1
            (0.2, 0.1, 0.0),
            (1.0, 0.0, 0.3),
        ],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sampler_equals_the_row_major_oracle(self, p10, p01, gamma, order):
        """The bits XOR the flip pattern written in place equal the np.where
        sampler's readout, with the same generator stream, in one partial
        row block and in two whole ones and a partial one."""
        model = ChainCrosstalkModel(4, p10, p01, gamma)
        for shots in (5003, 2 * noise._BLOCK_ROWS + 7):
            ideal = np.random.default_rng(3).integers(0, 2, (shots, 4), dtype=np.uint8)
            ideal = np.asarray(ideal, order=order)
            bits = ideal.copy(order="K")
            rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
            flips = model.sample_bits(bits, rng)
            assert flips is bits
            assert np.array_equal(ideal ^ flips, chain_sample_bits(model, ideal, oracle_rng))
            assert rng.random() == oracle_rng.random()  # both drew the same count

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ChainCrosstalkModel(2, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            ChainCrosstalkModel(2, 0.1, 0.1, -0.1)

    @pytest.mark.parametrize("gamma", [False, True, np.bool_(False), None, "0.5", float("nan")])
    def test_rejects_gamma_that_is_not_a_real_number(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a number"):
            ChainCrosstalkModel(2, 0.1, 0.1, gamma)


class TestTwirl:
    def test_identity_model_twirls_to_delta(self):
        table = IndependentFlipModel(2, 0.0, 0.0).twirled_table()
        assert np.allclose(table, [1, 0, 0, 0])

    def test_independent_model_twirl_is_symmetrized_product(self):
        model = IndependentFlipModel(2, [0.1, 0.3], [0.06, 0.2])
        q = [(0.1 + 0.06) / 2, (0.3 + 0.2) / 2]
        expected = np.array(
            [
                (1 - q[0]) * (1 - q[1]),
                q[0] * (1 - q[1]),
                (1 - q[0]) * q[1],
                q[0] * q[1],
            ]
        )
        assert np.allclose(model.twirled_table(), expected, atol=1e-12)

    def test_twirl_preserves_normalization(self):
        table = ChainCrosstalkModel(4, 0.07, 0.05, 0.5).twirled_table()
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(table >= 0)

    def test_matrix_rows_are_translations(self):
        # every twirled row 2^-n sum_t R(. ^ t | ideal ^ t) is the table shifted by ideal
        model = IndependentFlipModel(2, 0.2, 0.1)
        table = model.twirled_table()
        idx = np.arange(4)
        for ideal in range(4):
            row = sum(transition_row(model, ideal ^ t)[idx ^ t] for t in range(4)) / 4
            for observed in range(4):
                assert row[observed] == pytest.approx(table[ideal ^ observed], abs=1e-15)


_RATES = st.floats(0.0, 1.0)


@st.composite
def _chain_models(draw):
    n = draw(st.integers(1, 8))
    p10 = draw(st.lists(_RATES, min_size=n, max_size=n))
    p01 = draw(st.lists(_RATES, min_size=n, max_size=n))
    gamma = draw(st.floats(0.0, 1.0, exclude_max=True))
    return n, p10, p01, gamma


class TestTwirledTable:
    """Each model's Markov-chain table against the O(4^n) average of its
    exact rows over all translations."""

    @settings(max_examples=100)
    @given(_chain_models())
    # min(1, p + gamma) clamps on every qubit for both rates
    @example((5, [0.9, 1.0, 0.6, 0.95, 0.8], [0.7, 0.99, 1.0, 0.5, 0.85], 0.6))
    @example((8, [1.0] * 8, [0.0] * 8, 0.999))
    def test_tables_match_the_translation_average(self, case):
        n, p10, p01, gamma = case
        chain = ChainCrosstalkModel(n, p10, p01, gamma)
        indep = IndependentFlipModel(n, p10, p01)
        for model in (chain, indep):
            table = model.twirled_table()
            assert np.max(np.abs(table - twirl_table(model))) <= 1e-14
            assert table.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(table >= 0)
        # at gamma = 0 the table is the product of per-qubit twirled flips, bit for bit
        product = np.ones(1)
        for rate in 0.5 * (np.asarray(p10) + np.asarray(p01)):
            product = np.kron([1.0 - rate, rate], product)
        assert np.array_equal(indep.twirled_table(), product)

    def test_refuses_more_than_twelve_qubits(self):
        for model in (IndependentFlipModel(13, 0.1, 0.1), ChainCrosstalkModel(13, 0.1, 0.1, 0.2)):
            with pytest.raises(CapabilityError):
                model.twirled_table()


class TestFourierComponents:
    def test_zero_component_is_one(self):
        g = walsh_transform(ChainCrosstalkModel(3, 0.07, 0.05, 0.5).twirled_table())
        assert g[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_walsh_of_table(self):
        model = ChainCrosstalkModel(3, 0.12, 0.04, 0.25)
        g = walsh_transform(model.twirled_table())
        table = twirl_table(model)
        signs = [[(-1) ** bin(w & s).count("1") for s in range(8)] for w in range(8)]
        assert np.allclose(g, np.array(signs) @ table, atol=1e-12)

    def test_symmetric_independent_closed_form(self):
        eta = 0.08
        g = walsh_transform(IndependentFlipModel(4, eta, eta).twirled_table())
        for w in range(16):
            expected = (1 - 2 * eta) ** bin(w).count("1")
            assert g[w] == pytest.approx(expected, abs=1e-12)

    def test_identity_noise_spectrum_is_flat(self):
        g = walsh_transform(IndependentFlipModel(3, 0.0, 0.0).twirled_table())
        assert np.allclose(g, np.ones(8), atol=1e-12)


class TestNoisyOutcome:
    def test_identity_channel_is_transparent(self):
        rng = np.random.default_rng(0)
        model = IndependentFlipModel(3, 0.0, 0.0)
        for value in (0, 3, 7):
            bits = np.array([[(value >> i) & 1 for i in range(3)]], dtype=np.uint8)
            out = bits ^ model.sample_bits(bits.copy(), rng)
            assert int(out[0] @ (1 << np.arange(3))) == value

    def test_flip_rate_empirical(self):
        rng = np.random.default_rng(1)
        model = IndependentFlipModel(1, 0.0, 0.25)
        draws = 20000
        flips = int(model.sample_bits(np.zeros((draws, 1), dtype=np.uint8), rng).sum())
        assert flips / draws == pytest.approx(0.25, abs=4 * np.sqrt(0.25 * 0.75 / draws))
