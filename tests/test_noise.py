import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import transition_row, twirl_table

from xshadow.bitspace import walsh_transform
from xshadow.exceptions import CapabilityError
from xshadow.noise import crosstalk_model, independent_flip_model


class TestIndependentFlipModel:
    def test_single_qubit_rows(self):
        model = independent_flip_model(1, 0.1, 0.05)
        # row is indexed by observed value
        assert np.allclose(transition_row(model, 0), [0.95, 0.05])
        assert np.allclose(transition_row(model, 1), [0.1, 0.9])

    def test_rows_factorize(self):
        model = independent_flip_model(2, [0.1, 0.2], [0.05, 0.3])
        # ideal 01: qubit 0 reads via p10[0], qubit 1 via p01[1]
        row = transition_row(model, 0b01)
        q0 = np.array([0.1, 0.9])
        q1 = np.array([0.7, 0.3])
        assert np.allclose(row, np.kron(q1, q0))

    def test_rows_are_distributions(self):
        model = independent_flip_model(3, 0.07, 0.05)
        for ideal in range(8):
            row = transition_row(model, ideal)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            independent_flip_model(2, 1.5, 0.0)
        with pytest.raises(ValueError):
            independent_flip_model(2, [0.1, 0.1, 0.1], 0.0)

    def test_sampler_matches_rows(self):
        model = independent_flip_model(2, 0.15, 0.08)
        rng = np.random.default_rng(3)
        draws = 40000
        ideal = np.tile(np.array([[1, 0]], dtype=np.uint8), (draws, 1))
        observed = model.sample_bits(ideal, rng)
        values = observed[:, 0].astype(int) + 2 * observed[:, 1].astype(int)
        counts = np.bincount(values, minlength=4) / draws
        row = transition_row(model, 0b01)
        for s in range(4):
            tol = 4 * np.sqrt(row[s] * (1 - row[s]) / draws) + 1e-9
            assert counts[s] == pytest.approx(row[s], abs=tol)


class TestChainCrosstalkModel:
    def test_frozen_pair_probability(self):
        # both qubits flipping from 00: p01 * min(1, p01 + gamma)
        model = crosstalk_model(2, 0.1, 0.1, 0.5)
        assert transition_row(model, 0)[0b11] == pytest.approx(0.1 * 0.6, abs=1e-15)

    def test_gamma_zero_reduces_to_independent(self):
        chain = crosstalk_model(3, 0.07, 0.05, 0.0)
        indep = independent_flip_model(3, 0.07, 0.05)
        for ideal in range(8):
            assert np.allclose(transition_row(chain, ideal), transition_row(indep, ideal))

    def test_rows_are_distributions(self):
        model = crosstalk_model(3, 0.07, 0.05, 0.5)
        for ideal in range(8):
            row = transition_row(model, ideal)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0)

    def test_row_by_explicit_chain_enumeration(self):
        model = crosstalk_model(3, [0.1, 0.07, 0.05], [0.02, 0.04, 0.06], 0.3)
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
        model = crosstalk_model(3, 0.1, 0.08, 0.4)
        rng = np.random.default_rng(5)
        draws = 60000
        ideal_value = 0b010
        ideal = np.tile(
            np.array([[(ideal_value >> i) & 1 for i in range(3)]], dtype=np.uint8), (draws, 1)
        )
        observed = model.sample_bits(ideal, rng)
        values = observed @ (1 << np.arange(3))
        counts = np.bincount(values, minlength=8) / draws
        row = transition_row(model, ideal_value)
        for s in range(8):
            tol = 4 * np.sqrt(row[s] * (1 - row[s]) / draws) + 1e-9
            assert counts[s] == pytest.approx(row[s], abs=tol)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            crosstalk_model(2, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            crosstalk_model(2, 0.1, 0.1, -0.1)


class TestTwirl:
    def test_identity_model_twirls_to_delta(self):
        table = independent_flip_model(2, 0.0, 0.0).twirled_table()
        assert np.allclose(table, [1, 0, 0, 0])

    def test_independent_model_twirl_is_symmetrized_product(self):
        model = independent_flip_model(2, [0.1, 0.3], [0.06, 0.2])
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
        table = crosstalk_model(4, 0.07, 0.05, 0.5).twirled_table()
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(table >= 0)

    def test_matrix_rows_are_translations(self):
        # every twirled row 2^-n sum_t R(. ^ t | ideal ^ t) is the table shifted by ideal
        model = independent_flip_model(2, 0.2, 0.1)
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
        chain = crosstalk_model(n, p10, p01, gamma)
        indep = independent_flip_model(n, p10, p01)
        for model in (chain, indep):
            table = model.twirled_table()
            assert np.max(np.abs(table - twirl_table(model))) <= 1e-14
            assert table.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(table >= 0)
        assert np.array_equal(
            crosstalk_model(n, p10, p01, 0.0).twirled_table(), indep.twirled_table()
        )

    def test_refuses_more_than_twelve_qubits(self):
        for model in (independent_flip_model(13, 0.1, 0.1), crosstalk_model(13, 0.1, 0.1, 0.2)):
            with pytest.raises(CapabilityError):
                model.twirled_table()


class TestFourierComponents:
    def test_zero_component_is_one(self):
        g = walsh_transform(crosstalk_model(3, 0.07, 0.05, 0.5).twirled_table())
        assert g[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_walsh_of_table(self):
        model = crosstalk_model(3, 0.12, 0.04, 0.25)
        g = walsh_transform(model.twirled_table())
        table = twirl_table(model)
        signs = [[(-1) ** bin(w & s).count("1") for s in range(8)] for w in range(8)]
        assert np.allclose(g, np.array(signs) @ table, atol=1e-12)

    def test_symmetric_independent_closed_form(self):
        eta = 0.08
        g = walsh_transform(independent_flip_model(4, eta, eta).twirled_table())
        for w in range(16):
            expected = (1 - 2 * eta) ** bin(w).count("1")
            assert g[w] == pytest.approx(expected, abs=1e-12)

    def test_identity_noise_spectrum_is_flat(self):
        g = walsh_transform(independent_flip_model(3, 0.0, 0.0).twirled_table())
        assert np.allclose(g, np.ones(8), atol=1e-12)


class TestNoisyOutcome:
    def test_identity_channel_is_transparent(self):
        rng = np.random.default_rng(0)
        model = independent_flip_model(3, 0.0, 0.0)
        for value in (0, 3, 7):
            bits = np.array([[(value >> i) & 1 for i in range(3)]], dtype=np.uint8)
            out = model.sample_bits(bits, rng)[0]
            assert int(out @ (1 << np.arange(3))) == value

    def test_flip_rate_empirical(self):
        rng = np.random.default_rng(1)
        model = independent_flip_model(1, 0.0, 0.25)
        draws = 20000
        flips = int(model.sample_bits(np.zeros((draws, 1), dtype=np.uint8), rng).sum())
        assert flips / draws == pytest.approx(0.25, abs=4 * np.sqrt(0.25 * 0.75 / draws))
