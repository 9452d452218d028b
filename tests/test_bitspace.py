import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import bit, bitstring_from_text, dot_mod2_sign

from xshadow.bitspace import BitString, hamming_weight, walsh_transform


class TestBitString:
    def test_text_round_trip(self):
        s = bitstring_from_text("01101")
        assert s.n == 5
        assert s.value == 0b01101
        assert s.to_text() == "01101"
        assert str(s) == "01101"

    def test_bit_indexing_is_lsb_first(self):
        s = bitstring_from_text("100")
        # leftmost text character is qubit n-1
        assert bit(s, 0) == 0
        assert bit(s, 2) == 1
        assert s.support() == (2,)

    @pytest.mark.parametrize("text,weight", [("0", 0), ("1", 1), ("1011", 3), ("11111111", 8)])
    def test_hamming_weight(self, text, weight):
        assert hamming_weight(bitstring_from_text(text)) == weight

    @pytest.mark.parametrize("n,value", [(0, 0), (3, 8), (3, -1)])
    def test_rejects_out_of_range(self, n, value):
        with pytest.raises(ValueError):
            BitString(n, value)

    def test_rejects_bad_text(self):
        with pytest.raises(ValueError):
            bitstring_from_text("01a1")
        with pytest.raises(ValueError):
            bitstring_from_text("")


class TestDotSign:
    def test_frozen_values(self):
        # w=101, s=100 overlap in one position -> odd parity
        assert dot_mod2_sign(BitString(3, 0b101), BitString(3, 0b100)) == -1
        assert dot_mod2_sign(BitString(3, 0b101), BitString(3, 0b101)) == 1
        assert dot_mod2_sign(BitString(3, 0), BitString(3, 0b111)) == 1

    def test_exhaustive_n3_parity(self):
        for w in range(8):
            for s in range(8):
                parity = bin(w & s).count("1") % 2
                expected = -1 if parity else 1
                assert dot_mod2_sign(BitString(3, w), BitString(3, s)) == expected


class TestWalshTransform:
    def test_delta_input(self):
        # delta at s=3 transforms to the character (-1)^(w.3)
        out = walsh_transform([0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(out, [1.0, -1.0, -1.0, 1.0])

    def test_constant_input(self):
        out = walsh_transform(np.ones(8))
        expected = np.zeros(8)
        expected[0] = 8.0
        assert np.array_equal(out, expected)

    def test_matches_direct_sum_n4(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=16)
        out = walsh_transform(values)
        for w in range(16):
            direct = sum(
                dot_mod2_sign(BitString(4, w), BitString(4, s)) * values[s] for s in range(16)
            )
            assert out[w] == pytest.approx(direct, abs=1e-12)

    def test_involution_scales_by_size(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=32)
        twice = walsh_transform(walsh_transform(values))
        assert np.allclose(twice, 32.0 * values, atol=1e-12)

    @settings(max_examples=30)
    @given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_applied_twice_is_size_times_identity(self, n, seed):
        # integer entries below 2^20 keep every partial sum exact
        values = np.random.default_rng(seed).integers(-(1 << 20), 1 << 20, size=1 << n)
        twice = walsh_transform(walsh_transform(values))
        assert np.array_equal(twice, (1 << n) * values.astype(float))

    def test_input_left_untouched(self):
        values = np.arange(4.0)
        walsh_transform(values)
        assert np.array_equal(values, np.arange(4.0))

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_rejects_non_power_of_two(self, size):
        with pytest.raises(ValueError):
            walsh_transform(np.ones(size))
