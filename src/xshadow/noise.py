"""Readout transition models, X-twirling, and the Fourier spectrum g(w).

A noise model is the classical channel R(s | s') from ideal to observed
bitstrings.  Twirling averages R over all simultaneous bit translations,

    Rbar(s | s') = 2^-n sum_t R(s XOR t | s' XOR t),

which makes the channel translation invariant: Rbar(s | s') depends only on
s XOR s', so the single table Rbar(. | 0) determines it.  Its Walsh spectrum
g(w) = sum_s (-1)^(w.s) Rbar(s | 0) is the per-pattern attenuation that
mitigation divides out; g(0) = 1 always.

Exact full-table operations are capped at EXACT_TABLE_MAX_QUBITS qubits;
sampling has no size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitspace import BitString, walsh_transform
from .exceptions import CapabilityError

EXACT_TABLE_MAX_QUBITS = 14

_ROW_SUM_TOL = 1e-10


def _as_rate_array(rates, n: int, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(rates, dtype=float), (n,)).copy()
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {arr}")
    return arr


class NoiseModel:
    """Base readout channel; subclasses provide rows and/or a sampler."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n

    def transition_row(self, ideal: int) -> np.ndarray:
        """R(. | ideal) as a length-2^n probability vector over observed values."""
        raise CapabilityError(f"{type(self).__name__} cannot evaluate exact rows")

    def sample_bits(self, ideal_bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Push an (M, n) uint8 array of ideal bits through the channel."""
        raise CapabilityError(f"{type(self).__name__} cannot sample")

    def _check_table_cap(self) -> None:
        if self.n > EXACT_TABLE_MAX_QUBITS:
            raise CapabilityError(
                f"exact rows need n <= {EXACT_TABLE_MAX_QUBITS}, got n={self.n}"
            )


class IndependentFlipModel(NoiseModel):
    """Each qubit flips independently: 1->0 with rate p10, 0->1 with rate p01."""

    def __init__(self, n: int, p10, p01):
        super().__init__(n)
        self.p10 = _as_rate_array(p10, n, "p10")
        self.p01 = _as_rate_array(p01, n, "p01")

    def transition_row(self, ideal: int) -> np.ndarray:
        self._check_table_cap()
        row = np.ones(1)
        for i in range(self.n - 1, -1, -1):  # kron order puts qubit 0 last (LSB)
            if (ideal >> i) & 1:
                single = np.array([self.p10[i], 1.0 - self.p10[i]])
            else:
                single = np.array([1.0 - self.p01[i], self.p01[i]])
            row = np.kron(row, single)
        return row

    def sample_bits(self, ideal_bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        bits = np.asarray(ideal_bits, dtype=np.uint8)
        rate = np.where(bits == 1, self.p10, self.p01)
        flips = rng.random(bits.shape) < rate
        return bits ^ flips.astype(np.uint8)


class ChainCrosstalkModel(NoiseModel):
    """Directed-chain correlated flips.

    Qubit 0 flips at its base rate.  For i >= 1, if qubit i-1's readout
    flipped in the same shot, qubit i's flip probability is raised from its
    base rate to min(1, rate + gamma); otherwise the base rate applies.
    gamma = 0 reduces exactly to IndependentFlipModel.
    """

    def __init__(self, n: int, p10, p01, gamma: float):
        super().__init__(n)
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        self.p10 = _as_rate_array(p10, n, "p10")
        self.p01 = _as_rate_array(p01, n, "p01")
        self.gamma = float(gamma)

    def _base_rate(self, i: int, bit: int) -> float:
        return self.p10[i] if bit else self.p01[i]

    def transition_row(self, ideal: int) -> np.ndarray:
        self._check_table_cap()
        size = 1 << self.n
        flips = np.arange(size) ^ ideal  # flip pattern of each observed value
        probs = np.ones(size)
        prev = np.zeros(size, dtype=bool)
        for i in range(self.n):
            flipped = ((flips >> i) & 1).astype(bool)
            base = self._base_rate(i, (ideal >> i) & 1)
            rate = np.where(prev, min(1.0, base + self.gamma), base)
            probs *= np.where(flipped, rate, 1.0 - rate)
            prev = flipped
        return probs

    def sample_bits(self, ideal_bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        bits = np.asarray(ideal_bits, dtype=np.uint8)
        out = bits.copy()
        prev = np.zeros(bits.shape[0], dtype=bool)
        for i in range(self.n):  # chain is sampled in qubit order 0..n-1
            base = np.where(bits[:, i] == 1, self.p10[i], self.p01[i])
            rate = np.where(prev, np.minimum(1.0, base + self.gamma), base)
            flips = rng.random(bits.shape[0]) < rate
            out[:, i] ^= flips.astype(np.uint8)
            prev = flips
        return out


def independent_flip_model(n: int, p10, p01) -> IndependentFlipModel:
    """Independent per-qubit flips; rates may be scalars or length-n arrays."""
    return IndependentFlipModel(n, p10, p01)


def crosstalk_model(n: int, p10, p01, gamma: float) -> ChainCrosstalkModel:
    """Chain-correlated flips; gamma in [0, 1) sets the conditional boost."""
    return ChainCrosstalkModel(n, p10, p01, gamma)


def identity_model(n: int) -> IndependentFlipModel:
    """A noiseless readout channel."""
    return IndependentFlipModel(n, 0.0, 0.0)


@dataclass(frozen=True)
class TwirledNoise:
    """Translation-invariant channel stored as the table Rbar(. | 0)."""

    n: int
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.shape != (1 << self.n,):
            raise ValueError(f"expected table of length {1 << self.n}, got {table.shape}")
        if abs(table.sum() - 1.0) > _ROW_SUM_TOL or np.any(table < -_ROW_SUM_TOL):
            raise ValueError("twirled table is not a probability distribution")
        object.__setattr__(self, "table", table)

    def probability(self, observed: BitString, ideal: BitString) -> float:
        """Rbar(observed | ideal), which depends only on observed XOR ideal."""
        return float(self.table[observed.value ^ ideal.value])

    def matrix(self) -> np.ndarray:
        """Full 2^n x 2^n matrix M[ideal, observed] = table[ideal ^ observed]."""
        idx = np.arange(1 << self.n)
        return self.table[idx[:, None] ^ idx[None, :]]


@dataclass(frozen=True)
class FourierComponents:
    """The Walsh spectrum g(w) of a twirled channel; g(0) = 1."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} components, got {values.shape}")
        if abs(values[0] - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"g(0) = {values[0]} but must equal 1")
        object.__setattr__(self, "values", values)

    def component(self, w: BitString) -> float:
        if w.n != self.n:
            raise ValueError(f"pattern has {w.n} bits, spectrum has {self.n}")
        return float(self.values[w.value])


def twirl(model: NoiseModel) -> TwirledNoise:
    """Average the channel over all 2^n simultaneous bit translations.

    Uses the identity Rbar(s | 0) = 2^-n sum_t R(s XOR t | t), evaluated
    exactly from the model's rows (exact-mode sizes only).
    """
    model._check_table_cap()
    size = 1 << model.n
    idx = np.arange(size)
    table = np.zeros(size)
    for t in range(size):
        table += model.transition_row(t)[idx ^ t]
    return TwirledNoise(model.n, table / size)


def exact_g(twirled: TwirledNoise) -> FourierComponents:
    """Exact Fourier components g(w) = sum_s (-1)^(w.s) Rbar(s | 0)."""
    return FourierComponents(twirled.n, walsh_transform(twirled.table))


def noisy_outcome(model: NoiseModel, ideal: BitString, rng: np.random.Generator) -> BitString:
    """Push a single ideal bitstring through the channel."""
    if ideal.n != model.n:
        raise ValueError(f"bitstring has {ideal.n} bits, model has {model.n}")
    bits = np.array([[(ideal.value >> i) & 1 for i in range(model.n)]], dtype=np.uint8)
    out = model.sample_bits(bits, rng)[0]
    value = int(sum(int(b) << i for i, b in enumerate(out)))
    return BitString(model.n, value)
