"""Readout transition models and their X-twirled channels.

A noise model is the classical channel R(s | s') from ideal to observed
bitstrings.  Twirling averages R over all simultaneous bit translations,

    Rbar(s | s') = 2^-n sum_t R(s XOR t | s' XOR t),

which makes the channel translation invariant: Rbar(s | s') depends only on
s XOR s', so the single table Rbar(. | 0) determines it.  Its Walsh spectrum
g(w) = sum_s (-1)^(w.s) Rbar(s | 0) is the per-pattern attenuation that
mitigation divides out; g(0) = 1 always.

Under the twirl every ideal bit is uniform and independent of the flips
below it, so qubit i flips at the average of its two rates, (p10 + p01)/2,
given whatever happened on the qubits before it.  Each model builds its
Rbar(. | 0) from that in n doubling steps (`twirled_table`, n <= 12);
sampling has no size cap.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CapabilityError
from .qsim import EXACT_SIM_MAX_QUBITS


def _as_rate_array(rates, n: int, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(rates, dtype=float), (n,)).copy()
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {arr}")
    return arr


def _flip_chain_table(quiet: np.ndarray, boosted: np.ndarray) -> np.ndarray:
    """Law of the flip pattern when qubit i flips at quiet[i], or at
    boosted[i] if qubit i-1 flipped: each step appends qubit i as the new
    top bit, whose lower neighbour is the old top bit."""
    n = len(quiet)
    if n > EXACT_SIM_MAX_QUBITS:
        raise CapabilityError(f"twirled table needs n <= {EXACT_SIM_MAX_QUBITS}, got n={n}")
    table = np.array([1.0 - quiet[0], quiet[0]])
    for i in range(1, n):
        rate = np.repeat([quiet[i], boosted[i]], len(table) // 2)
        table = np.concatenate((table * (1.0 - rate), table * rate))
    return table


class NoiseModel:
    """Base readout channel.  Subclasses push (M, n) uint8 ideal bits
    through it (`sample_bits`) and give its twirled table."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n


class IndependentFlipModel(NoiseModel):
    """Each qubit flips independently: 1->0 with rate p10, 0->1 with rate p01."""

    def __init__(self, n: int, p10, p01):
        super().__init__(n)
        self.p10 = _as_rate_array(p10, n, "p10")
        self.p01 = _as_rate_array(p01, n, "p01")

    def twirled_table(self) -> np.ndarray:
        """Rbar(. | 0): the product of per-qubit flips at (p10 + p01)/2."""
        rate = 0.5 * (self.p10 + self.p01)
        return _flip_chain_table(rate, rate)

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

    def twirled_table(self) -> np.ndarray:
        """Rbar(. | 0): a Markov chain of flips along the qubits, at
        (p10 + p01)/2, or at the average of the two boosted rates after
        a flip."""
        boosted = 0.5 * (np.minimum(1.0, self.p10 + self.gamma)
                         + np.minimum(1.0, self.p01 + self.gamma))
        return _flip_chain_table(0.5 * (self.p10 + self.p01), boosted)

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
