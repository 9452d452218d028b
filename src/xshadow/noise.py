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
given whatever happened on the qubits before it.  ChainCrosstalkModel
builds its Rbar(. | 0) from that in n doubling steps (`twirled_table`,
n <= 12); sampling has no size cap.  Independent flips are the chain at
gamma = 0: IndependentFlipModel subclasses it and shares its checks and
its table, keeping only its own sampler.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

from .exceptions import CapabilityError
from .qsim import EXACT_SIM_MAX_QUBITS

# rows per block of work on an (M, n) dataset array: the readout's draws
# (protocols._twirl_flips's masks, both samplers) and the dataset codecs
# (storage); a block's transient memory stays small and its bytes stay in
# cache
_BLOCK_ROWS = 1 << 14


def _row_blocks(records: int, rows: int = _BLOCK_ROWS) -> Iterator[slice]:
    """Consecutive slices of `rows` rows (the last one partial) that cover
    `records` rows."""
    return (slice(start, start + rows) for start in range(0, records, rows))


def _is_real(value) -> bool:
    """A real number that is not a bool (so not None, a string or a list)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_rate_array(rates, n: int, name: str) -> np.ndarray:
    """One rate for every qubit, or a list of exactly n, each in [0, 1]."""
    arr = np.asarray(rates, dtype=object)
    if arr.shape not in ((), (n,)) or not all(map(_is_real, arr.flat)):
        raise ValueError(f"{name} must be a number or a list of {n} numbers, got {rates!r}")
    if not all(0 <= rate <= 1 for rate in arr.flat):  # NaN fails; no int past float range is cast
        raise ValueError(f"{name} must lie in [0, 1], got {rates!r}")
    return np.full(n, arr, dtype=float)


class ChainCrosstalkModel:
    """Directed-chain correlated flips.

    Qubit 0 flips at its base rate.  For i >= 1, if qubit i-1's readout
    flipped in the same shot, qubit i's flip probability is raised from its
    base rate to min(1, rate + gamma); otherwise the base rate applies.
    The constructor is the one check of n, the rates and gamma; the model
    draws the channel's flip pattern on (M, n) uint8 bits in place
    (`sample_bits`) and gives its twirled table.
    """

    def __init__(self, n: int, p10, p01, gamma: float):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not _is_real(gamma) or not 0.0 <= gamma < 1.0:  # NaN fails too
            raise ValueError(f"gamma must be a number in [0, 1), got {gamma!r}")
        self.n = n
        self.p10 = _as_rate_array(p10, n, "p10")
        self.p01 = _as_rate_array(p01, n, "p01")
        self.gamma = float(gamma)

    def twirled_table(self) -> np.ndarray:
        """Rbar(. | 0): a Markov chain of flips along the qubits, at
        (p10 + p01)/2, or at the average of the two boosted rates after
        a flip.  Each step appends qubit i as the new top bit, whose lower
        neighbour is the old top bit.  At gamma = 0 the boosted rate is
        the quiet one bit for bit, so the table is the product of
        independent per-qubit flips."""
        if self.n > EXACT_SIM_MAX_QUBITS:
            raise CapabilityError(
                f"twirled table needs n <= {EXACT_SIM_MAX_QUBITS}, got n={self.n}"
            )
        quiet = 0.5 * (self.p10 + self.p01)
        boosted = 0.5 * (np.minimum(1.0, self.p10 + self.gamma)
                         + np.minimum(1.0, self.p01 + self.gamma))
        table = np.array([1.0 - quiet[0], quiet[0]])
        for i in range(1, self.n):
            rate = np.repeat([quiet[i], boosted[i]], len(table) // 2)
            table = np.concatenate((table * (1.0 - rate), table * rate))
        return table

    def sample_bits(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Overwrite the writable (M, n) uint8 bits entering the channel
        with its flip pattern and return them (the readout is the bits
        XOR the pattern).  Qubits go in order 0..n-1, each drawing one
        uniform per shot in blocks of _BLOCK_ROWS rows, which give the
        stream of one (M,) draw.  A shot's rate is rates[2*prev + bit] of
        the qubit's table: base p01 or p10 by the bit, boosted if qubit
        i-1 flipped, as column i-1 by then records.  Column-major bits keep
        each column's blocks contiguous."""
        for i in range(self.n):
            p01, p10 = self.p01[i], self.p10[i]
            rates = np.array([p01, p10, min(1.0, p01 + self.gamma), min(1.0, p10 + self.gamma)])
            for rows in _row_blocks(len(bits)):
                column = bits[rows, i]
                prev = bits[rows, i - 1] if i else 0  # qubit i-1's flips on these shots
                np.less(rng.random(len(column)), rates[2 * prev + column], out=column)
        return bits


class IndependentFlipModel(ChainCrosstalkModel):
    """Each qubit flips independently: 1->0 with rate p10, 0->1 with rate
    p01.  This is the chain at gamma = 0, whose checks and twirled table it
    shares; it keeps its own sampler, row-major (M, n) uniforms, so it
    agrees with the chain's in law but not draw for draw."""

    def __init__(self, n: int, p10, p01):
        super().__init__(n, p10, p01, 0.0)

    def sample_bits(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Overwrite the writable (M, n) uint8 bits entering the channel
        with its flip pattern and return them, in blocks of _BLOCK_ROWS // n
        rows: a qubit flips at p10 or p01 by its bit, against row-major
        (rows, n) uniforms, which give the stream of one (M, n) draw."""
        for rows in _row_blocks(len(bits), max(1, _BLOCK_ROWS // self.n)):
            block = bits[rows]
            np.less(rng.random(block.shape), np.where(block, self.p10, self.p01), out=block)
        return bits
