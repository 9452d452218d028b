"""Bit-vector algebra over {0,1}^n and the Walsh-Hadamard transform.

Conventions used throughout the package:

* a length-n bit vector is stored as a machine integer whose bit i is the
  value of qubit i, so qubit 0 is the least significant bit;
* the text form is left-padded binary of length n, which puts qubit n-1 in
  the leftmost character;
* tables over all 2^n bit vectors are numpy arrays indexed by integer value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BitString:
    """An immutable length-n bit vector backed by an integer."""

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"bit vector length must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    def to_text(self) -> str:
        return format(self.value, f"0{self.n}b")

    def support(self) -> tuple[int, ...]:
        """Indices of set bits, ascending."""
        return tuple(i for i in range(self.n) if (self.value >> i) & 1)

    def __str__(self) -> str:
        return self.to_text()


def hamming_weight(s: BitString) -> int:
    """Number of set bits."""
    return s.value.bit_count()


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform out[w] = sum_s (-1)^(w.s) values[s].

    Runs the in-place butterfly network in O(n 2^n); the input must have
    length 2^n.  Applying the transform twice multiplies by 2^n.
    """
    table = np.array(values, dtype=float)
    m = table.size
    if table.ndim != 1 or m == 0 or m & (m - 1):
        raise ValueError(f"input length must be a power of two, got shape {table.shape}")
    h = 1
    while h < m:
        pairs = table.reshape(-1, 2 * h)
        left = pairs[:, :h].copy()
        pairs[:, :h] = left + pairs[:, h:]
        pairs[:, h:] = left - pairs[:, h:]
        h *= 2
    return table
