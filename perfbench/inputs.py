"""Dataset files for the estimate_n10 workload, made without xshadow.

The state is |0...0> (a depth-0 circuit), so every draw has a closed
form and the generator needs only numpy:

- Born draw of qubit i under setting z is 0; under x or y it is a fair
  coin.
- The readout channel is the chain-crosstalk model: qubit 0 flips at its
  base rate, qubit i at min(1, base + gamma) when qubit i-1 flipped in
  the same shot, where base is p10 for an ideal 1 and p01 for an ideal 0.
- The XOR twirl draws a uniform mask t per shot, reads out ideal ^ t and
  records the readout ^ t, so the record is the ideal bits XOR the flips
  and only the rates see t.

Calibration records are the twirled flips of |0...0>.  Files follow the
dataset format in the repository README: ``#key=value`` headers, then one
row per shot with the bitstring written most significant qubit first.
"""

from __future__ import annotations

import hashlib

import numpy as np

DIRECTIONS = ("x", "y", "z")
_Z = DIRECTIONS.index("z")


def chain_flips(ideal: np.ndarray, p10: float, p01: float, gamma: float,
                rng: np.random.Generator) -> np.ndarray:
    """Flip pattern of the chain-crosstalk channel for (M, n) ideal bits."""
    shots, n = ideal.shape
    flips = np.zeros((shots, n), dtype=np.uint8)
    prev = np.zeros(shots, dtype=bool)
    for i in range(n):
        base = np.where(ideal[:, i] == 1, p10, p01)
        rate = np.where(prev, np.minimum(1.0, base + gamma), base)
        prev = rng.random(shots) < rate
        flips[:, i] = prev
    return flips


def twirled_records(ideal: np.ndarray, noise: dict, rng: np.random.Generator) -> np.ndarray:
    """Record of the XOR-twirl sandwich: ideal ^ flips(ideal ^ t)."""
    masks = rng.integers(0, 2, size=ideal.shape, dtype=np.uint8)
    flips = chain_flips(ideal ^ masks, noise["p10"], noise["p01"], noise["gamma"], rng)
    return ideal ^ flips


def _bit_rows(bits: np.ndarray) -> np.ndarray:
    """(M, n) bits -> (M, n) ascii digits, most significant qubit first."""
    return np.flip(bits, axis=1) + np.uint8(ord("0"))


def calibration_records(n: int, shots: int, noise: dict, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return twirled_records(np.zeros((shots, n), dtype=np.uint8), noise, rng)


def calibration_bytes(records: np.ndarray, seed: int) -> bytes:
    shots, n = records.shape
    rows = np.empty((shots, n + 1), dtype=np.uint8)
    rows[:, :n] = _bit_rows(records)
    rows[:, n] = ord("\n")
    header = f"#n={n}\n#type=calibration\n#seed={seed}\n"
    return header.encode() + rows.tobytes()


def tomography_bytes(n: int, shots: int, noise: dict, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    settings = rng.integers(0, len(DIRECTIONS), size=(shots, n), dtype=np.uint8)
    coins = rng.integers(0, 2, size=(shots, n), dtype=np.uint8)
    ideal = np.where(settings == _Z, 0, coins).astype(np.uint8)
    records = twirled_records(ideal, noise, rng)
    # row: n labels joined by commas, a space, n bits, a newline
    width = 2 * n - 1 + 1 + n + 1
    rows = np.empty((shots, width), dtype=np.uint8)
    labels = np.frombuffer("".join(DIRECTIONS).encode(), dtype=np.uint8)
    rows[:, 0 : 2 * n - 1 : 2] = labels[settings]
    rows[:, 1 : 2 * n - 1 : 2] = ord(",")
    rows[:, 2 * n - 1] = ord(" ")
    rows[:, 2 * n : 3 * n] = _bit_rows(records)
    rows[:, width - 1] = ord("\n")
    header = f"#n={n}\n#type=tomography\n#seed={seed}\n#directions={','.join(DIRECTIONS)}\n"
    return header.encode() + rows.tobytes()


def write_inputs(cal_path: str, tomo_path: str, n: int, shots: int, noise: dict,
                 cal_seed: int, tomo_seed: int) -> tuple[np.ndarray, dict[str, str]]:
    """Write both files; return the calibration records (column i = qubit i)
    and the SHA-256 digest of each file by role."""
    cal = calibration_records(n, shots, noise, cal_seed)
    digests = {}
    for role, path, payload in (
        ("calibration", cal_path, calibration_bytes(cal, cal_seed)),
        ("tomography", tomo_path, tomography_bytes(n, shots, noise, tomo_seed)),
    ):
        with open(path, "wb") as fh:
            fh.write(payload)
        digests[role] = hashlib.sha256(payload).hexdigest()
    return cal, digests
