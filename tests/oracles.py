"""Reference computations that the library's fast paths must reproduce.

The library reduces a tomography dataset to counts over the (setting,
bit) cells of a correlator's support; the shade oracles evaluate the same
quantities one record at a time, with no binning, and `sorted_shade_cells`
bins them through int64 codes and a sort.  It reads ghat(w) for every w
from one Walsh transform of the calibration histogram; `parity_counts`
counts the two parity cells of one w.  It draws Born outcomes qubit by
qubit down the outcome tree; the Born oracles rotate the whole state for
one setting, one qubit at a time, and `born_outcomes` searches the full
normalised CDF.
"""

import numpy as np

from xshadow.bitspace import BitString
from xshadow.qsim import MeasurementSetting, apply_single_qubit, rotation_gate


def support_shades(data, correlator, xi):
    """Per-record unmitigated shade (-1)^(v.s) prod_i overlap(nu_i, mu_i)."""
    if correlator.n != data.n:
        raise ValueError(f"correlator is on {correlator.n} qubits, dataset on {data.n}")
    if len(data) == 0:
        raise ValueError("empty tomography dataset")
    values = np.ones(len(data))
    parity = np.zeros(len(data), dtype=np.uint8)
    for qubit in correlator.pattern.support():
        overlaps = np.array(
            [xi.half_overlap(d.label, correlator.observables[qubit]) for d in data.directions]
        )
        values *= overlaps[data.setting_indices[:, qubit]]
        parity ^= data.outcomes[:, qubit]
    return values * (1.0 - 2.0 * parity.astype(np.float64))


def sorted_shade_cells(data, correlator, xi):
    """Observed cells of the support with their record counts and
    unmitigated shades: int64 mixed-radix codes (digit 2*setting + bit,
    base 2k) counted by np.unique, so cells come out in code order."""
    support = correlator.pattern.support()
    base = 2 * len(data.directions)
    codes = np.zeros(len(data), dtype=np.int64)
    for j, qubit in enumerate(support):
        digit = 2 * data.setting_indices[:, qubit].astype(np.int64) + data.outcomes[:, qubit]
        codes += digit * base**j
    cells, counts = np.unique(codes, return_counts=True)
    shades = np.ones(len(cells))
    for j, qubit in enumerate(support):
        mu = correlator.observables[qubit]
        overlaps = [xi.half_overlap(d.label, mu) for d in data.directions]
        shades *= np.outer(overlaps, [1.0, -1.0]).ravel()[cells // base**j % base]
    return counts, shades


def parity_counts(cal, w):
    """Record counts of the two parity cells of w, (+1, -1) in that order."""
    parity = np.bitwise_xor.reduce(cal.outcomes[:, list(w.support())], axis=1)
    return np.bincount(parity, minlength=2)


def independent_model_values(data, correlator, xi, p10, p01):
    """Per-record independent-flip corrected shade: each support qubit's
    (+overlap, -overlap) pair times the inverse twirled 2x2 matrix."""
    p10 = np.broadcast_to(np.asarray(p10, dtype=float), (data.n,))
    p01 = np.broadcast_to(np.asarray(p01, dtype=float), (data.n,))
    values = np.ones(len(data))
    for qubit in correlator.pattern.support():
        p = 0.5 * (p10[qubit] + p01[qubit])
        inverse = np.linalg.inv(np.array([[1.0 - p, p], [p, 1.0 - p]]))
        overlaps = np.array(
            [xi.half_overlap(d.label, correlator.observables[qubit]) for d in data.directions]
        )
        corrected = np.stack([inverse @ np.array([ov, -ov]) for ov in overlaps])
        values *= corrected[data.setting_indices[:, qubit], data.outcomes[:, qubit]]
    return values


def measurement_probabilities(state, setting):
    """Born probabilities over bitstrings after rotating each qubit into
    its measurement basis."""
    if setting.n != state.n:
        raise ValueError(f"setting has {setting.n} directions for n={state.n}")
    amps = state.amplitudes
    for qubit, direction in enumerate(setting.directions):
        amps = apply_single_qubit(amps, rotation_gate(direction), qubit, state.n)
    probs = np.abs(amps) ** 2
    return probs / probs.sum()


def ideal_outcome_sample(state, setting, rng):
    """Draw one noiseless outcome bitstring from the rotated Born distribution."""
    probs = measurement_probabilities(state, setting)
    outcome = int(rng.choice(probs.size, p=probs))
    return BitString(state.n, outcome)


def born_outcomes(state, directions, setting_indices, u):
    """Ideal outcome value of every shot by inverse CDF: searchsorted of
    the shot's variate in cumsum(p) / cumsum(p)[-1] (side="right"), with
    p from measurement_probabilities, clamped to 2^n - 1."""
    values = np.empty(len(u), dtype=np.int64)
    for shot, (row, variate) in enumerate(zip(setting_indices, u)):
        setting = MeasurementSetting(tuple(directions[i] for i in row))
        cdf = np.cumsum(measurement_probabilities(state, setting))
        values[shot] = np.searchsorted(cdf / cdf[-1], variate, side="right")
    return np.minimum(values, (1 << state.n) - 1)
