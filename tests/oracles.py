"""Reference computations that the library's fast paths must reproduce.

The library reduces a tomography dataset to counts over the (setting,
bit) cells of a correlator's support; the shade oracles evaluate the same
quantities one record at a time, with no binning, and `sorted_shade_cells`
bins them through int64 codes and a sort.  It reads ghat(w) for every w
from one Walsh transform of the calibration histogram; `parity_counts`
counts the two parity cells of one w.  It draws Born outcomes qubit by
qubit down the outcome tree; the Born oracles rotate the whole state for
one setting, one qubit at a time, and `born_outcomes` searches the full
normalised CDF.  Each noise model builds its twirled table Rbar(. | 0) as
a Markov chain of flips; `transition_row` gives the model's untwirled
rows R(. | ideal) and `twirl_table` averages all 2^n of them over
translations.  The dense shadow matrices check the factorised shades and
their Fourier-space mitigation against the full 2^n x 2^n operators.
"""

import numpy as np

from xshadow.bitspace import BitString
from xshadow.exceptions import CapabilityError, SingularNoiseError
from xshadow.noise import ChainCrosstalkModel
from xshadow.qsim import IDENTITY_2, MeasurementSetting, apply_single_qubit, rotation_gate

DENSE_MAX_QUBITS = 4


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


def _independent_row(model, ideal):
    row = np.ones(1)
    for i in range(model.n - 1, -1, -1):  # kron order puts qubit 0 last (LSB)
        if (ideal >> i) & 1:
            single = np.array([model.p10[i], 1.0 - model.p10[i]])
        else:
            single = np.array([1.0 - model.p01[i], model.p01[i]])
        row = np.kron(row, single)
    return row


def _chain_row(model, ideal):
    size = 1 << model.n
    flips = np.arange(size) ^ ideal  # flip pattern of each observed value
    probs = np.ones(size)
    prev = np.zeros(size, dtype=bool)
    for i in range(model.n):
        flipped = ((flips >> i) & 1).astype(bool)
        base = model.p10[i] if (ideal >> i) & 1 else model.p01[i]
        rate = np.where(prev, min(1.0, base + model.gamma), base)
        probs *= np.where(flipped, rate, 1.0 - rate)
        prev = flipped
    return probs


def transition_row(model, ideal):
    """R(. | ideal) as a length-2^n probability vector over observed values."""
    if isinstance(model, ChainCrosstalkModel):
        return _chain_row(model, ideal)
    return _independent_row(model, ideal)


def twirl_table(model):
    """Rbar(. | 0) by averaging the channel over all 2^n simultaneous bit
    translations: Rbar(s | 0) = 2^-n sum_t R(s XOR t | t), from every
    exact row, O(4^n)."""
    size = 1 << model.n
    idx = np.arange(size)
    table = np.zeros(size)
    for t in range(size):
        table += transition_row(model, t)[idx ^ t]
    return table / size


def _check_dense_cap(n):
    if n > DENSE_MAX_QUBITS:
        raise CapabilityError(f"dense route needs n <= {DENSE_MAX_QUBITS}, got n={n}")


def dense_shadow(xi, setting, outcome):
    """The full 2^n x 2^n shadow operator (small n oracle route)."""
    if setting.n != outcome.n:
        raise ValueError(f"setting has {setting.n} directions, outcome {outcome.n} bits")
    _check_dense_cap(setting.n)
    op = np.ones((1, 1), dtype=complex)
    for qubit in range(setting.n - 1, -1, -1):  # kron order puts qubit 0 last (LSB)
        sign = 1 - 2 * outcome.bit(qubit)
        factor = (IDENTITY_2 + sign * xi.xi(setting.directions[qubit].label)) / 2
        op = np.kron(op, factor)
    return op


def dense_mitigated_shadow(xi, setting, outcome, table):
    """Noise-corrected shadow sum_{s'} rho^nu_{s'} Rbar^{-1}(s' | s).

    Brute-force route: inverts the full 2^n x 2^n twirled matrix
    M[i, j] = table[i ^ j] built from the table Rbar(. | 0).  Kept
    deliberately independent of the Fourier shortcut so the two can be
    checked against each other.
    """
    table = np.asarray(table, dtype=float)
    if table.shape != (1 << setting.n,):
        raise ValueError(f"noise table has {table.shape} entries, setting {setting.n} qubits")
    _check_dense_cap(setting.n)
    idx = np.arange(1 << setting.n)
    matrix = table[idx[:, None] ^ idx[None, :]]
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularNoiseError("twirled transition matrix is singular") from exc
    if not np.all(np.isfinite(inverse)):
        raise SingularNoiseError("twirled transition matrix is singular")
    n = setting.n
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for s_prime in range(1 << n):
        weight = inverse[s_prime, outcome.value]
        out += dense_shadow(xi, setting, BitString(n, s_prime)) * weight
    return out
