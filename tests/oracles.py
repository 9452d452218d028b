"""Reference computations that the library's fast paths must reproduce.

The library reduces a tomography dataset to counts over the (setting,
bit) cells of a correlator's support; the shade oracles evaluate the same
quantities one record at a time, with no binning, and `sorted_shade_cells`
bins them through int64 codes and a sort.  It reads ghat(w) for every w
from one Walsh transform of the calibration histogram; `parity_counts`
counts the two parity cells of one w.  It draws Born outcomes qubit by
qubit down the outcome tree; the Born oracles rotate the whole state for
one `MeasurementSetting` (one shot's directions), one qubit at a time
through `tensordot_single_qubit`, the tensordot form of the library's
gate application, and `born_outcomes` searches the full normalised CDF.
`chain_sample_bits` is the row-major chain-crosstalk sampler with a
`np.where` rate per qubit that the column-major one must reproduce draw
for draw, and `independent_sample_bits` the one-call independent sampler
that the row-block one must reproduce; both return the readout, which
the library's samplers give as a flip pattern written over their input.
After one (M, n) mask draw, they also give the records the library's
twirled readout must reproduce.  The noise models build their
twirled table Rbar(. | 0) as a Markov chain of flips; `transition_row`
gives a model's untwirled rows R(. | ideal), the independent model's as
a plain product of per-qubit flips, and `twirl_table` averages all 2^n
of them over translations.  The oracles take a direction set's shadow operators keyed
by label (`xi_by_label`), since a `MeasurementSetting` holds directions,
not setting indices.  The dense shadow matrices check the factorised shades and
their Fourier-space mitigation against the full 2^n x 2^n operators.  The
single-record shades (`unmitigated_shade`, `mitigated_shade` with its
`dot_mod2_sign`), `fourier_shadow_trace` and `kappa` are the paper's
formulas one record at a time, which the tests and acceptance checks
evaluate directly.  The convergence studies
take the exact expected squared error of a subsample mean;
`monte_carlo_study` draws the subsamples instead.  `bitstring_from_text`
and `read_csv` parse the text forms the library only writes, and
`one_block_file` is a dataset file built whole, header and one byte
block, which the row-block writers must reproduce byte for byte.
`one_product_resample_means` is the bootstrap with one multinomial draw
and one `draws @ values` product, whose means the sub-blocked products
must reproduce bit for bit.  `bit` reads one qubit of a
`BitString`, and `pack_bits` and `cell_codes` are the int64 codes that
the library's one record coder must reproduce.
"""

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from xshadow.bitspace import BitString
from xshadow.exceptions import CapabilityError, SingularNoiseError, UnmitigatableComponentError
from xshadow.noise import IndependentFlipModel
from xshadow.qsim import IDENTITY_2, Correlator, Direction, pauli_operator, rotation_gate
from xshadow.shadows import G_FLOOR, compute_xi, half_overlap

DENSE_MAX_QUBITS = 4


def bit(s: BitString, i: int) -> int:
    """Value of qubit i of s (qubit 0 is the least significant bit)."""
    if not 0 <= i < s.n:
        raise ValueError(f"qubit index {i} out of range for n={s.n}")
    return (s.value >> i) & 1


def xi_by_label(directions):
    """Label -> shadow operator xi^nu of a direction set, the map the
    oracles below take as `xi`."""
    return {d.label: op for d, op in zip(directions, compute_xi(directions))}


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
            [half_overlap(xi[d.label], correlator.observables[qubit]) for d in data.directions]
        )
        values *= overlaps[data.setting_indices[:, qubit]]
        parity ^= data.outcomes[:, qubit]
    return values * (1.0 - 2.0 * parity.astype(np.float64))


def pack_bits(bits):
    """Integer value of each row of an (..., n) bit array, column 0 least
    significant, as int64."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1], dtype=np.int64))


def cell_codes(setting_indices, outcomes, support, base):
    """int64 mixed-radix code of every record's digits 2*setting + bit on
    the support, the digit of support[j] at place j of base `base`."""
    codes = np.zeros(len(outcomes), dtype=np.int64)
    for j, qubit in enumerate(support):
        digit = 2 * setting_indices[:, qubit].astype(np.int64) + outcomes[:, qubit]
        codes += digit * base**j
    return codes


def sorted_shade_cells(data, correlator, xi):
    """Observed cells of the support with their record counts and
    unmitigated shades: int64 mixed-radix codes (digit 2*setting + bit,
    base 2k) counted by np.unique, so cells come out in code order."""
    support = correlator.pattern.support()
    base = 2 * len(data.directions)
    codes = cell_codes(data.setting_indices, data.outcomes, support, base)
    cells, counts = np.unique(codes, return_counts=True)
    shades = np.ones(len(cells))
    for j, qubit in enumerate(support):
        mu = correlator.observables[qubit]
        overlaps = [half_overlap(xi[d.label], mu) for d in data.directions]
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
            [half_overlap(xi[d.label], correlator.observables[qubit]) for d in data.directions]
        )
        corrected = np.stack([inverse @ np.array([ov, -ov]) for ov in overlaps])
        values *= corrected[data.setting_indices[:, qubit], data.outcomes[:, qubit]]
    return values


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-qubit measurement directions for one shot."""

    directions: tuple[Direction, ...]

    @property
    def n(self) -> int:
        return len(self.directions)


def tensordot_single_qubit(amplitudes, gate, qubit, n):
    """A 2x2 gate applied to one qubit: the qubit's axis of the [2]*n
    amplitude tensor is moved to the front, contracted with the gate by
    np.tensordot and moved back."""
    tensor = amplitudes.reshape([2] * n)
    axis = n - 1 - qubit  # C-order: axis 0 is the most significant bit
    tensor = np.moveaxis(tensor, axis, 0)
    tensor = np.tensordot(gate, tensor, axes=(1, 0))
    tensor = np.moveaxis(tensor, 0, axis)
    return np.ascontiguousarray(tensor).reshape(1 << n)


def measurement_probabilities(state, setting):
    """Born probabilities over bitstrings after rotating each qubit into
    its measurement basis."""
    if setting.n != state.n:
        raise ValueError(f"setting has {setting.n} directions for n={state.n}")
    amps = state.amplitudes
    for qubit, direction in enumerate(setting.directions):
        amps = tensordot_single_qubit(amps, rotation_gate(direction), qubit, state.n)
    probs = np.abs(amps) ** 2
    return probs / probs.sum()


def ideal_outcome_samples(state, setting, rng, size):
    """Draw `size` noiseless outcome values from the rotated Born
    distribution: one rng.choice call, the stream of `size` scalar calls."""
    probs = measurement_probabilities(state, setting)
    return rng.choice(probs.size, p=probs, size=size)


def born_outcomes(state, directions, setting_indices, u):
    """Ideal outcome value of every shot by inverse CDF: searchsorted of
    the shot's variate in cumsum(p) / cumsum(p)[-1] (side="right"), with
    p from measurement_probabilities, clamped to 2^n - 1.  Each distinct
    setting row's CDF is built once, for all of its shots."""
    values = np.empty(len(u), dtype=np.int64)
    rows, inverse = np.unique(setting_indices, axis=0, return_inverse=True)
    for index, row in enumerate(rows):
        shots = inverse.ravel() == index
        setting = MeasurementSetting(tuple(directions[i] for i in row))
        cdf = np.cumsum(measurement_probabilities(state, setting))
        values[shots] = np.searchsorted(cdf / cdf[-1], u[shots], side="right")
    return np.minimum(values, (1 << state.n) - 1)


def _independent_row(model, ideal):
    ideal = np.asarray(ideal)[..., None]
    observed = np.arange(1 << model.n)
    probs = np.ones(np.broadcast_shapes(ideal.shape, observed.shape))
    for i in range(model.n):
        flipped = ((observed ^ ideal) >> i) & 1
        rate = np.where((ideal >> i) & 1, model.p10[i], model.p01[i])
        probs *= np.where(flipped, rate, 1.0 - rate)
    return probs


def _chain_row(model, ideal):
    ideal = np.asarray(ideal)[..., None]
    flips = np.arange(1 << model.n) ^ ideal  # flip pattern of each observed value
    probs = np.ones(flips.shape)
    prev = np.zeros(flips.shape, dtype=bool)
    for i in range(model.n):
        flipped = ((flips >> i) & 1).astype(bool)
        base = np.where((ideal >> i) & 1, model.p10[i], model.p01[i])
        rate = np.where(prev, np.minimum(1.0, base + model.gamma), base)
        probs *= np.where(flipped, rate, 1.0 - rate)
        prev = flipped
    return probs


def chain_sample_bits(model, ideal_bits, rng):
    """The chain-crosstalk channel's readout of (M, n) ideal bits: a
    row-major copy flipped one qubit at a time, with each shot's rate
    chosen by np.where from its ideal bit and from whether qubit i-1
    flipped, and one rng.random(M) call per qubit."""
    bits = np.asarray(ideal_bits, dtype=np.uint8)
    out = bits.copy()
    prev = np.zeros(bits.shape[0], dtype=bool)
    for i in range(model.n):
        base = np.where(bits[:, i] == 1, model.p10[i], model.p01[i])
        rate = np.where(prev, np.minimum(1.0, base + model.gamma), base)
        flips = rng.random(bits.shape[0]) < rate
        out[:, i] ^= flips.astype(np.uint8)
        prev = flips
    return out


def independent_sample_bits(model, ideal_bits, rng):
    """The independent channel's readout of (M, n) ideal bits in one
    call: an (M, n) np.where rate array against one rng.random((M, n))
    draw of row-major uniforms."""
    bits = np.asarray(ideal_bits, dtype=np.uint8)
    rate = np.where(bits == 1, model.p10, model.p01)
    flips = rng.random(bits.shape) < rate
    return bits ^ flips.astype(np.uint8)


def transition_row(model, ideal):
    """R(. | ideal) as a length-2^n probability vector over observed
    values, the product over qubits of each one's flip or stay
    probability; an array of ideal values gives one row per value."""
    if isinstance(model, IndependentFlipModel):  # a subclass of the chain model
        return _independent_row(model, ideal)
    return _chain_row(model, ideal)


def twirl_table(model):
    """Rbar(. | 0) by averaging the channel over all 2^n simultaneous bit
    translations: Rbar(s | 0) = 2^-n sum_t R(s XOR t | t), from every
    exact row (all 2^n rows at once), O(4^n)."""
    t = np.arange(1 << model.n)
    rows = transition_row(model, t)  # rows[t] = R(. | t)
    return np.take_along_axis(rows, t[:, None] ^ t, axis=1).mean(axis=0)


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
        sign = 1 - 2 * bit(outcome, qubit)
        factor = (IDENTITY_2 + sign * xi[setting.directions[qubit].label]) / 2
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


def dot_mod2_sign(w: BitString, s: BitString) -> int:
    """(-1)^(w.s) with the dot product taken mod 2."""
    if w.n != s.n:
        raise ValueError(f"length mismatch: {w.n} != {s.n}")
    return 1 - 2 * ((w.value & s.value).bit_count() & 1)


def kappa(xi: dict[str, np.ndarray], observables: Iterable[Direction]) -> float:
    """max |(1/2) tr(xi^nu mu.sigma)| over the set and requested observables."""
    observables = tuple(observables)
    if not observables:
        raise ValueError("observable set is empty")
    return max(
        abs(half_overlap(op, mu)) for op in xi.values() for mu in observables
    )


def _check_lengths(setting: MeasurementSetting, outcome: BitString, correlator: Correlator):
    if not setting.n == outcome.n == correlator.n:
        raise ValueError(
            f"length mismatch: setting {setting.n}, outcome {outcome.n}, "
            f"correlator {correlator.n}"
        )


def unmitigated_shade(
    xi: dict[str, np.ndarray],
    setting: MeasurementSetting,
    outcome: BitString,
    correlator: Correlator,
) -> float:
    """Trace of the noiseless shadow against the correlator.

    Factorizes per qubit: 1 off the support, (-1)^{s_i} times the half
    overlap on the support.
    """
    _check_lengths(setting, outcome, correlator)
    value = 1.0
    for qubit in correlator.pattern.support():
        overlap = half_overlap(xi[setting.directions[qubit].label], correlator.observables[qubit])
        value *= (1 - 2 * bit(outcome, qubit)) * overlap
    return value


def mitigated_shade(
    xi: dict[str, np.ndarray],
    setting: MeasurementSetting,
    outcome: BitString,
    correlator: Correlator,
    g_v: float,
    g_floor: float = G_FLOOR,
) -> float:
    """Readout-mitigated shade: (-1)^(v.s)/g(v) times the support overlaps.

    The outcome enters only through the global sign; division is by the
    single component g(v) of the twirled spectrum.
    """
    _check_lengths(setting, outcome, correlator)
    if abs(g_v) < g_floor:
        raise UnmitigatableComponentError(
            f"|g(v)| = {abs(g_v)} below floor {g_floor} for v={correlator.pattern}"
        )
    value = dot_mod2_sign(correlator.pattern, outcome) / g_v
    for qubit in correlator.pattern.support():
        value *= half_overlap(xi[setting.directions[qubit].label], correlator.observables[qubit])
    return value


def fourier_shadow_trace(
    xi: dict[str, np.ndarray], setting: MeasurementSetting, w: BitString, correlator: Correlator
) -> float:
    """tr(tau^nu_w C) for the Fourier-basis shadow component
    tau^nu_w = prod_i [w_i=0 -> identity, w_i=1 -> xi^{nu_i}].

    Vanishes unless w equals the correlator pattern, because both xi and
    the observables are traceless.
    """
    _check_lengths(setting, w, correlator)
    value = 1.0
    for qubit in range(w.n):
        left = IDENTITY_2 if bit(w, qubit) == 0 else xi[setting.directions[qubit].label]
        if bit(correlator.pattern, qubit) == 0:
            right = IDENTITY_2
        else:
            right = pauli_operator(correlator.observables[qubit])
        value *= np.trace(left @ right).real
    return float(value)


def bitstring_from_text(text: str) -> BitString:
    """Parse left-padded binary text; length determines n."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a binary string: {text!r}")
    return BitString(len(text), int(text, 2))


def one_block_file(dataset) -> bytes:
    """A calibration or tomography dataset's file, built as its header and
    one (M, width) byte array of every row."""
    n, records = dataset.n, len(dataset)
    tomography = hasattr(dataset, "setting_indices")
    header = [f"#n={n}", f"#type={'tomography' if tomography else 'calibration'}"]
    if dataset.seed is not None:
        header.append(f"#seed={dataset.seed}")
    bits = np.flip(dataset.outcomes, axis=1) + ord("0")
    if tomography:
        labels = [d.label for d in dataset.directions]
        header.append(f"#directions={','.join(labels)}")
        codes = np.frombuffer("".join(labels).encode(), dtype=np.uint8)
        rows = np.full((records, 2 * n), ord(","), dtype=np.uint8)
        rows[:, 0::2] = codes[dataset.setting_indices]
        rows[:, -1] = ord(" ")
        bits = np.hstack([rows, bits])
    body = np.hstack([bits, np.full((records, 1), ord("\n"), dtype=np.uint8)])
    return ("\n".join(header) + "\n").encode() + body.tobytes()


def one_product_resample_means(counts, values, resamples, rng):
    """Bootstrap means of `resamples` draws of as many records as the table
    holds: one multinomial call and one `draws @ values` product."""
    size = int(counts.sum())
    return rng.multinomial(size, counts / size, resamples) @ values / size


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def monte_carlo_study(curves, sizes, resamples, rng):
    """Squared errors of `resamples` subsample means per curve and size.

    Each curve is (group, counts, values, truth): how many records carry
    each value.  A replicate draws `size` records with replacement, a
    multinomial over the cells.  Returns group -> (curves, sizes,
    resamples) array; the mean over axes 0 and 2 is the pooled squared
    error whose square root the convergence studies report.
    """
    pooled = {}
    for group, counts, values, truth in curves:
        probabilities = counts / counts.sum()
        errors = [
            (rng.multinomial(size, probabilities, resamples) @ values / size - truth) ** 2
            for size in sizes
        ]
        pooled.setdefault(group, []).append(errors)
    return {group: np.array(errors) for group, errors in pooled.items()}
