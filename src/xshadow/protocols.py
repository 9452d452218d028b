"""Sampling protocols and estimators.

Calibration: prepare |0...0>, draw a random mask t, flip those qubits,
read out through the noisy channel, XOR the observed string with t, and
record the result.  The records are then samples of the twirled row
Rbar(. | 0), and ghat(w) is their empirical (-1)^(w.s) average.

Tomography: per shot, draw a uniform setting from S^n, rotate each qubit
into its measurement basis, and push the ideal outcome through the same
XOR-twirl sandwich before recording (setting, outcome).

Datasets are stored as (M, n) uint8 bit arrays (column i = qubit i) for
vectorized estimation; record accessors return the usual value types.
All functions draw from a caller-supplied seed through a fresh numpy
Generator, with the draw order documented per function, so datasets are
reproducible bit-for-bit.

Estimation works on count tables: every estimator averages a product of
per-qubit weights w_q[setting, bit] over the support, so only the record
count of each (setting, bit) cell of the support enters (for ghat(w),
of its two parity cells).  Bootstrap and subsample draws are multinomial
over the cells, exactly the law of drawing records with replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitspace import BitString
from .exceptions import CapabilityError, SingularNoiseError, UnmitigatableComponentError
from .noise import NoiseModel
from .qsim import (
    Correlator,
    Direction,
    MeasurementSetting,
    StateVector,
    pauli_directions,
    rotation_gate,
)
from .shadows import G_FLOOR, XiTable

DEFAULT_BOOTSTRAP_RESAMPLES = 200

# value of each parity cell (-1)^bit, bit 0 first
_PARITY_SIGNS = np.array([1.0, -1.0])

# multinomial cell counts held at once by one resampling block (8 MiB)
_DRAW_BLOCK = 1 << 20

# qubits per Born-sampling block: its rotation gates form one 8x8 matrix
_BLOCK_QUBITS = 3

# rotated amplitudes held at once by one batch of settings (256 KiB; at
# n=12 this was faster than 1 MiB batches, which leave the L2 cache)
_BATCH_AMPLITUDES = 1 << 14

# setting indices are stored as uint8
_MAX_DIRECTIONS = 256


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Collapse an (..., n) bit array to integer values (column 0 = LSB)."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(bits.shape[-1], dtype=np.int64)
    return bits.astype(np.int64) @ weights


def unpack_bits(values: np.ndarray, n: int) -> np.ndarray:
    """Expand integer values to an (..., n) uint8 bit array (column 0 = LSB)."""
    values = np.asarray(values, dtype=np.int64)
    return ((values[..., None] >> np.arange(n)) & 1).astype(np.uint8)


@dataclass(frozen=True)
class CalibrationDataset:
    """Twirl-corrected calibration bitstrings as an (M, n) uint8 array."""

    n: int
    outcomes: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        outcomes = np.asarray(self.outcomes, dtype=np.uint8)
        if outcomes.ndim != 2 or outcomes.shape[1] != self.n:
            raise ValueError(f"expected an (M, {self.n}) bit array, got {outcomes.shape}")
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return self.outcomes.shape[0]

    def record(self, i: int) -> BitString:
        return BitString(self.n, int(pack_bits(self.outcomes[i])))


def _check_direction_count(k: int) -> None:
    if k > _MAX_DIRECTIONS:
        raise CapabilityError(
            f"{k} directions exceed the {_MAX_DIRECTIONS} that uint8 setting indices hold"
        )


@dataclass(frozen=True)
class TomographyDataset:
    """Generalised outcomes (setting, bitstring) in columnar uint8 form."""

    n: int
    directions: tuple[Direction, ...]
    setting_indices: np.ndarray
    outcomes: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_direction_count(len(self.directions))
        settings = np.asarray(self.setting_indices, dtype=np.uint8)
        outcomes = np.asarray(self.outcomes, dtype=np.uint8)
        if settings.ndim != 2 or settings.shape[1] != self.n:
            raise ValueError(f"expected an (M, {self.n}) setting array, got {settings.shape}")
        if outcomes.shape != settings.shape:
            raise ValueError(
                f"outcome shape {outcomes.shape} does not match settings {settings.shape}"
            )
        if settings.size and settings.max() >= len(self.directions):
            raise ValueError("setting index outside the direction set")
        object.__setattr__(self, "setting_indices", settings)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return self.setting_indices.shape[0]

    def record(self, i: int) -> tuple[MeasurementSetting, BitString]:
        setting = MeasurementSetting(
            tuple(self.directions[j] for j in self.setting_indices[i])
        )
        return setting, BitString(self.n, int(pack_bits(self.outcomes[i])))


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate with its bootstrap standard error."""

    estimate: float
    stderr: float
    resamples: int
    samples: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def run_calibration(model: NoiseModel, shots: int, seed: int) -> CalibrationDataset:
    """Collect twirled calibration records from the all-zeros state.

    Per shot: draw t uniformly; the ideal readout is t itself (the flip
    layer maps |0...0> to |t>); sample the noisy readout; XOR with t.
    Draw order: the full (shots, n) t matrix, then the channel's samples.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 2, size=(shots, model.n), dtype=np.uint8)
    observed = model.sample_bits(t, rng)
    return CalibrationDataset(model.n, observed ^ t, seed=seed)


def _parity_counts(data: CalibrationDataset, w: BitString) -> np.ndarray:
    """Record counts of the two parity cells of w, (+1, -1) in that order."""
    parity = np.bitwise_xor.reduce(data.outcomes[:, list(w.support())], axis=1)
    return np.bincount(parity, minlength=2)


def estimate_g(data: CalibrationDataset, w: BitString) -> float:
    """Empirical Fourier component ghat(w) = mean of (-1)^(w.s) over records."""
    if w.n != data.n:
        raise ValueError(f"pattern has {w.n} bits, dataset has {data.n}")
    if len(data) == 0:
        raise ValueError("empty calibration dataset")
    return float(_parity_counts(data, w) @ _PARITY_SIGNS / len(data))


def _block_matrices(gates: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Kronecker products of the gates each row of digits names, column 0
    on the block's lowest qubit: shape (rows, 2^w, 2^w)."""
    mats = gates[digits[:, 0]]
    for col in range(1, digits.shape[1]):
        size = 2 * mats.shape[1]
        mats = np.einsum("uab,ucd->uacbd", gates[digits[:, col]], mats).reshape(-1, size, size)
    return mats


def _rotate_blocks(amps: np.ndarray, blocks, mats) -> np.ndarray:
    """Apply one matrix per row and block to a (rows, 2^n) amplitude batch;
    a batch of one row is broadcast against the matrices' rows."""
    for (first, width), m in zip(blocks, mats):
        x = amps.reshape(amps.shape[0], -1, 1 << width, 1 << first)
        amps = np.matmul(m[:, None], x)
    return amps.reshape(amps.shape[0], -1)


def _born_weights(amplitudes: np.ndarray, gates: np.ndarray, settings: np.ndarray):
    """Yield (shot indices per setting, rotated |amplitude|^2 rows) in
    batches covering every distinct setting of the (shots, n) matrix once.

    Qubits form blocks of _BLOCK_QUBITS; a block's gates act as one
    Kronecker matrix, built only for the block settings that occur.  The
    lower half of the blocks is rotated once per distinct low-half
    setting; the high-half settings that complete it are then rotated in
    batches of at most _BATCH_AMPLITUDES amplitudes, one batched matmul
    per block, so working memory does not grow with the shot count.
    """
    shots, n = settings.shape
    k = len(gates)
    blocks = [(q, min(_BLOCK_QUBITS, n - q)) for q in range(0, n, _BLOCK_QUBITS)]
    low = len(blocks) // 2
    mats = []
    ids = np.empty((shots, len(blocks)), dtype=np.int64)
    for j, (first, width) in enumerate(blocks):
        radix = k ** np.arange(width, dtype=np.int64)
        keys = settings[:, first : first + width].astype(np.int64) @ radix
        used, ids[:, j] = np.unique(keys, return_inverse=True)
        mats.append(_block_matrices(gates, used[:, None] // radix % k))

    order = np.lexsort(ids.T[::-1])  # low-half blocks first, then high
    ids = ids[order]
    starts = np.flatnonzero(np.r_[True, (ids[1:] != ids[:-1]).any(axis=1)])
    bounds = np.r_[starts, shots]
    setting_ids = ids[starts]
    low_ids = setting_ids[:, :low]
    low_starts = np.flatnonzero(np.r_[True, (low_ids[1:] != low_ids[:-1]).any(axis=1)])
    batch = max(1, _BATCH_AMPLITUDES >> n)
    psi = amplitudes[None]
    for g0, g1 in zip(low_starts, np.r_[low_starts[1:], len(starts)]):
        phi = _rotate_blocks(psi, blocks[:low], [mats[j][low_ids[g0, j]][None] for j in range(low)])
        for c0 in range(g0, g1, batch):
            c1 = min(c0 + batch, g1)
            high = [mats[j][setting_ids[c0:c1, j]] for j in range(low, len(blocks))]
            amps = _rotate_blocks(phi, blocks[low:], high)
            yield [order[bounds[s] : bounds[s + 1]] for s in range(c0, c1)], np.abs(amps) ** 2


def run_tomography(
    state: StateVector,
    directions: tuple[Direction, ...] | list[Direction],
    model: NoiseModel,
    shots: int,
    seed: int,
) -> TomographyDataset:
    """Collect X-twirled tomography records for a fixed state.

    Per shot: draw a uniform setting over the direction set, rotate, draw
    the ideal outcome from the Born distribution, flip by a fresh mask t,
    push through the noisy channel, unflip, and record (setting, outcome).

    Draw order: the (shots, n) setting matrix, then one uniform variate
    per shot for the Born draw, then the (shots, n) t matrix, then the
    channel's samples.  Shots sharing a setting share one rotated
    probability table.

    The tables come from a block-Kronecker kernel: qubits are grouped in
    blocks of three whose gates form one 8x8 matrix, the state is rotated
    once per distinct low-half setting, and the high-half completions
    are rotated in batched matmuls of bounded size.  Each Born draw is the
    inverse CDF of its setting's table: cdf = cumsum(|a|^2) / its last
    entry, searchsorted(side="right") on the shot's variate, clamped to
    2^n - 1.  The kernel changes how the tables are computed, not what
    is drawn or in which order.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    directions = tuple(directions)
    if not directions:
        raise ValueError("direction set is empty")
    if len({d.label for d in directions}) != len(directions):
        raise ValueError("direction labels must be unique")
    _check_direction_count(len(directions))
    if model.n != state.n:
        raise ValueError(f"noise model is on {model.n} qubits, state on {state.n}")
    n, k = state.n, len(directions)
    rng = np.random.default_rng(seed)
    settings = rng.integers(0, k, size=(shots, n), dtype=np.uint8)
    born = rng.random(shots)
    masks = rng.integers(0, 2, size=(shots, n), dtype=np.uint8)

    gates = np.array([rotation_gate(d) for d in directions])
    ideal_values = np.empty(shots, dtype=np.int64)
    for groups, weights in _born_weights(state.amplitudes, gates, settings):
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[:, -1:]
        for row, rows in zip(cdf, groups):
            ideal_values[rows] = np.searchsorted(row, born[rows], side="right")
    np.minimum(ideal_values, (1 << n) - 1, out=ideal_values)

    pre_noise = unpack_bits(ideal_values, n) ^ masks
    observed = model.sample_bits(pre_noise, rng)
    return TomographyDataset(n, directions, settings, observed ^ masks, seed=seed)


def _shade_cells(
    data: TomographyDataset, correlator: Correlator, xi: XiTable
) -> tuple[np.ndarray, np.ndarray]:
    """Bin records on the correlator's support and weigh each cell.

    A record's cell is its (setting, bit) pair on every support qubit,
    coded in mixed radix with digit 2*setting + bit per qubit, base 2k.
    Returns each observed cell's record count and unmitigated shade, the
    product of (-1)^bit * overlap(nu, mu) over the support.
    """
    if correlator.n != data.n:
        raise ValueError(f"correlator is on {correlator.n} qubits, dataset on {data.n}")
    if len(data) == 0:
        raise ValueError("empty tomography dataset")
    support = correlator.pattern.support()
    base = 2 * len(data.directions)
    if base ** len(support) > 1 << 63:
        raise CapabilityError(f"{base}^{len(support)} support cells overflow the int64 code")
    codes = np.zeros(len(data), dtype=np.int64)
    for j, qubit in enumerate(support):
        digit = 2 * data.setting_indices[:, qubit].astype(np.int64) + data.outcomes[:, qubit]
        codes += digit * base**j
    cells, counts = np.unique(codes, return_counts=True)
    shades = np.ones(len(cells))
    for j, qubit in enumerate(support):
        mu = correlator.observables[qubit]
        overlaps = [xi.half_overlap(d.label, mu) for d in data.directions]
        shades *= np.outer(overlaps, _PARITY_SIGNS).ravel()[cells // base**j % base]
    return counts, shades


def _resample_means(
    counts: np.ndarray,
    values: np.ndarray,
    size: int,
    resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Means of `resamples` draws of `size` records with replacement.

    A draw is a multinomial over cells weighted by their record counts,
    exactly the law of drawing the records themselves.  Blocks of at most
    _DRAW_BLOCK cell counts bound memory; numpy draws the rows of one call
    in sequence, so blocking leaves the stream as is.
    """
    if resamples < 2:
        raise ValueError(f"need >= 2 bootstrap resamples, got {resamples}")
    probabilities = counts / counts.sum()
    block = max(1, _DRAW_BLOCK // len(counts))
    draws = [
        rng.multinomial(size, probabilities, min(block, resamples - start)) @ values
        for start in range(0, resamples, block)
    ]
    return np.concatenate(draws) / size


def _bootstrap_report(
    counts: np.ndarray, values: np.ndarray, means: np.ndarray
) -> EstimateReport:
    """Count-weighted mean of the cell values, with the bootstrap means' sd."""
    records = int(counts.sum())
    return EstimateReport(
        float(counts @ values / records), float(np.std(means, ddof=1)), len(means), records
    )


def estimate_correlator_mitigated(
    data: TomographyDataset,
    cal: CalibrationDataset,
    correlator: Correlator,
    xi: XiTable,
    *,
    g_floor: float = G_FLOOR,
    g_override: float | None = None,
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    bootstrap_seed: int = 0,
    joint_bootstrap: bool = False,
) -> EstimateReport:
    """Readout-mitigated correlator estimate.

    Averages the mitigated shade over records, dividing by ghat(v) taken
    from the calibration dataset (used as-is even when negative; only the
    absolute floor trips an error).  The default stderr treats ghat(v) as
    fixed; joint_bootstrap=True also redraws ghat(v) per bootstrap
    replicate, over its two parity cells, which folds the calibration
    uncertainty into the stderr.  g_override substitutes a known exact
    component for ghat(v).
    """
    if cal.n != data.n:
        raise ValueError(f"calibration is on {cal.n} qubits, tomography on {data.n}")
    if g_override is None:
        g_hat = estimate_g(cal, correlator.pattern)
    else:
        g_hat = float(g_override)
    if abs(g_hat) < g_floor:
        raise UnmitigatableComponentError(
            f"|ghat(v)| = {abs(g_hat)} below floor {g_floor} for v={correlator.pattern}"
        )
    counts, raw = _shade_cells(data, correlator, xi)
    shades = raw / g_hat
    rng = np.random.default_rng(bootstrap_seed)
    means = _resample_means(counts, shades, len(data), bootstrap_resamples, rng)
    if joint_bootstrap:
        parity = _parity_counts(cal, correlator.pattern)
        g_means = _resample_means(parity, _PARITY_SIGNS, len(cal), bootstrap_resamples, rng)
        if np.any(np.abs(g_means) < g_floor):
            raise UnmitigatableComponentError(
                f"a bootstrap replicate of ghat(v) hit the floor {g_floor}"
            )
        means *= g_hat / g_means
    return _bootstrap_report(counts, shades, means)


def estimate_correlator_unmitigated(
    data: TomographyDataset,
    correlator: Correlator,
    xi: XiTable,
    *,
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    bootstrap_seed: int = 0,
) -> EstimateReport:
    """Plain shade average with no noise correction (the biased baseline)."""
    counts, shades = _shade_cells(data, correlator, xi)
    rng = np.random.default_rng(bootstrap_seed)
    means = _resample_means(counts, shades, len(data), bootstrap_resamples, rng)
    return _bootstrap_report(counts, shades, means)


def estimate_correlator_independent_model(
    data: TomographyDataset,
    correlator: Correlator,
    xi: XiTable,
    p10,
    p01,
    *,
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    bootstrap_seed: int = 0,
) -> EstimateReport:
    """Correlator estimate assuming independent per-qubit readout flips.

    Each support qubit's pair of outcome weights (+overlap, -overlap) is
    corrected by the inverse of that qubit's assumed 2x2 transition
    matrix, twirled first (its two flip rates average to p) because the
    data went through the XOR-twirl.  The pair is an eigenvector of the
    twirled matrix with eigenvalue 1 - 2p, so the shade is divided by the
    product of these, the model's g(v).  Exact when the true noise is
    independent flips at the assumed rates; crosstalk leaves residual
    bias, which is the point of carrying this estimator.
    """
    rates = 0.5 * (np.asarray(p10, dtype=float) + np.asarray(p01, dtype=float))
    support = list(correlator.pattern.support())
    eigenvalues = 1.0 - 2.0 * np.broadcast_to(rates, (correlator.n,))[support]
    singular = [q for q, e in zip(support, eigenvalues) if abs(e) < 1e-12]
    if singular:
        raise SingularNoiseError(
            f"assumed transition matrix of qubit {singular[0]} is singular"
        )
    counts, raw = _shade_cells(data, correlator, xi)
    values = raw / np.prod(eigenvalues)
    rng = np.random.default_rng(bootstrap_seed)
    means = _resample_means(counts, values, len(data), bootstrap_resamples, rng)
    return _bootstrap_report(counts, values, means)


def median_of_means(values, groups: int) -> float:
    """Median of the means of `groups` contiguous blocks; groups=1 is the mean."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if not 1 <= groups <= values.size:
        raise ValueError(f"groups must lie in [1, {values.size}], got {groups}")
    return float(np.median([block.mean() for block in np.array_split(values, groups)]))


def _check_bound_args(epsilon: float, delta: float, g: float) -> None:
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if g == 0.0:
        raise ValueError("g must be nonzero")


def calibration_sample_bound(epsilon: float, delta: float, g: float = 1.0) -> int:
    """Smallest integer shot count exceeding -32 ln(delta/2) / (epsilon g)^2."""
    _check_bound_args(epsilon, delta, g)
    bound = -32.0 * math.log(delta / 2.0) / epsilon**2 / g**2
    return math.floor(bound) + 1


def tomography_sample_bound(
    epsilon: float, delta: float, kappa: float, degree: int, g: float = 1.0
) -> int:
    """Smallest integer shot count exceeding
    -2 ln(delta/2)/epsilon^2 * kappa^(2 degree) / g^2."""
    _check_bound_args(epsilon, delta, g)
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    bound = -2.0 * math.log(delta / 2.0) / epsilon**2 * kappa ** (2 * degree) / g**2
    return math.floor(bound) + 1


def random_correlators(
    n: int,
    degrees,
    count_per_degree: int,
    seed: int,
    directions: tuple[Direction, ...] | None = None,
) -> list[Correlator]:
    """Draw correlators with uniform support patterns of each requested
    degree and observable directions uniform over the given set."""
    if count_per_degree < 1:
        raise ValueError(f"count_per_degree must be >= 1, got {count_per_degree}")
    directions = tuple(directions) if directions is not None else pauli_directions()
    rng = np.random.default_rng(seed)
    out: list[Correlator] = []
    for degree in degrees:
        if not 1 <= degree <= n:
            raise ValueError(f"degree must lie in [1, {n}], got {degree}")
        for _ in range(count_per_degree):
            qubits = sorted(int(q) for q in rng.choice(n, size=degree, replace=False))
            pattern = BitString(n, sum(1 << q for q in qubits))
            observables = {q: directions[int(rng.integers(len(directions)))] for q in qubits}
            out.append(Correlator(pattern, observables))
    return out
