"""Sampling protocols and estimators.

Calibration: prepare |0...0>, draw a random mask t, flip those qubits,
read out through the noisy channel, XOR the observed string with t, and
record the result.  The records are then samples of the twirled row
Rbar(. | 0), and ghat(w) is their empirical (-1)^(w.s) average.

Tomography: per shot, draw a uniform setting from S^n, rotate each qubit
into its measurement basis, and push the ideal outcome through the same
XOR-twirl sandwich before recording (setting, outcome).

Datasets are stored as column-major (M, n) uint8 arrays (column i =
qubit i, contiguous); record accessors return the usual value types.
All functions draw from a caller-supplied seed through a fresh numpy
Generator, with the draw order documented per function, so datasets are
reproducible bit-for-bit.

Estimation works on count tables: every estimator averages a product of
per-qubit weights w_q[setting, bit] over the support, so only the record
count of each (setting, bit) cell of the support enters; ghat(w) for
every w is one Walsh transform of the calibration's outcome histogram.
The three correlator estimators share one table of unmitigated shades
and differ only in the g(v) they divide it by: ghat(v) (mitigated), 1
(unmitigated) or the independent-flip model's prod (1 - p10 - p01)
(indep).  Bootstrap and subsample draws are multinomial over the cells,
exactly the law of drawing records with replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitspace import BitString, walsh_transform
from .exceptions import CapabilityError, SingularNoiseError, UnmitigatableComponentError
from .noise import NoiseModel
from .qsim import (
    Correlator,
    EXACT_SIM_MAX_QUBITS,
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

# amplitudes or flag-table entries one chunk of shots may hold while
# descending the outcome tree: 2^20 // max(2^n, k) shots per chunk, as a
# node holds up to 2^n amplitudes and its flag tables k entries (a fixed
# 16,384-shot chunk peaked at 103 MiB of node tables at n=12)
_TREE_AMPLITUDES = 1 << 20

# setting indices are stored as uint8
_MAX_DIRECTIONS = 256


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Collapse an (..., n) bit array to integer values (column 0 = LSB)."""
    bits = np.asarray(bits)
    values = np.zeros(bits.shape[:-1], dtype=np.int64)
    for i in range(bits.shape[-1]):  # one column at a time: no (..., n) int64 temporary
        values |= bits[..., i].astype(np.int64) << i
    return values


def unpack_bits(values: np.ndarray, n: int) -> np.ndarray:
    """Expand integer values to an (..., n) uint8 bit array (column 0 = LSB)."""
    values = np.asarray(values, dtype=np.int64)
    bits = np.empty(values.shape + (n,), dtype=np.uint8)
    for i in range(n):  # one column at a time: no (..., n) int64 temporaries
        bits[..., i] = (values >> i) & 1
    return bits


@dataclass(frozen=True)
class CalibrationDataset:
    """Twirl-corrected calibration bitstrings as a column-major (M, n) uint8 array."""

    n: int
    outcomes: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        outcomes = np.asarray(self.outcomes, dtype=np.uint8, order="F")
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
    """Generalised outcomes (setting, bitstring) as column-major (M, n) uint8 arrays."""

    n: int
    directions: tuple[Direction, ...]
    setting_indices: np.ndarray
    outcomes: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_direction_count(len(self.directions))
        settings = np.asarray(self.setting_indices, dtype=np.uint8, order="F")
        outcomes = np.asarray(self.outcomes, dtype=np.uint8, order="F")
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
    return CalibrationDataset(model.n, np.bitwise_xor(observed, t, order="F"), seed=seed)


def _outcome_counts(cal: CalibrationDataset) -> np.ndarray:
    """Record count of every outcome value: a table of 2^n int64 counts."""
    if cal.n > EXACT_SIM_MAX_QUBITS:
        raise CapabilityError(f"n={cal.n} exceeds the {EXACT_SIM_MAX_QUBITS}-qubit outcome table")
    if len(cal) == 0:
        raise ValueError("empty calibration dataset")
    return np.bincount(pack_bits(cal.outcomes), minlength=1 << cal.n)


def _parity_sums(cal: CalibrationDataset) -> np.ndarray:
    """ghat(w) times the record count for every w; exact (integer partial sums < 2^53)."""
    return walsh_transform(_outcome_counts(cal))


def estimate_g(data: CalibrationDataset, w: BitString) -> float:
    """Empirical Fourier component ghat(w) = mean of (-1)^(w.s) over records."""
    if w.n != data.n:
        raise ValueError(f"pattern has {w.n} bits, dataset has {data.n}")
    return float(_parity_sums(data)[w.value] / len(data))


def _dense_ids(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of an int array over [0, size), ascending, and the
    index of each entry among them: a flag table instead of a sort."""
    seen = np.zeros(size, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[values]


def _tree_outcomes(
    amplitudes: np.ndarray, gates: np.ndarray, settings: np.ndarray, born: np.ndarray
) -> np.ndarray:
    """Ideal outcome value of every shot: the inverse CDF of its setting's
    Born distribution at its variate, drawn one qubit at a time.

    Outcome values ascend with qubit n-1 as the top bit, so the draw walks
    down the outcome tree from qubit n-1.  A node at level q holds the
    2^(q+1) amplitudes left once the bits above q are fixed; rotating its
    top qubit by the shot's gate gives p0, the squared norm of the bit-0
    half, and the shot takes bit 1 iff its residual variate (starting at
    u * <psi|psi>) is >= p0, which it then loses.  Gates on the lower
    qubits leave these marginals as they are, so no full rotated table is
    built.  Shots sorted by setting (qubit n-1 first) share their nodes
    while their (setting, bit) prefixes agree; chunks of _TREE_AMPLITUDES
    // max(2^n, k) shots bound both the node tables and a level's flag
    tables, which hold k entries per node.
    """
    shots, n = settings.shape
    k = len(gates)
    order = np.lexsort(settings.T)  # the last key, qubit n-1, is the primary one
    values = np.empty(shots, dtype=np.int64)
    root = amplitudes.reshape(1, 2, -1)
    norm = np.vdot(amplitudes, amplitudes).real
    chunk = max(1, _TREE_AMPLITUDES // max(1 << n, k))
    for start in range(0, shots, chunk):
        rows = order[start : start + chunk]
        resid = born[rows] * norm
        value = np.zeros(len(rows), dtype=np.int64)
        node = np.zeros(len(rows), dtype=np.intp)
        nodes = root
        for q in range(n - 1, -1, -1):
            pairs, pair = _dense_ids(node * k + settings[rows, q], len(nodes) * k)
            rotated = np.matmul(gates[pairs % k], nodes[pairs // k])
            low = rotated[:, 0]
            p0 = np.einsum("ij,ij->i", low.real, low.real)
            p0 += np.einsum("ij,ij->i", low.imag, low.imag)
            p0 = p0[pair]
            bit = resid >= p0
            np.subtract(resid, p0, out=resid, where=bit)
            value += bit.astype(np.int64) << q
            if q:
                children, node = _dense_ids(2 * pair + bit, 2 * len(pairs))
                nodes = rotated.reshape(2 * len(pairs), 2, -1)[children]
        values[rows] = value
    return values


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
    channel's samples.

    Each Born draw is the inverse CDF of its setting's rotated
    distribution at the shot's variate u: the outcome x with
    P(< x) <= u * total < P(<= x).  It is drawn qubit by qubit down the
    outcome tree (see _tree_outcomes), so no shot needs its setting's
    full 2^n table and shots with a common setting prefix share work.
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
    settings = np.asfortranarray(rng.integers(0, k, size=(shots, n), dtype=np.uint8))
    born = rng.random(shots)
    masks = rng.integers(0, 2, size=(shots, n), dtype=np.uint8)

    gates = np.array([rotation_gate(d) for d in directions])
    ideal_values = _tree_outcomes(state.amplitudes, gates, settings, born)

    pre_noise = unpack_bits(ideal_values, n) ^ masks
    observed = model.sample_bits(pre_noise, rng)
    outcomes = np.bitwise_xor(observed, masks, order="F")  # the dataset's layout: no copy
    return TomographyDataset(n, directions, settings, outcomes, seed=seed)


def _shade_cells(
    data: TomographyDataset, correlator: Correlator, xi: XiTable
) -> tuple[np.ndarray, np.ndarray]:
    """Bin records on the correlator's support and weigh each cell.

    A record's cell is its (setting, bit) pair on every support qubit,
    coded in mixed radix with digit 2*setting + bit per qubit, base 2k, in
    the narrowest unsigned dtype.  A code space no larger than the record
    count is counted by bincount, a larger one sorted.  Returns each
    observed cell's record count and unmitigated shade, the product of
    (-1)^bit * overlap(nu, mu) over the support, in code order.
    """
    if correlator.n != data.n:
        raise ValueError(f"correlator is on {correlator.n} qubits, dataset on {data.n}")
    if len(data) == 0:
        raise ValueError("empty tomography dataset")
    support = correlator.pattern.support()
    base = 2 * len(data.directions)
    space = base ** len(support)
    if space > 1 << 64:
        raise CapabilityError(f"{base}^{len(support)} support cells overflow a 64-bit code")
    dtype = np.min_scalar_type(space - 1)
    codes = np.zeros(len(data), dtype=dtype)
    digit = np.empty(len(data), dtype=dtype)  # one buffer: no temporaries per qubit
    for j, qubit in enumerate(support):
        np.multiply(data.setting_indices[:, qubit], 2, out=digit, dtype=dtype, casting="unsafe")
        digit += data.outcomes[:, qubit]
        digit *= dtype.type(base**j)
        codes += digit
    if space <= len(data):
        table = np.bincount(codes, minlength=space)
        cells = np.flatnonzero(table)
        counts = table[cells]
    else:
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
    counts: np.ndarray, values: np.ndarray, resamples: int, seed: int
) -> EstimateReport:
    """Count-weighted mean of the cell values, with the sd of `resamples`
    bootstrap means drawn from a generator seeded with `seed`."""
    records = int(counts.sum())
    rng = np.random.default_rng(seed)
    means = _resample_means(counts, values, records, resamples, rng)
    return EstimateReport(
        float(counts @ values / records), float(np.std(means, ddof=1)), resamples, records
    )


def _g_hat(g: np.ndarray, pattern: BitString) -> float:
    """ghat(v) read from a calibration's spectrum g (ghat of every w, see
    _parity_sums), used as-is even when negative; only the absolute floor
    G_FLOOR refuses it."""
    if len(g) != 1 << pattern.n:
        raise ValueError(f"pattern has {pattern.n} bits, spectrum has {len(g)} entries")
    g_hat = float(g[pattern.value])
    if abs(g_hat) < G_FLOOR:
        raise UnmitigatableComponentError(
            f"|ghat(v)| = {abs(g_hat)} below floor {G_FLOOR} for v={pattern}"
        )
    return g_hat


def _g_independent(correlator: Correlator, p10, p01) -> float:
    """g(v) of independent per-qubit flips: prod over the support of 1 - 2p.

    The data went through the XOR-twirl, so each qubit's assumed 2x2
    transition matrix is twirled first (its two flip rates average to p).
    A shade's pair of outcome weights (+overlap, -overlap) is an
    eigenvector of that matrix with eigenvalue 1 - 2p.
    """
    rates = 0.5 * (np.asarray(p10, dtype=float) + np.asarray(p01, dtype=float))
    support = list(correlator.pattern.support())
    eigenvalues = 1.0 - 2.0 * np.broadcast_to(rates, (correlator.n,))[support]
    singular = [q for q, e in zip(support, eigenvalues) if abs(e) < 1e-12]
    if singular:
        raise SingularNoiseError(
            f"assumed transition matrix of qubit {singular[0]} is singular"
        )
    return float(np.prod(eigenvalues))


def estimate_correlator_mitigated(
    data: TomographyDataset,
    cal: CalibrationDataset,
    correlator: Correlator,
    xi: XiTable,
    *,
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    bootstrap_seed: int = 0,
) -> EstimateReport:
    """Readout-mitigated correlator estimate: the shades divided by ghat(v)
    from the calibration dataset.  The stderr treats ghat(v) as fixed."""
    if cal.n != data.n:
        raise ValueError(f"calibration is on {cal.n} qubits, tomography on {data.n}")
    g_hat = _g_hat(_parity_sums(cal) / len(cal), correlator.pattern)
    counts, shades = _shade_cells(data, correlator, xi)
    return _bootstrap_report(counts, shades / g_hat, bootstrap_resamples, bootstrap_seed)


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
    return _bootstrap_report(counts, shades, bootstrap_resamples, bootstrap_seed)


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
    """Correlator estimate assuming independent per-qubit readout flips:
    the shades divided by the model's g(v) (see _g_independent).  Exact
    when the true noise is independent flips at the assumed rates;
    crosstalk leaves residual bias, which is the point of carrying this
    estimator."""
    g = _g_independent(correlator, p10, p01)
    counts, shades = _shade_cells(data, correlator, xi)
    return _bootstrap_report(counts, shades / g, bootstrap_resamples, bootstrap_seed)


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
