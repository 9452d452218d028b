"""Sampling protocols and estimators.

Calibration: prepare |0...0>, draw a random mask t, flip those qubits,
read out through the noisy channel, XOR the observed string with t, and
record the result.  The records are then samples of the twirled row
Rbar(. | 0), and ghat(w) is their empirical (-1)^(w.s) average.

Tomography: per shot, draw a uniform setting from S^n, rotate each qubit
into its measurement basis, and push the ideal outcome through the same
XOR-twirl sandwich before recording (setting, outcome).

Under the twirl a record is its ideal bits XOR a flip pattern
(_twirl_flips), which both collectors XOR into their one dataset array: a
tomography's is its setting matrix, made digits in place with the Born
draw's ideal bits ORed in.

A dataset is one column-major (M, n) array (column i = qubit i,
contiguous) checked by one rule (_dataset_array): a calibration's bits,
or a tomography record's digit 2*setting + bit (its 2k-outcome result).
All functions draw from a caller-supplied seed through a fresh numpy
Generator, with the draw order documented per function, so datasets are
reproducible bit-for-bit.

Estimation works on count tables: every estimator averages a product of
per-qubit weights w_q[setting, bit] over the support, so only the record
count of each (setting, bit) cell of the support enters; ghat(w) for
every w is one Walsh transform of the calibration's outcome histogram
(CalibrationDataset.outcome_counts), made once per dataset
(CalibrationDataset.spectrum).  The shade kernel (_shade_tables) is one
pass over a batch of correlators: it bins the records once per maximal
support and each nested support from its container's cells, weighted by
their counts, by one tally (_record_cells) of digit tables.  One estimator,
estimate_correlators, serves one correlator or many and the mitigated,
unmitigated and indep columns alike: it divides a support's table of
unmitigated shades by each g(v) it is handed, ghat(v) (g_hat), 1 or the
independent-flip model's prod (1 - p10 - p01) (independent_g).
Bootstrap draws are multinomial over the cells, exactly the law of
drawing records with replacement.  Every (table, divisor) pair is one
bootstrap stream with its own seed, so the streams are independent: the
large ones are queued on a standard-library thread pool, imported only
when one is needed, and the calling thread draws whatever no worker has
started (_bootstrap_streams); no result depends on which CPU drew it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitspace import BitString, walsh_transform
from .exceptions import CapabilityError, SingularNoiseError, UnmitigatableComponentError
from .noise import ChainCrosstalkModel, _row_blocks
from .qsim import (
    Correlator,
    EXACT_SIM_MAX_QUBITS,
    Direction,
    StateVector,
    _check_direction_labels,
    pauli_directions,
    rotation_gate,
)
from .shadows import G_FLOOR, compute_xi, half_overlap

# value of each parity cell (-1)^bit, bit 0 first
_PARITY_SIGNS = np.array([1.0, -1.0])

# cell counts one sub-block of a bootstrap stream holds at once, as int64
# draws and their float64 cast (64 KiB each), in a multiple of 4 rows; 4
# rows when fewer do not fit (past 2,048 cells)
_PRODUCT_CELLS = 1 << 13

# a bootstrap stream of at least this many cell counts (resamples x cells)
# is large: it may run on a worker thread, since Generator.multinomial
# draws without the GIL; a smaller one runs inline, as a thread's
# hand-off costs more than its draws
_LARGE_STREAM = 1 << 14

# rows per block of a dense tally at least (_dense_tally): at n = 10 with
# 500k records and 80 correlators the shade kernel took 42 ms in blocks of
# noise._BLOCK_ROWS = 2^14 rows, 36 ms in 2^16-row blocks and 37 ms as one
# record-sized bincount, whose intp copy of the codes is 8 bytes a record
_TALLY_ROWS = 1 << 16

# amplitudes or flag-table entries one chunk of shots may hold at the
# root of the outcome tree: 2^20 // max(2^n, k) shots, as the root holds
# 2^n amplitudes and its flag tables k entries (a fixed 16,384-shot chunk
# peaked at 103 MiB of node tables at n=12)
_TREE_AMPLITUDES = 1 << 20

# setting indices read out as uint8 (record digits are uint16 at most)
_MAX_DIRECTIONS = 256

# shots of one dataset, refused past by both collectors: the Born draw sorts
# them by uint32 indices, and float64 sums of record counts stay exact (< 2^53)
MAX_SHOTS = 2**32 - 1


def _dataset_array(values, n: int, limit: int, what: str) -> np.ndarray:
    """`values` as a dataset's column-major (M, n) array in the narrowest
    unsigned dtype that holds limit - 1.  n must be >= 1, the shape (M, n)
    and every entry an integer in [0, limit); all are checked before the
    cast, which for uint8 would turn 256 into 0 and -1 into 255."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError(f"expected an (M, {n}) array of {what}, got {values.shape}")
    if values.size and (
        values.dtype.kind not in "biu" or values.min() < 0 or values.max() >= limit
    ):
        raise ValueError(f"{what} must be integers in [0, {limit})")
    return np.asarray(values, dtype=np.min_scalar_type(limit - 1), order="F")


@dataclass(frozen=True)
class CalibrationDataset:
    """Twirl-corrected calibration bitstrings as a column-major (M, n) uint8 array."""

    n: int
    outcomes: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", _dataset_array(self.outcomes, self.n, 2, "outcome bits"))

    def __len__(self) -> int:
        return self.outcomes.shape[0]

    @functools.cached_property
    def outcome_counts(self) -> np.ndarray:
        """Record count of every outcome value, a table of 2^n int64 counts
        (n <= EXACT_SIM_MAX_QUBITS): each record's bits coded at base 2
        and counted in row blocks (_dense_tally).  The one count of the
        records that the spectrum and the calibration summary read; built
        on first use and kept read-only by this dataset."""
        if self.n > EXACT_SIM_MAX_QUBITS:
            raise CapabilityError(f"n={self.n} exceeds the {EXACT_SIM_MAX_QUBITS}-qubit outcome table")
        if len(self) == 0:
            raise ValueError("empty calibration dataset")
        counts = _dense_tally(self.outcomes, range(self.n), 2)
        counts.flags.writeable = False
        return counts

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Empirical Fourier component ghat(w) = mean of (-1)^(w.s) over the
        records, for every w (indexed by w's value); n <= EXACT_SIM_MAX_QUBITS.
        The Walsh transform of the counts is exact (integer partial sums
        < 2^53).  Built on first use and kept read-only by this dataset."""
        spectrum = walsh_transform(self.outcome_counts) / len(self)
        spectrum.flags.writeable = False
        return spectrum


def _check_direction_count(k: int) -> None:
    if k > _MAX_DIRECTIONS:
        raise CapabilityError(
            f"{k} directions exceed the {_MAX_DIRECTIONS} that uint8 setting indices hold"
        )


@dataclass(frozen=True)
class TomographyDataset:
    """Generalised outcomes (setting, bitstring) as one column-major (M, n)
    array of digits 2*setting + bit: uint8 up to k = 128 directions, else uint16."""

    n: int
    directions: tuple[Direction, ...]
    digits: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_direction_count(len(self.directions))
        limit = 2 * len(self.directions)
        object.__setattr__(self, "digits", _dataset_array(self.digits, self.n, limit, "record digits"))

    def __len__(self) -> int:
        return self.digits.shape[0]

    @property
    def setting_indices(self) -> np.ndarray:
        """Setting indices, derived: a new column-major (M, n) uint8 array."""
        return np.asarray(self.digits >> 1, dtype=np.uint8, order="F")

    @property
    def outcomes(self) -> np.ndarray:
        """Outcome bits, derived: a new column-major (M, n) uint8 array."""
        return np.asarray(self.digits & 1, dtype=np.uint8, order="F")


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate with its bootstrap standard error."""

    estimate: float
    stderr: float

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def _twirl_flips(
    model: ChainCrosstalkModel, shots: int, rng: np.random.Generator, digits=None
) -> np.ndarray:
    """The flip pattern the X-twirled channel puts on `shots` shots, as a
    column-major (M, n) uint8 array: a shot's record is its ideal bits,
    the low bits of `digits` (all zero when None), XOR this pattern.

    The twirl flips the ideal bits by a mask t before the channel and its
    readout by t after it, so the pattern is the one the channel draws on
    t XOR ideal.  Draw order: t, then the channel's samples.  t is drawn
    straight into the pattern's array in row blocks (_row_blocks), each
    XORed with its rows' ideal bits: integers(0, 2, dtype=uint8) spends
    one byte of a buffered 32-bit word per value and drops the buffer at
    the end of a call, so calls of a multiple of 4 values give the stream
    of one call.  The model then overwrites the array with its flip
    pattern; no other (M, n) array is made.
    """
    flips = np.empty((shots, model.n), dtype=np.uint8, order="F")
    for rows in _row_blocks(shots):
        block = flips[rows]
        block[...] = rng.integers(0, 2, size=block.shape, dtype=np.uint8)
        if digits is not None:
            block ^= digits[rows] & 1
    return model.sample_bits(flips, rng)


def _check_shots(shots: int) -> None:
    """Both collectors' shot rule, checked before any generator is made."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")


def run_calibration(model: ChainCrosstalkModel, shots: int, seed: int) -> CalibrationDataset:
    """Collect twirled calibration records from the all-zeros state.

    Per shot: draw t uniformly; the ideal readout is t itself (the flip
    layer maps |0...0> to |t>); sample the noisy readout; XOR with t.  The
    ideal bits are zero, so a record is the twirl's flip pattern
    (_twirl_flips).  Draw order: the full (shots, n) t matrix, then the
    channel's samples.  At most MAX_SHOTS shots, which keeps the
    spectrum's sums exact.
    """
    _check_shots(shots)
    rng = np.random.default_rng(seed)
    return CalibrationDataset(model.n, _twirl_flips(model, shots, rng), seed=seed)


def _cell_codes(digits: np.ndarray, qubits: Sequence[int], base: int) -> np.ndarray:
    """Mixed-radix code of every record's digits on `qubits` at `base`,
    qubits[0] least significant, in the narrowest unsigned dtype that
    holds base^len(qubits) codes; Horner's rule from the last qubit down
    keeps every partial code in range.  At base 2 over all qubits of the
    outcome bits, a code is the outcome's value."""
    dtype = np.min_scalar_type(base ** len(qubits) - 1)
    codes = np.zeros(len(digits), dtype=dtype)
    for j, qubit in enumerate(reversed(qubits)):
        if j:
            codes *= dtype.type(base)
        codes += digits[:, qubit]
    return codes


def _dense_tally(
    digits: np.ndarray, qubits: Sequence[int], base: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Count of every code in [0, base^len(qubits)) over the rows of
    `digits` coded on `qubits` (_cell_codes), a row standing for `weights`
    records (one when None): int64 counts, or float64 sums of the weights.
    The rows are coded and bincounted one block at a time, in blocks of
    at least _TALLY_ROWS rows and of the code space, so no record-sized
    code or intp array is made and a block's table costs no more than its
    rows."""
    space = base ** len(qubits)
    tally = np.zeros(space, dtype=np.int64 if weights is None else np.float64)
    for rows in _row_blocks(len(digits), max(_TALLY_ROWS, space)):
        block_weights = None if weights is None else weights[rows]
        tally += np.bincount(_cell_codes(digits[rows], qubits, base), block_weights, minlength=space)
    return tally


def _dense_ids(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of an int array over [0, size), ascending, and the
    index of each entry among them: a flag table instead of a sort."""
    seen = np.zeros(size, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen), np.cumsum(seen)[values] - 1


def _tree_chunk(shots: int, n: int, k: int) -> int:
    """Shots per chunk of the outcome-tree descent: the larger of the root
    rule's _TREE_AMPLITUDES // max(2^n, k) and the largest chunk whose
    worst-case level fits in the dataset's M * n bytes.  Level q
    holds two complex tables of up to min(chunk, k^(n-q) 2^(n-1-q)) pairs
    of 2^(q+1) amplitudes, and flag tables of k entries (a bool and an
    int64 count) per node, of which there are min(chunk, (2k)^(n-1-q));
    this bounds any setting matrix, not only a uniform one."""

    def level_bytes(chunk: int) -> int:
        return max(
            (32 * min(chunk, k ** (n - q) << (n - 1 - q)) << (q + 1))
            + 9 * k * min(chunk, (2 * k) ** (n - 1 - q))
            for q in range(n)
        )

    low, high = max(1, _TREE_AMPLITUDES // max(1 << n, k)), shots
    while low < high:  # level_bytes grows with the chunk
        mid = (low + high + 1) // 2
        low, high = (mid, high) if level_bytes(mid) <= shots * n else (low, mid - 1)
    return low


def _tree_outcomes(
    amplitudes: np.ndarray, gates: np.ndarray, settings: np.ndarray, variates
) -> np.ndarray:
    """Ideal outcome value of every shot, an (M,) array in shot order of
    the narrowest unsigned dtype that holds 2^n - 1: the inverse CDF of
    its setting's Born distribution at its variate, drawn one qubit at a
    time.  `variates(M)` gives the M variates; it is called once the
    shots' sort order is made, so that lexsort's intp result and the
    variates are never held together.

    Outcome values ascend with qubit n-1 as the top bit, so the draw walks
    down the outcome tree from qubit n-1.  A node at level q holds the
    2^(q+1) amplitudes left once the bits above q are fixed; rotating its
    top qubit by the shot's gate gives p0, the squared norm of the bit-0
    half, and the shot takes bit 1 iff its residual variate (starting at
    u * <psi|psi>) is >= p0, which it then loses; each level shifts the
    decision into the shot's value as its new low bit, and a chunk's values
    are put in shot order by one scatter.  Gates on the lower qubits leave
    these marginals as they are, so no full rotated table is built.  Shots
    sorted by setting (qubit n-1 first) share their nodes while their
    (setting, bit) prefixes agree; a level gathers its parents from the
    last level's rotation, which it frees before rotating them, and
    _tree_chunk sizes the chunks of shots.
    """
    shots, n = settings.shape
    k = len(gates)
    # qubit n-1 is the primary key; the uint32 order (shots <= MAX_SHOTS) is
    # made first, so that lexsort's freed intp result leaves no hole in the
    # heap below it
    order = np.empty(shots, dtype=np.uint32)
    order[:] = np.lexsort(settings.T)
    born = variates(shots)
    values = np.empty(shots, dtype=np.min_scalar_type((1 << n) - 1))
    norm = np.vdot(amplitudes, amplitudes).real
    chunk = _tree_chunk(shots, n, k)
    for start in range(0, shots, chunk):
        rows = order[start : start + chunk]
        resid = born[rows] * norm
        value = np.zeros(len(rows), dtype=values.dtype)
        node = np.zeros(len(rows), dtype=np.intp)
        rotated, children = amplitudes, np.zeros(1, dtype=np.intp)  # the root
        for q in range(n - 1, -1, -1):
            pairs, pair = _dense_ids(node * k + settings[rows, q], len(children) * k)
            parents = rotated.reshape(-1, 2, 1 << q)[children[pairs // k]]
            del rotated  # a level holds two tables: the parents and their rotation
            rotated = np.matmul(gates[pairs % k], parents)
            del parents
            p0 = np.einsum("ij,ij->i", rotated[:, 0].real, rotated[:, 0].real)
            p0 += np.einsum("ij,ij->i", rotated[:, 0].imag, rotated[:, 0].imag)
            p0 = p0[pair]
            bit = resid >= p0
            np.subtract(resid, p0, out=resid, where=bit)
            value <<= 1
            value |= bit
            if q:
                children, node = _dense_ids(2 * pair + bit, 2 * len(pairs))
        values[rows] = value
    return values


def run_tomography(
    state: StateVector,
    directions: tuple[Direction, ...] | list[Direction],
    model: ChainCrosstalkModel,
    shots: int,
    seed: int,
) -> TomographyDataset:
    """Collect X-twirled tomography records for a fixed state.

    Per shot: draw a uniform setting over the direction set, rotate, draw
    the ideal outcome from the Born distribution, flip by a fresh mask t,
    push through the noisy channel, unflip, and record (setting, outcome).

    Draw order: the (shots, n) uint8 setting matrix, then one uniform
    variate per shot for the Born draw, then the (shots, n) t matrix, then
    the channel's samples.

    Each Born draw is the inverse CDF of its setting's rotated
    distribution at the shot's variate u: the outcome x with
    P(< x) <= u * total < P(<= x).  It is drawn qubit by qubit down the
    outcome tree (see _tree_outcomes), so no shot needs its setting's
    full 2^n table and shots with a common setting prefix share work; it
    gives each shot's ideal outcome value.  The setting matrix becomes the
    records' digit array (a widened copy past k = 128): shifted to 2*setting,
    with each ideal bit ORed in, then XORed with the twirl's flip pattern
    (_twirl_flips).  So a run holds the settings, one (M,) array each of
    the sort order, the variates and the values, and a chunk of the tree,
    then the digits and the flip pattern.  Any direction set is collected
    (parse_config and the estimators refuse one that is not
    informationally complete).  At most MAX_SHOTS shots.
    """
    _check_shots(shots)
    directions = tuple(directions)
    _check_direction_labels([d.label for d in directions])
    _check_direction_count(len(directions))
    if model.n != state.n:
        raise ValueError(f"noise model is on {model.n} qubits, state on {state.n}")
    n, k = state.n, len(directions)
    rng = np.random.default_rng(seed)
    settings = np.asfortranarray(rng.integers(0, k, size=(shots, n), dtype=np.uint8))
    gates = np.array([rotation_gate(d) for d in directions])
    values = _tree_outcomes(state.amplitudes, gates, settings, rng.random)
    # digits 2*setting + ideal bit, in the settings' array (a copy past k = 128)
    digits = settings.astype(np.min_scalar_type(2 * k - 1), copy=False)
    del settings
    digits <<= 1
    for q in range(n):
        digits[:, q] |= (values >> q) & 1
    del values
    digits ^= _twirl_flips(model, shots, rng, digits)
    return TomographyDataset(n, directions, digits, seed=seed)


def _record_cells(
    digits: np.ndarray, support: Sequence[int], base: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bin a record set on the support, one pass over its rows.

    A row of `digits` holds a record's digit 2*setting + bit on every
    qubit and stands for `weights` records (one when None).  Rows are
    coded on the support at base 2k (_cell_codes) and tallied in row
    blocks (_dense_tally), or by bincount over np.unique's inverse when
    the code space exceeds the row count.  Weighted sums are float64 but
    exact, as no dataset exceeds MAX_SHOTS < 2^53 records.  Returns, in
    code order, each observed cell's digits on the support as a
    column-major (cells, d) table of the digits' dtype (read off the codes
    by Python-int powers, so uint64 codes keep their low digits) and its
    int64 record count.
    """
    if base ** len(support) <= len(digits):
        tally = _dense_tally(digits, support, base, weights)
        codes = np.flatnonzero(tally)
        tally = tally[codes]
    else:
        codes, inverse = np.unique(_cell_codes(digits, support, base), return_inverse=True)
        tally = np.bincount(inverse, weights)
    cells = np.empty((len(codes), len(support)), digits.dtype, order="F")
    for j in range(len(support)):
        cells[:, j] = codes // base**j % base
    return cells, tally.astype(np.int64, copy=False)


def _shade_tables(
    data: TomographyDataset, correlators: Sequence[Correlator]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Count table and unmitigated shades of every correlator's support, in
    correlator order.

    The shadow operators xi are those of the dataset's own direction set
    (compute_xi), in setting order; a set that is not informationally
    complete, or a degree whose cells overflow a 64-bit code, is refused
    before any record is binned.

    Correlators are taken in descending degree (ties in list order).  A
    support inside an already binned one, its container, is tallied
    (_record_cells) on the container's cell table, one row per cell
    weighted by its count; any other is binned from the dataset's digits
    and becomes a container, so the records are binned once per distinct
    maximal support.  A cell's shade is the product over the
    support of (-1)^bit * overlap(nu, mu), each factor read off by the
    cell's digit from its observable's table.
    """
    for correlator in correlators:
        if correlator.n != data.n:
            raise ValueError(f"correlator is on {correlator.n} qubits, dataset on {data.n}")
    if len(data) == 0:
        raise ValueError("empty tomography dataset")
    operators = compute_xi(data.directions)
    base = 2 * len(data.directions)
    degree = max((correlator.degree for correlator in correlators), default=0)
    if base**degree > 1 << 64:
        raise CapabilityError(f"{base}^{degree} support cells overflow a 64-bit code")
    factors = {  # cell digit -> factor, per observable
        mu: np.outer([half_overlap(op, mu) for op in operators], _PARITY_SIGNS).ravel()
        for mu in set().union(*(c.observables.values() for c in correlators))
    }
    containers: list = []  # (pattern, support, cells, counts) of every binned support
    tables: list = [None] * len(correlators)
    for index in sorted(range(len(correlators)), key=lambda i: -correlators[i].degree):
        correlator = correlators[index]
        pattern, support = correlator.pattern.value, correlator.pattern.support()
        for outer, outer_support, outer_cells, outer_counts in containers:
            if pattern & ~outer == 0:
                if support == outer_support:  # its own table: no second tally
                    cells, counts = outer_cells, outer_counts
                else:
                    positions = [outer_support.index(q) for q in support]
                    cells, counts = _record_cells(outer_cells, positions, base, outer_counts)
                break
        else:
            cells, counts = _record_cells(data.digits, support, base)
            containers.append((pattern, support, cells, counts))
        shades = np.ones(len(cells))
        for j, qubit in enumerate(support):
            shades *= factors[correlator.observables[qubit]][cells[:, j]]
        tables[index] = (counts, shades)
    return tables


def _resample_means(
    counts: np.ndarray, values: np.ndarray, resamples: int, rng: np.random.Generator
) -> np.ndarray:
    """Means of `resamples` draws, with replacement, of as many records as
    the table holds: multinomials over the cells weighted by their record
    counts, exactly the law of drawing the records themselves.

    The draws are made and multiplied (`draws @ values`) in sub-blocks of
    at most _PRODUCT_CELLS cell counts, or 4 rows past 2,048 cells, which
    bounds memory.  numpy draws a multinomial's rows in sequence, so the
    split moves no integer draw, nor a mean: OpenBLAS's matrix-vector
    kernel groups rows by 4, so a product split a multiple of 4 rows in
    equals the unsplit one, but numpy hands a one-row part to a dot
    product.  So each sub-block but the last has a multiple of 4 rows, and
    the last takes in a lone last row.  A sub-block is too small for
    OpenBLAS to split between its threads, so the means do not depend on
    the BLAS thread count either.
    """
    size = int(counts.sum())
    probabilities = counts / size
    step = max(4, _PRODUCT_CELLS // len(counts) // 4 * 4)
    means = np.empty(resamples)
    starts = range(0, max(1, resamples - 1), step)  # a lone last row joins the last sub-block
    for low in starts:
        high = resamples if low == starts[-1] else low + step
        means[low:high] = rng.multinomial(size, probabilities, high - low) @ values
    return means / size


def g_hat(cal: CalibrationDataset, pattern: BitString) -> float:
    """ghat(v) read from the calibration's spectrum, used as-is even when
    negative; only the absolute floor G_FLOOR refuses it."""
    if pattern.n != cal.n:
        raise ValueError(f"pattern has {pattern.n} bits, calibration has {cal.n} qubits")
    value = float(cal.spectrum[pattern.value])
    if abs(value) < G_FLOOR:
        raise UnmitigatableComponentError(
            f"|ghat(v)| = {abs(value)} below floor {G_FLOOR} for v={pattern}"
        )
    return value


def independent_g(correlator: Correlator, p10, p01) -> float:
    """g(v) of independent per-qubit flips: prod over the support of 1 - 2p.

    The data went through the XOR-twirl, so each qubit's assumed 2x2
    transition matrix is twirled first (its two flip rates average to p).
    A shade's pair of outcome weights (+overlap, -overlap) is an
    eigenvector of that matrix with eigenvalue 1 - 2p.  Exact when the
    true noise is independent flips at the assumed rates; crosstalk
    leaves residual bias, which is the point of carrying this model.
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


def estimate_correlators(
    data: TomographyDataset,
    correlators: Sequence[Correlator],
    divisors: Sequence[Sequence[float]],
    *,
    resamples: int,
    seed: int,
) -> list[list[EstimateReport]]:
    """Estimates of every correlator from one binning per maximal support,
    one per divisor.

    divisors[j] lists correlator j's divisors, every list of one length m.
    Report i of correlator j is the count-weighted mean of the shades
    divided by divisors[j][i], with the sd of `resamples` bootstrap means
    drawn from a generator seeded with seed + m*j + i.  A divisor of
    ghat(v) (g_hat) gives the mitigated estimate, 1 the unmitigated one and
    independent_g the independent-flip model's; the stderr treats each
    divisor as exact.  The shades use the shadow operators of the dataset's
    own directions.  The divisors, `resamples` and the direction set are
    checked before any binning, and every stream is drawn by one
    _bootstrap_streams call.
    """
    divisors = [[float(g) for g in row] for row in divisors]
    if len(divisors) != len(correlators):
        raise ValueError(f"{len(divisors)} divisor lists for {len(correlators)} correlators")
    m = len(divisors[0]) if divisors else 0
    for row in divisors:
        if len(row) != m:
            raise ValueError(f"every correlator needs {m} divisors, got {len(row)}")
        for g in row:
            if g == 0.0 or not math.isfinite(g):
                raise ValueError(f"divisors must be finite and nonzero, got {g}")
    if resamples < 2:
        raise ValueError(f"need >= 2 bootstrap resamples, got {resamples}")
    tables = _shade_tables(data, correlators)
    streams = [
        (counts, shades / g, seed + m * j + i)
        for j, ((counts, shades), row) in enumerate(zip(tables, divisors))
        for i, g in enumerate(row)
    ]
    reports = [
        EstimateReport(float(counts @ values / int(counts.sum())), float(np.std(means, ddof=1)))
        for (counts, values, _), means in zip(streams, _bootstrap_streams(streams, resamples))
    ]
    return [reports[m * j : m * j + m] for j in range(len(correlators))]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bootstrap_streams(
    streams: Sequence[tuple[np.ndarray, np.ndarray, int]], resamples: int
) -> list[np.ndarray]:
    """`resamples` bootstrap means of every (counts, values, seed) stream,
    in list order: _resample_means drawn from a generator seeded with seed.

    Each stream owns its generator, so a stream's means do not depend on
    the thread that draws it or on the order of the draws.  Streams of at
    least _LARGE_STREAM cell counts are queued, largest first, on a
    ThreadPoolExecutor of up to _usable_cpus() - 1 workers; without a
    large stream or a second CPU no thread starts, and every stream is
    drawn here.  This thread draws the small streams inline, then walks
    the queue from its smallest end: a draw that no worker has started is
    cancelled and drawn here, any other is awaited, and an exception it
    raised is raised here.  The workers are joined before this returns or
    raises; after a failure, the draws no worker has begun are dropped.
    concurrent.futures is imported only once a pool is needed, so
    importing this module does not pay for it.
    """

    def draw(stream: tuple[np.ndarray, np.ndarray, int]) -> np.ndarray:
        counts, values, seed = stream
        return _resample_means(counts, values, resamples, np.random.default_rng(seed))

    sizes = [resamples * len(counts) for counts, _, _ in streams]
    large = [i for i, size in enumerate(sizes) if size >= _LARGE_STREAM]
    large.sort(key=sizes.__getitem__, reverse=True)
    workers = min(len(large), _usable_cpus() - 1)
    if workers < 1:
        return [draw(stream) for stream in streams]
    from concurrent.futures import ThreadPoolExecutor

    means: list = [None] * len(streams)
    pool = ThreadPoolExecutor(workers)
    try:
        queued = [(i, pool.submit(draw, streams[i])) for i in large]
        for i, size in enumerate(sizes):
            if size < _LARGE_STREAM:
                means[i] = draw(streams[i])
        for i, future in reversed(queued):
            means[i] = draw(streams[i]) if future.cancel() else future.result()
    finally:
        pool.shutdown(cancel_futures=True)  # after a failure, no queued draw starts
    return means


def _sample_bound(
    scale: float, epsilon: float, delta: float, g: float, kappa: float, degree: int
) -> int:
    """Smallest integer shot count exceeding
    -scale ln(delta/2)/epsilon^2 * kappa^(2 degree) / g^2; the inputs
    must be finite and the bound must be representable as a float."""
    for name, value in (("epsilon", epsilon), ("delta", delta), ("g", g), ("kappa", kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if g == 0.0:
        raise ValueError("g must be nonzero")
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    try:
        bound = -scale * math.log(delta / 2.0) / epsilon**2 * kappa ** (2 * degree) / g**2
        return math.floor(bound) + 1
    except (OverflowError, ZeroDivisionError):  # an inf bound, or epsilon^2 or g^2 is 0.0
        raise ValueError("the shot-count bound is too large to represent") from None


def calibration_sample_bound(epsilon: float, delta: float, g: float = 1.0) -> int:
    """Smallest integer shot count exceeding -32 ln(delta/2) / (epsilon g)^2."""
    return _sample_bound(32.0, epsilon, delta, g, 1.0, 0)


def tomography_sample_bound(
    epsilon: float, delta: float, kappa: float, degree: int, g: float = 1.0
) -> int:
    """Smallest integer shot count exceeding
    -2 ln(delta/2)/epsilon^2 * kappa^(2 degree) / g^2."""
    return _sample_bound(2.0, epsilon, delta, g, kappa, degree)


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
