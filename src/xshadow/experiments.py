"""End-to-end experiment drivers built on the estimation core.

Everything here is deterministic given the config: dataset collection
seeds, correlator draws, bootstrap replicates and the study's wavevector
picks all come from seeds named in the config file, so rerunning a
command reproduces its outputs byte for byte.

The report is one protocols.estimate_correlators call: it bins the
tomography records once per maximal correlator support and bootstraps
each correlator's table three times, divided by ghat(v), 1 and the
independent model's g(v), with all of its streams drawn side by side;
ghat comes from the one spectrum each calibration keeps (`spectrum`).
Both convergence studies reduce each curve to the mean and variance of
one record's value and the exact truth, and share one pooled-RMS helper
that takes the exact expected squared error of a mean of s records drawn
with replacement, variance / s + bias^2, so neither draws a subsample:
the calibration study's record values are the two parities, with mean
ghat(w) and variance 1 - ghat(w)^2, and the tomography study's are the
mitigated values of the support cells.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Sequence

import numpy as np

from . import storage
from .bitspace import BitString, walsh_transform
from .config import ExperimentConfig
from .protocols import (
    CalibrationDataset,
    TomographyDataset,
    _shade_tables,
    estimate_correlators,
    g_hat,
    independent_g,
    random_correlators,
    run_calibration,
    run_tomography,
)
from .qsim import Correlator, exact_expectation

CALIBRATION_RMS_COLUMNS = ("size", "weight", "rms")
TOMOGRAPHY_RMS_COLUMNS = ("size", "degree", "rms")
SUMMARY_COLUMNS = ("section", "key", "value")

# calibration_summary lists this many most frequent outcomes and every
# ghat(w) up to this weight
_SUMMARY_TOP_OUTCOMES = 8
_SUMMARY_MAX_WEIGHT = 2


def collect_calibration(config: ExperimentConfig) -> CalibrationDataset:
    return run_calibration(config.noise, config.calibration_shots, config.calibration_seed)


def collect_tomography(config: ExperimentConfig) -> TomographyDataset:
    return run_tomography(
        config.state,
        config.directions,
        config.noise,
        config.tomography_shots,
        config.tomography_seed,
    )


def calibration_summary(dataset: CalibrationDataset) -> str:
    """Human-readable digest: record count, most frequent outcomes, and
    the empirical Fourier components of low weight."""
    lines = [f"records={len(dataset)} n={dataset.n}"]
    table = dataset.outcome_counts
    values = np.flatnonzero(table)
    counts = table[values]
    order = np.lexsort((values, -counts))
    lines.append("top outcomes:")
    for rank in order[:_SUMMARY_TOP_OUTCOMES]:
        text = BitString(dataset.n, int(values[rank])).to_text()
        lines.append(f"  {text} {counts[rank] / len(dataset):.6f}")
    lines.append(f"g_hat by wavevector (weight <= {_SUMMARY_MAX_WEIGHT}):")
    for weight in range(1, min(_SUMMARY_MAX_WEIGHT, dataset.n) + 1):
        for support in itertools.combinations(range(dataset.n), weight):
            w = BitString(dataset.n, sum(1 << q for q in support))
            lines.append(f"  {w.to_text()} {dataset.spectrum[w.value]:+.6f}")
    return "\n".join(lines)


def build_correlators(config: ExperimentConfig, per_degree: int | None = None) -> list[Correlator]:
    return random_correlators(
        config.n,
        config.correlator_degrees,
        per_degree if per_degree is not None else config.correlators_per_degree,
        config.correlator_seed,
        config.directions,
    )


def comparison_rows(
    config: ExperimentConfig, tomo: TomographyDataset, cal: CalibrationDataset
) -> list[dict[str, object]]:
    """Three-estimator comparison of the configured correlators against
    the exact state expectation.

    One estimate_correlators call over the divisors ghat(v), 1 and the
    independent model's g(v) of every correlator, seeded with
    bootstrap_seed: the divisors are found and checked before any binning,
    the records are binned once per maximal support, and every bootstrap
    stream is drawn side by side.
    """
    correlators = build_correlators(config)
    divisors = [
        (
            g_hat(cal, correlator.pattern),
            1.0,
            independent_g(correlator, config.noise.p10, config.noise.p01),
        )
        for correlator in correlators
    ]
    resamples, seed = config.bootstrap_resamples, config.bootstrap_seed
    reports = estimate_correlators(tomo, correlators, divisors, resamples=resamples, seed=seed)
    return [
        {
            "correlator_id": f"c{index:02d}",
            "degree": correlator.degree,
            "pattern": correlator.pattern.to_text(),
            "truth": exact_expectation(config.state, correlator),
            "mitigated": mit.estimate,
            "mitigated_se": mit.stderr,
            "unmitigated": unm.estimate,
            "unmitigated_se": unm.stderr,
            "indep": ind.estimate,
            "indep_se": ind.stderr,
            "g_hat": g_v,
        }
        for index, (correlator, (g_v, _, _), (mit, unm, ind)) in enumerate(
            zip(correlators, divisors, reports)
        )
    ]


def subsample_grid(records: int, points: int, minimum: int) -> list[int]:
    """Log-spaced subsample sizes from `minimum` up to a tenth of the data."""
    top = records // 10
    if top < minimum:
        raise ValueError(
            f"dataset with {records} records is too small for subsampling from {minimum}"
        )
    raw = np.logspace(math.log10(minimum), math.log10(top), points)
    sizes = sorted(set(int(round(v)) for v in raw))
    if len(sizes) < 2:
        raise ValueError("subsample grid collapsed to fewer than two sizes")
    return sizes


def _moments(counts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the value of one record drawn from a count table."""
    mean = counts @ values / counts.sum()
    return float(mean), float(counts @ (values - mean) ** 2 / counts.sum())


def _pooled_study(
    curves: Sequence[tuple[int, float, float, float]],
    sizes: Sequence[int],
    group_column: str,
) -> tuple[list[dict[str, object]], dict[int, float]]:
    """RMS error of the subsample mean per group, with its log-log slope.

    Each curve is (group, mean, variance, truth) of one record's value.
    A mean of `size` records drawn with replacement, which at size <=
    records/10 behaves like a fresh dataset, has expected squared error
    variance / size + (mean - truth)^2 exactly; it is averaged over a
    group's curves before the square root.
    """
    inverse_sizes = 1.0 / np.asarray(sizes, dtype=float)
    pooled: dict[int, list[np.ndarray]] = {}
    for group, mean, variance, truth in curves:
        pooled.setdefault(group, []).append(variance * inverse_sizes + (mean - truth) ** 2)
    rows: list[dict[str, object]] = []
    slopes: dict[int, float] = {}
    for group in sorted(pooled):
        rms = np.sqrt(np.mean(pooled[group], axis=0))  # (curves, sizes)
        for size, value in zip(sizes, rms):
            rows.append({"size": size, group_column: group, "rms": float(value)})
        slopes[group] = fit_loglog_slope(sizes, rms)
    return rows, slopes


def _pick_wavevectors(
    n: int, weights: Sequence[int], per_weight: int, rng: np.random.Generator
) -> list[BitString]:
    chosen: list[BitString] = []
    for weight in weights:
        combos = list(itertools.combinations(range(n), weight))
        if len(combos) > per_weight:
            picks = rng.choice(len(combos), size=per_weight, replace=False)
            combos = [combos[i] for i in sorted(picks)]
        chosen.extend(BitString(n, sum(1 << q for q in combo)) for combo in combos)
    return chosen


def g_rms_rows(
    config: ExperimentConfig, cal: CalibrationDataset
) -> tuple[list[dict[str, object]], dict[int, float]]:
    """Convergence of ghat(w) with calibration size, pooled per weight.

    Returns tidy rows (size, weight, rms) and the fitted log-log slope
    per weight.  Truth is the exact Fourier component of the twirled
    configured noise model.  A record's parity (-1)^(w.s) has mean ghat(w)
    and variance 1 - ghat(w)^2.
    """
    g_exact = walsh_transform(config.noise.twirled_table())
    rng = np.random.default_rng(config.study_seed)
    wavevectors = _pick_wavevectors(
        config.n, config.study_weights, config.wavevectors_per_weight, rng
    )
    sizes = subsample_grid(len(cal), config.grid_points, config.grid_min)
    spectrum = cal.spectrum
    curves = [
        (len(w.support()), spectrum[w.value], 1.0 - spectrum[w.value] ** 2, g_exact[w.value])
        for w in wavevectors
    ]
    return _pooled_study(curves, sizes, "weight")


def correlator_rms_rows(
    config: ExperimentConfig, tomo: TomographyDataset, cal: CalibrationDataset
) -> tuple[list[dict[str, object]], dict[int, float]]:
    """Convergence of the mitigated estimator with tomography size.

    Mitigated values are fixed once (using ghat(v) from the full
    calibration set, refused below G_FLOOR as in comparison_rows): the
    support's shade table, from one _shade_tables call, divided by ghat(v),
    whose moments give the exact error of a subsample mean.  Pooled per
    correlator degree.
    """
    state = config.state
    correlators = build_correlators(config, config.correlators_per_degree_study)
    sizes = subsample_grid(len(tomo), config.grid_points, config.grid_min)

    g_vs = [g_hat(cal, correlator.pattern) for correlator in correlators]
    curves = [
        (correlator.degree, *_moments(counts, shades / g_v), exact_expectation(state, correlator))
        for correlator, g_v, (counts, shades) in zip(
            correlators, g_vs, _shade_tables(tomo, correlators)
        )
    ]
    return _pooled_study(curves, sizes, "degree")


def fit_loglog_slope(sizes: Sequence[int], rms: Sequence[float]) -> float:
    """Least-squares slope of log(rms) against log(size); NaN when any rms
    is 0, as when a noiseless calibration matches its truth exactly, since
    no line passes through log(0)."""
    rms = np.asarray(rms, float)
    if np.any(rms == 0.0):
        return math.nan
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(rms), 1)[0])


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Collect both datasets, produce every result table, then write them all.

    Returns a name -> path map of everything written under out_dir.  Both
    subsample grids are checked before any sampling, and every table is
    computed before out_dir is made, so a run that fails (an infeasible
    grid, a singular independent model, a ghat(v) below G_FLOOR) writes
    nothing.

    The tomography is drawn first: each collector seeds its own generator,
    so the order moves no output, and the Born draw's transients, the
    run's largest, then meet no calibration records.  At n = 12 with 1M
    shots of each, tracemalloc reads the draw's peak at 25.8 MiB; every
    later stage stays within 1.2 MiB of the 23.0 MiB the two datasets hold.
    """
    for records in (config.calibration_shots, config.tomography_shots):
        subsample_grid(records, config.grid_points, config.grid_min)
    tomo = collect_tomography(config)
    cal = collect_calibration(config)
    report = comparison_rows(config, tomo, cal)
    cal_rows, cal_slopes = g_rms_rows(config, cal)
    tomo_rows, tomo_slopes = correlator_rms_rows(config, tomo, cal)

    summary = [
        {"section": "datasets", "key": "calibration_records", "value": len(cal)},
        {"section": "datasets", "key": "tomography_records", "value": len(tomo)},
    ]
    for weight, slope in sorted(cal_slopes.items()):
        summary.append(
            {"section": "calibration_rms_slope", "key": f"weight={weight}", "value": slope}
        )
    for degree, slope in sorted(tomo_slopes.items()):
        summary.append(
            {"section": "tomography_rms_slope", "key": f"degree={degree}", "value": slope}
        )

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "calibration": os.path.join(out_dir, "calibration.txt"),
        "tomography": os.path.join(out_dir, "tomography.txt"),
        "report": os.path.join(out_dir, "report.csv"),
        "calibration_rms": os.path.join(out_dir, "calibration_rms.csv"),
        "tomography_rms": os.path.join(out_dir, "tomography_rms.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
    }
    storage.write_calibration(paths["calibration"], cal)
    storage.write_tomography(paths["tomography"], tomo)
    storage.write_report(paths["report"], report)
    storage.write_csv(paths["calibration_rms"], CALIBRATION_RMS_COLUMNS, cal_rows)
    storage.write_csv(paths["tomography_rms"], TOMOGRAPHY_RMS_COLUMNS, tomo_rows)
    storage.write_csv(paths["summary"], SUMMARY_COLUMNS, summary)
    return paths
