"""End-to-end experiment drivers built on the estimation core.

Everything here is deterministic given the config: dataset collection
seeds, correlator draws, bootstrap replicates and subsample draws all
come from seeds named in the config file, so rerunning a command
reproduces its outputs byte for byte.

The report bins each correlator's support once and bootstraps that one
shade table three times, divided by ghat(v), 1 and the independent
model's g(v); ghat comes from one spectrum per calibration.  Both
convergence studies reduce each curve to cell counts, cell values and
the exact truth, and share one pooled-RMS helper.
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
    _PARITY_SIGNS,
    _bootstrap_report,
    _g_hat,
    _g_independent,
    _outcome_counts,
    _parity_sums,
    _resample_means,
    _shade_cells,
    random_correlators,
    run_calibration,
    run_tomography,
)
from .qsim import Correlator, exact_expectation
from .shadows import compute_xi

CALIBRATION_RMS_COLUMNS = ("size", "weight", "rms")
TOMOGRAPHY_RMS_COLUMNS = ("size", "degree", "rms")
SUMMARY_COLUMNS = ("section", "key", "value")

# calibration_summary lists this many most frequent outcomes and every
# ghat(w) up to this weight
_SUMMARY_TOP_OUTCOMES = 8
_SUMMARY_MAX_WEIGHT = 2


def collect_calibration(
    config: ExperimentConfig, shots: int | None = None, seed: int | None = None
) -> CalibrationDataset:
    model = config.build_noise_model()
    return run_calibration(
        model,
        shots if shots is not None else config.calibration_shots,
        seed if seed is not None else config.calibration_seed,
    )


def collect_tomography(
    config: ExperimentConfig, shots: int | None = None, seed: int | None = None
) -> TomographyDataset:
    state = config.build_state()
    model = config.build_noise_model()
    return run_tomography(
        state,
        config.build_directions(),
        model,
        shots if shots is not None else config.tomography_shots,
        seed if seed is not None else config.tomography_seed,
    )


def calibration_summary(dataset: CalibrationDataset) -> str:
    """Human-readable digest: record count, most frequent outcomes, and
    the empirical Fourier components of low weight."""
    lines = [f"records={len(dataset)} n={dataset.n}"]
    table = _outcome_counts(dataset)
    values = np.flatnonzero(table)
    counts = table[values]
    order = np.lexsort((values, -counts))
    lines.append("top outcomes:")
    for rank in order[:_SUMMARY_TOP_OUTCOMES]:
        text = BitString(dataset.n, int(values[rank])).to_text()
        lines.append(f"  {text} {counts[rank] / len(dataset):.6f}")
    g = walsh_transform(table) / len(dataset)
    lines.append(f"g_hat by wavevector (weight <= {_SUMMARY_MAX_WEIGHT}):")
    for weight in range(1, min(_SUMMARY_MAX_WEIGHT, dataset.n) + 1):
        for support in itertools.combinations(range(dataset.n), weight):
            w = BitString(dataset.n, sum(1 << q for q in support))
            lines.append(f"  {w.to_text()} {g[w.value]:+.6f}")
    return "\n".join(lines)


def build_correlators(config: ExperimentConfig, per_degree: int | None = None) -> list[Correlator]:
    return random_correlators(
        config.n,
        config.correlator_degrees,
        per_degree if per_degree is not None else config.correlators_per_degree,
        config.correlator_seed,
        config.build_directions(),
    )


def comparison_rows(
    config: ExperimentConfig, tomo: TomographyDataset, cal: CalibrationDataset
) -> list[dict[str, object]]:
    """Three-estimator comparison of the configured correlators against
    the exact state expectation.

    Each support is binned once; the mitigated, unmitigated and indep
    columns bootstrap its shade table divided by ghat(v), 1 and the
    independent model's g(v), with seeds bootstrap_seed + 3*index + 0, 1, 2.
    """
    xi = compute_xi(config.build_directions())
    state = config.build_state()
    correlators = build_correlators(config)
    g = _parity_sums(cal) / len(cal)
    rows: list[dict[str, object]] = []
    for index, correlator in enumerate(correlators):
        g_hat = _g_hat(g, correlator.pattern)
        g_ind = _g_independent(correlator, config.noise.p10, config.noise.p01)
        counts, shades = _shade_cells(tomo, correlator, xi)
        seed = config.bootstrap_seed + 3 * index
        mit, unm, ind = (
            _bootstrap_report(counts, shades / g, config.bootstrap_resamples, seed + i)
            for i, g in enumerate((g_hat, 1.0, g_ind))
        )
        rows.append(
            {
                "correlator_id": f"c{index:02d}",
                "degree": correlator.degree,
                "pattern": correlator.pattern.to_text(),
                "truth": exact_expectation(state, correlator),
                "mitigated": mit.estimate,
                "mitigated_se": mit.stderr,
                "unmitigated": unm.estimate,
                "unmitigated_se": unm.stderr,
                "indep": ind.estimate,
                "indep_se": ind.stderr,
                "g_hat": g_hat,
            }
        )
    return rows


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


def _pooled_study(
    curves: Sequence[tuple[int, np.ndarray, np.ndarray, float]],
    sizes: Sequence[int],
    resamples: int,
    rng: np.random.Generator,
    group_column: str,
) -> tuple[list[dict[str, object]], dict[int, float]]:
    """RMS error of the subsample mean per group, with its log-log slope.

    Each curve is (group, cell counts, cell values, truth).  A replicate
    draws `size` records with replacement, which at size <= records/10
    behaves like a fresh dataset; squared errors are pooled over a group's
    curves and replicates before the square root.
    """
    pooled: dict[int, list[list[np.ndarray]]] = {}
    for group, counts, values, truth in curves:
        errors = [
            (_resample_means(counts, values, size, resamples, rng) - truth) ** 2
            for size in sizes
        ]
        pooled.setdefault(group, []).append(errors)
    rows: list[dict[str, object]] = []
    slopes: dict[int, float] = {}
    for group in sorted(pooled):
        rms = np.sqrt(np.mean(pooled[group], axis=(0, 2)))  # (curves, sizes, resamples)
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
    configured noise model.
    """
    g_exact = walsh_transform(config.build_noise_model().twirled_table())
    rng = np.random.default_rng(config.study_seed)
    wavevectors = _pick_wavevectors(
        config.n, config.study_weights, config.wavevectors_per_weight, rng
    )
    sizes = subsample_grid(len(cal), config.grid_points, config.grid_min)
    sums = _parity_sums(cal)
    curves = []
    for w in wavevectors:
        # the two parity cells hold (M + S) / 2 and (M - S) / 2 records
        counts = (len(cal) + _PARITY_SIGNS * sums[w.value]).astype(np.int64) // 2
        curves.append((len(w.support()), counts, _PARITY_SIGNS, g_exact[w.value]))
    return _pooled_study(curves, sizes, config.bootstrap_resamples, rng, "weight")


def correlator_rms_rows(
    config: ExperimentConfig, tomo: TomographyDataset, cal: CalibrationDataset
) -> tuple[list[dict[str, object]], dict[int, float]]:
    """Convergence of the mitigated estimator with tomography size.

    Mitigated cell values are fixed once (using ghat(v) from the full
    calibration set, refused below G_FLOOR as in comparison_rows);
    subsample means then isolate the statistical error.  Pooled per
    correlator degree.
    """
    xi = compute_xi(config.build_directions())
    state = config.build_state()
    correlators = build_correlators(config, config.correlators_per_degree_study)
    rng = np.random.default_rng(config.study_seed + 1)
    sizes = subsample_grid(len(tomo), config.grid_points, config.grid_min)

    g = _parity_sums(cal) / len(cal)
    curves = []
    for correlator in correlators:
        g_hat = _g_hat(g, correlator.pattern)
        counts, shades = _shade_cells(tomo, correlator, xi)
        curves.append(
            (correlator.degree, counts, shades / g_hat, exact_expectation(state, correlator))
        )
    return _pooled_study(curves, sizes, config.bootstrap_resamples, rng, "degree")


def fit_loglog_slope(sizes: Sequence[int], rms: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(rms, float)), 1)[0])


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Collect both datasets, write them, and produce every result table.

    Returns a name -> path map of everything written under out_dir.
    Both subsample grids are checked first, so an infeasible study writes nothing.
    """
    for records in (config.calibration_shots, config.tomography_shots):
        subsample_grid(records, config.grid_points, config.grid_min)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "calibration": os.path.join(out_dir, "calibration.txt"),
        "tomography": os.path.join(out_dir, "tomography.txt"),
        "report": os.path.join(out_dir, "report.csv"),
        "calibration_rms": os.path.join(out_dir, "calibration_rms.csv"),
        "tomography_rms": os.path.join(out_dir, "tomography_rms.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
    }

    cal = collect_calibration(config)
    tomo = collect_tomography(config)
    storage.write_calibration(paths["calibration"], cal)
    storage.write_tomography(paths["tomography"], tomo)

    storage.write_report(paths["report"], comparison_rows(config, tomo, cal))

    cal_rows, cal_slopes = g_rms_rows(config, cal)
    storage.write_csv(paths["calibration_rms"], CALIBRATION_RMS_COLUMNS, cal_rows)
    tomo_rows, tomo_slopes = correlator_rms_rows(config, tomo, cal)
    storage.write_csv(paths["tomography_rms"], TOMOGRAPHY_RMS_COLUMNS, tomo_rows)

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
    storage.write_csv(paths["summary"], SUMMARY_COLUMNS, summary)
    return paths
