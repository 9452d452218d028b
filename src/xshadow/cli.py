"""Command line front end.

Five subcommands: `calibrate` and `tomography` synthesize datasets,
`estimate` produces the three-estimator comparison table, `complexity`
prints shot-count bounds, and `experiment` runs the whole pipeline
into a directory.  All outputs are deterministic functions of the
config file and the explicit seed overrides; nothing writes wall-clock
timestamps, so reruns are byte-identical.

`run`, the entry point of the `xshadow` script and of `python -m
xshadow.cli`, calls gc.freeze() before `main`, so that the exiting
process does not free numpy, click and yaml object by object: the OS
frees them anyway.  In-process callers (tests, tracing) call `main`.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import sys

import click

from . import experiments, storage
from .config import ExperimentConfig, load_config
from .exceptions import XShadowError
from .protocols import MAX_SHOTS, calibration_sample_bound, tomography_sample_bound


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (XShadowError, ValueError, OSError, MemoryError) as exc:
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(1)

    return wrapper


def _overridden(
    config: ExperimentConfig, shots: int | None, seed: int | None, *datasets: str
) -> ExperimentConfig:
    """`config` with --shots and --seed applied to each named dataset
    ("calibration", "tomography"); the i-th one's seed becomes seed + i."""
    overrides: dict[str, object] = {}
    for offset, dataset in enumerate(datasets):
        if shots is not None:
            overrides[f"{dataset}_shots"] = shots
        if seed is not None:
            overrides[f"{dataset}_seed"] = seed + offset
    return dataclasses.replace(config, **overrides)


@click.group()
def main() -> None:
    """Readout-noise-robust classical shadow toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="dataset file to write")
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=None, help="override calibration_shots")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override calibration_seed")
@_guarded
def calibrate(config_path: str, out: str, shots: int | None, seed: int | None) -> None:
    """Collect a twirled calibration dataset and print its digest."""
    config = _overridden(load_config(config_path), shots, seed, "calibration")
    dataset = experiments.collect_calibration(config)
    storage.write_calibration(out, dataset)
    click.echo(experiments.calibration_summary(dataset))
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="dataset file to write")
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=None, help="override tomography_shots")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override tomography_seed")
@_guarded
def tomography(config_path: str, out: str, shots: int | None, seed: int | None) -> None:
    """Collect a tomography dataset for the configured random state."""
    config = _overridden(load_config(config_path), shots, seed, "tomography")
    dataset = experiments.collect_tomography(config)
    storage.write_tomography(out, dataset)
    click.echo(f"records={len(dataset)} n={dataset.n}")
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--calibration", "calibration_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tomography", "tomography_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="report CSV to write")
@_guarded
def estimate(config_path: str, calibration_path: str, tomography_path: str, out: str) -> None:
    """Estimate the configured correlators three ways and write the table."""
    config = load_config(config_path)
    for kind, path, directions in (
        (storage.CALIBRATION_TYPE, calibration_path, None),
        (storage.TOMOGRAPHY_TYPE, tomography_path, config.directions),
    ):  # both refused on their headers, before either body is decoded
        n = storage.read_qubit_count(path, kind, directions)
        if n != config.n:
            raise XShadowError(f"qubit counts disagree: config n={config.n}, {kind} n={n}")
    cal = storage.read_calibration(calibration_path)
    tomo = storage.read_tomography(tomography_path, config.directions)
    rows = experiments.comparison_rows(config, tomo, cal)
    storage.write_report(out, rows)
    for row in rows:
        click.echo(
            f"{row['correlator_id']} degree={row['degree']} pattern={row['pattern']} "
            f"truth={row['truth']:+.4f} "
            f"mitigated={row['mitigated']:+.4f}({row['mitigated_se']:.4f}) "
            f"unmitigated={row['unmitigated']:+.4f}({row['unmitigated_se']:.4f}) "
            f"indep={row['indep']:+.4f}({row['indep_se']:.4f})"
        )
    click.echo(f"wrote {out}")


@main.command()
@click.option("--epsilon", required=True, type=float, help="target additive accuracy")
@click.option("--delta", required=True, type=float, help="allowed failure probability")
@click.option("--g", type=float, default=1.0, show_default=True, help="Fourier component magnitude")
@click.option("--kappa", type=float, default=3.0, show_default=True, help="shadow norm factor per qubit")
@click.option("--degree", type=int, default=2, show_default=True, help="correlator support size")
@_guarded
def complexity(epsilon: float, delta: float, g: float, kappa: float, degree: int) -> None:
    """Print shot-count bounds for calibration and tomography."""
    cal_bound = calibration_sample_bound(epsilon, delta, g)
    tomo_bound = tomography_sample_bound(epsilon, delta, kappa, degree, g)
    click.echo(f"inputs: epsilon={epsilon} delta={delta} g={g} kappa={kappa} degree={degree}")
    click.echo(f"calibration_shots >= {cal_bound}")
    click.echo(f"tomography_shots >= {tomo_bound}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False), help="output directory")
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=None, help="override both dataset sizes")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override collection seeds (seed, seed+1)")
@_guarded
def experiment(config_path: str, out: str, shots: int | None, seed: int | None) -> None:
    """Run collection, estimation, and both convergence studies."""
    config = _overridden(load_config(config_path), shots, seed, "calibration", "tomography")
    paths = experiments.run_experiment(config, out)
    for name in sorted(paths):
        click.echo(f"wrote {paths[name]}")


def run() -> None:
    """Freeze every object made so far, then run the command line."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
