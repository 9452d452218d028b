"""Command line front end.

Five subcommands: `calibrate` and `tomography` synthesize datasets,
`estimate` produces the three-estimator comparison table, `complexity`
prints shot-count bounds, and `experiment` runs the whole pipeline
into a directory.  All outputs are deterministic functions of the
config file and the explicit seed overrides; nothing writes wall-clock
timestamps, so reruns are byte-identical.

`run`, the entry point of the `xshadow` script and of `python -m
xshadow.cli`, calls gc.freeze() before `main`, so that the exiting
process does not free numpy and yaml object by object: the OS frees
them anyway.  In-process callers (tests, tracing) call `main`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import inspect
import os
import sys

from . import experiments, storage
from .config import ExperimentConfig, load_config
from .exceptions import XShadowError
from .protocols import MAX_SHOTS, calibration_sample_bound, tomography_sample_bound


def _refusing(convert, refused, why: str):
    """An argparse type: `convert` the text, then refuse a value `refused` holds for."""
    def check(text: str):
        if refused(value := convert(text)):
            raise argparse.ArgumentTypeError(f"{value!r} {why}")
        return value
    check.__name__ = convert.__name__  # argparse names a failed conversion by it
    return check


_INPUT = _refusing(str, lambda p: os.path.isdir(p) or not os.path.exists(p), "is not a file")
_PATH = _refusing(str, lambda p: not p, "is empty")
_OUT_FILE = _refusing(_refusing(_PATH, os.path.isdir, "is a directory"),
                      lambda p: not os.path.isdir(os.path.dirname(p) or os.curdir),
                      "is not in an existing directory")
# parameter: (argparse type, help, default or ... if required); its option is --<first word>
_OPTIONS = {
    "config_path": (_INPUT, "config YAML file", ...),
    "calibration_path": (_INPUT, "calibration dataset file", ...),
    "tomography_path": (_INPUT, "tomography dataset file", ...),
    "out": (_OUT_FILE, "file to write", ...),
    "out_dir": (_refusing(_PATH, os.path.isfile, "is a file"), "output directory", ...),
    "shots": (_refusing(int, lambda v: not 1 <= v <= MAX_SHOTS, f"is not in [1, {MAX_SHOTS}]"),
              "override the dataset size(s)", None),
    "seed": (_refusing(int, lambda v: v < 0, "is negative"), "override the seed(s): s, s+1", None),
    "epsilon": (float, "target additive accuracy", ...),
    "delta": (float, "allowed failure probability", ...),
    "g": (float, "Fourier component magnitude (default: %(default)s)", 1.0),
    "kappa": (float, "shadow norm factor per qubit (default: %(default)s)", 3.0),
    "degree": (int, "correlator support size (default: %(default)s)", 2),
}


def _overridden(config: ExperimentConfig, shots: int | None, seed: int | None, *datasets: str):
    """`config` with --shots and --seed set for each dataset named; the i-th one's is seed + i."""
    overrides: dict[str, object] = {}
    for offset, dataset in enumerate(datasets):
        if shots is not None:
            overrides[f"{dataset}_shots"] = shots
        if seed is not None:
            overrides[f"{dataset}_seed"] = seed + offset
    return dataclasses.replace(config, **overrides)


def calibrate(config_path: str, out: str, shots: int | None, seed: int | None) -> None:
    """Collect a twirled calibration dataset and print its digest."""
    config = _overridden(load_config(config_path), shots, seed, "calibration")
    dataset = experiments.collect_calibration(config)
    storage.write_calibration(out, dataset)
    print(experiments.calibration_summary(dataset))
    print(f"wrote {out}")


def tomography(config_path: str, out: str, shots: int | None, seed: int | None) -> None:
    """Collect a tomography dataset for the configured random state."""
    config = _overridden(load_config(config_path), shots, seed, "tomography")
    dataset = experiments.collect_tomography(config)
    storage.write_tomography(out, dataset)
    print(f"records={len(dataset)} n={dataset.n}")
    print(f"wrote {out}")


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
        print(
            f"{row['correlator_id']} degree={row['degree']} pattern={row['pattern']} "
            f"truth={row['truth']:+.4f} "
            f"mitigated={row['mitigated']:+.4f}({row['mitigated_se']:.4f}) "
            f"unmitigated={row['unmitigated']:+.4f}({row['unmitigated_se']:.4f}) "
            f"indep={row['indep']:+.4f}({row['indep_se']:.4f})"
        )
    print(f"wrote {out}")


def complexity(epsilon: float, delta: float, g: float, kappa: float, degree: int) -> None:
    """Print shot-count bounds for calibration and tomography."""
    cal_bound = calibration_sample_bound(epsilon, delta, g)
    tomo_bound = tomography_sample_bound(epsilon, delta, kappa, degree, g)
    print(f"inputs: epsilon={epsilon} delta={delta} g={g} kappa={kappa} degree={degree}")
    print(f"calibration_shots >= {cal_bound}")
    print(f"tomography_shots >= {tomo_bound}")


def experiment(config_path: str, out_dir: str, shots: int | None, seed: int | None) -> None:
    """Run collection, estimation, and both convergence studies."""
    config = _overridden(load_config(config_path), shots, seed, "calibration", "tomography")
    for _, path in sorted(experiments.run_experiment(config, out_dir).items()):
        print(f"wrote {path}")


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one xshadow command: a bad option exits 2, before any work; a refused input, 1."""
    parser = argparse.ArgumentParser(prog_name or "xshadow", description=main.__doc__)
    commands, flags = parser.add_subparsers(required=True, metavar="COMMAND"), set()
    for fn in (calibrate, tomography, estimate, complexity, experiment):
        doc = fn.__doc__
        sub = commands.add_parser(fn.__name__, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=fn)
        for name in inspect.signature(fn).parameters:
            kind, text, default = _OPTIONS[name]
            flags.update(sub.add_argument(f"--{name.split('_')[0]}", dest=name, type=kind,
                         help=text, required=default is ..., default=default).option_strings)
    words, args = list(sys.argv[1:] if args is None else args), []
    while words:  # as in click, an option takes the next word as its value, even "-1e-3"
        args.append(f"{word}={words.pop(0)}" if (word := words.pop(0)) in flags and words else word)
    options = vars(parser.parse_args(args))
    try:
        options.pop("run")(**options)
    except (XShadowError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        sys.exit(1)


def run() -> None:
    """Freeze every object made so far, then run the command line."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
