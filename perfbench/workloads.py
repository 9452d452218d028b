"""The three workloads: their configs, CLI command sequences and checks.

Every config seed is derived from the workload name and the benchmark's
``--seed``.  Shot counts fix the work per repeat.  They are sized so that
a repeat takes 5 to 10 seconds on a 2-core machine, long enough to
average over the machine's speed swings, and so that the convergence
slopes of experiment_n8 stay well inside their acceptance band.
"""

from __future__ import annotations

import os
import random

import checks
import inputs

NOISE = {"model": "chain_crosstalk", "p10": 0.07, "p01": 0.05, "gamma": 0.5}
SEED_KEYS = (
    "circuit_seed",
    "calibration_seed",
    "tomography_seed",
    "bootstrap_seed",
    "correlator_seed",
    "study_seed",
)


def derived_seeds(workload: str, seed: int) -> dict[str, int]:
    rng = random.Random(f"{workload}/{seed}")
    return {key: rng.randrange(2**31) for key in SEED_KEYS}


def _report_rows(config: dict) -> int:
    degrees = config.get("correlator_degrees", [d for d in (1, 2, 3, 4) if d <= config["n"]])
    return len(degrees) * config["correlators_per_degree"]


class Workload:
    """A config, the CLI commands one repeat runs, and their checks.

    ``prepare`` makes input files before timing and returns their SHA-256
    by role plus whatever ``check`` needs to know about them.  ``commands``
    returns (command name, CLI arguments) pairs.  ``check`` counts
    operations on one repeat's outputs and returns the report rows, if the
    workload writes a report; ``roundtrip``, given on traced repeats, reads
    dataset files back through the program and says which were lossless.
    """

    name = ""

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, work: str, config: dict) -> tuple[dict[str, str], object]:
        return {}, None

    def commands(self, work: str) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, checker, work, config, prepared, ledger, roundtrip=None):
        raise NotImplementedError


class ExperimentN8(Workload):
    """Resampling-heavy: 100k shots give ~15 shots per setting at 3^8
    settings, and both studies plus 200-resample bootstraps dominate."""

    name = "experiment_n8"

    def config(self, seed):
        return {
            "n": 8,
            "depth": 20,
            "noise": NOISE,
            "calibration_shots": 100_000,
            "tomography_shots": 100_000,
            "bootstrap_resamples": 200,
            "correlators_per_degree": 3,
            **derived_seeds(self.name, seed),
        }

    def commands(self, work):
        return [("experiment", ["experiment", "--config", f"{work}/config.json",
                                "--out", f"{work}/out"])]

    def check(self, checker, work, config, prepared, ledger, roundtrip=None):
        return checks.check_experiment(checker, f"{work}/out", _report_rows(config), ledger)


class CollectN12(Workload):
    """Born-sampling-heavy: 10,000 tomography shots over 3^12 settings,
    about one shot per setting, and no estimation."""

    name = "collect_n12"

    def config(self, seed):
        seeds = derived_seeds(self.name, seed)
        return {
            "n": 12,
            "depth": 20,
            "noise": NOISE,
            "calibration_shots": 100_000,
            "tomography_shots": 10_000,
            **{k: seeds[k] for k in ("circuit_seed", "calibration_seed", "tomography_seed")},
        }

    def commands(self, work):
        config = f"{work}/config.json"
        return [
            ("calibrate", ["calibrate", "--config", config, "--out", f"{work}/out/cal.txt"]),
            ("tomography", ["tomography", "--config", config, "--out", f"{work}/out/tomo.txt"]),
        ]

    def check(self, checker, work, config, prepared, ledger, roundtrip=None):
        files = {"calibration": f"{work}/out/cal.txt", "tomography": f"{work}/out/tomo.txt"}
        shots = {"calibration": config["calibration_shots"],
                 "tomography": config["tomography_shots"]}
        checks.check_collect(checker, files, config["n"], shots, ledger)
        if roundtrip is not None:
            lossless: dict[str, bool] = {}

            def run() -> bool:
                lossless.update(roundtrip(files["calibration"], files["tomography"]))
                return True

            checker.op("read-back check ran", run)
            for kind in files:
                checker.op(f"{kind} reads back losslessly",
                           lambda kind=kind: lossless.get(kind) is True)
        return []


class EstimateN10(Workload):
    """Many observables on stored data: 80 correlators over 500k records
    with 2 bootstrap resamples, read from files made by inputs.py."""

    name = "estimate_n10"
    shots = 500_000

    def config(self, seed):
        seeds = derived_seeds(self.name, seed)
        return {
            "n": 10,
            "depth": 0,
            "noise": NOISE,
            "calibration_shots": self.shots,
            "tomography_shots": self.shots,
            "bootstrap_resamples": 2,
            "correlators_per_degree": 20,
            **{k: seeds[k] for k in (
                "calibration_seed", "tomography_seed", "bootstrap_seed", "correlator_seed")},
        }

    def prepare(self, work, config):
        os.makedirs(f"{work}/in", exist_ok=True)
        cal_bits, digests = inputs.write_inputs(
            f"{work}/in/cal.txt", f"{work}/in/tomo.txt", config["n"], self.shots, NOISE,
            config["calibration_seed"], config["tomography_seed"],
        )
        return digests, cal_bits

    def commands(self, work):
        return [("estimate", ["estimate", "--config", f"{work}/config.json",
                              "--calibration", f"{work}/in/cal.txt",
                              "--tomography", f"{work}/in/tomo.txt",
                              "--out", f"{work}/out/report.csv"])]

    def check(self, checker, work, config, prepared, ledger, roundtrip=None):
        return checks.check_estimate(checker, f"{work}/out/report.csv", _report_rows(config),
                                     prepared, self.shots, ledger)


WORKLOADS = {w.name: w for w in (ExperimentN8(), CollectN12(), EstimateN10())}
