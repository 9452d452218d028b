"""Run one xshadow CLI command with spans around its calls into each module.

Usage::

    python perfbench/traced_cli.py SPANS_JSON RUN_ID PARENT_ID CLI_ARG...

Before the command runs, every public function named in TRACED is
replaced, in each ``xshadow`` module that holds it, by a wrapper that
records a span (see spans.py) and the counters COUNTERS derives from the
call.  ``sample_bits`` of each noise model class is wrapped the same way.
Spans stay in memory and are written to SPANS_JSON as the process exits,
with PARENT_ID as the parent of the outermost ones.  The program's own
source is not changed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import resource
import sys
import time

import numpy as np

import xshadow
import xshadow.cli

TRACED = {
    "config": ("load_config",),
    "qsim": ("random_circuit_state",),
    "protocols": ("run_calibration", "run_tomography"),
    "storage": (
        "write_calibration",
        "write_tomography",
        "write_csv",
        "read_calibration",
        "read_tomography",
    ),
    "experiments": ("calibration_summary", "comparison_rows", "g_rms_rows", "correlator_rms_rows"),
}


def _grid_total(records: int, points: int, minimum: int) -> int:
    """Sum of the subsample sizes the convergence study draws at each point."""
    raw = np.logspace(math.log10(minimum), math.log10(records // 10), points)
    return sum(set(int(round(v)) for v in raw))


def _distinct_settings(dataset) -> int:
    k = len(dataset.directions)
    keys = dataset.setting_indices.astype(np.int64) @ (k ** np.arange(dataset.n, dtype=np.int64))
    return int(np.unique(keys).size)


def _tomography_counts(call, result):
    return {
        "protocols.run_tomography.records": len(result),
        "protocols.run_tomography.distinct_settings": _distinct_settings(result),
    }


def _file_bytes(metric):
    return lambda call, result: {metric: os.path.getsize(call["path"])}


def _comparison_counts(call, result):
    config = call["config"]
    return {
        "experiments.comparison_rows.correlators": len(result),
        # three estimators, each bootstrapped over every tomography record
        "experiments.comparison_rows.record_resamples": len(result)
        * 3
        * config.bootstrap_resamples
        * len(call["tomo"]),
    }


def _g_study_draws(call, result):
    config, cal = call["config"], call["cal"]
    curves = sum(
        min(math.comb(config.n, w), config.wavevectors_per_weight) for w in config.study_weights
    )
    draws = curves * config.bootstrap_resamples * _grid_total(
        len(cal), config.grid_points, config.grid_min
    )
    return {"experiments.study.subsample_draws": draws}


def _correlator_study_draws(call, result):
    config, tomo = call["config"], call["tomo"]
    if call.get("correlators") is not None:
        curves = len(call["correlators"])
    else:
        curves = len(config.correlator_degrees) * config.correlators_per_degree_study
    draws = curves * config.bootstrap_resamples * _grid_total(
        len(tomo), config.grid_points, config.grid_min
    )
    return {"experiments.study.subsample_draws": draws}


COUNTERS = {
    "protocols.run_calibration": lambda call, result: {
        "protocols.run_calibration.records": len(result)
    },
    "protocols.run_tomography": _tomography_counts,
    "storage.write_calibration": _file_bytes("storage.write_calibration.bytes"),
    "storage.write_tomography": _file_bytes("storage.write_tomography.bytes"),
    "storage.read_tomography": _file_bytes("storage.read_tomography.bytes"),
    "experiments.comparison_rows": _comparison_counts,
    "experiments.g_rms_rows": _g_study_draws,
    "experiments.correlator_rms_rows": _correlator_study_draws,
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str, parent: str):
        self.run_id = run_id
        self.stack = [parent]
        self.spans: list[dict] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "id": f"{os.getpid()}.{next(self._ids)}",
                "parent": self.stack[-1],
                "run": self.run_id,
                "attrs": {},
            }
            self.stack.append(span["id"])
            rss = _maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            span["attrs"][f"{name}.rss_growth_mb"] = _maxrss_mb() - rss
            if counter is not None:
                call = signature.bind(*args, **kwargs).arguments
                span["attrs"].update(counter(call, result))
            return result

        return traced

    def install(self) -> None:
        """Swap each traced function for its wrapper wherever xshadow holds it."""
        modules = [
            module
            for module_name, module in sys.modules.items()
            if module_name == "xshadow" or module_name.startswith("xshadow.")
        ]
        for short, names in TRACED.items():
            home = sys.modules[f"xshadow.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        noise = sys.modules["xshadow.noise"]
        for cls in list(vars(noise).values()):
            if isinstance(cls, type) and "sample_bits" in vars(cls):
                cls.sample_bits = self.wrap("noise.sample_bits", vars(cls)["sample_bits"])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main() -> None:
    spans_path, run_id, parent = sys.argv[1:4]
    tracer = Tracer(run_id, parent)
    tracer.install()
    try:
        xshadow.cli.main(args=sys.argv[4:], prog_name="xshadow")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
