"""Span records and the arithmetic the traced run reports.

A span is a dict with ``name``, ``id``, ``parent`` (an id or None),
``run`` (shared by every span of one traced repeat), ``start`` and
``end`` (``time.perf_counter`` seconds; CLOCK_MONOTONIC on Linux, so
spans from the benchmark and from its child processes share one
timeline) and ``attrs``, a map of counter name to number.

Command spans are named ``cli.<command>`` and cover one CLI process from
spawn to reap.  Every other span is named ``<module>.<function>`` and
covers one call into that module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``<name>.s`` sums the durations of the module spans with that name,
    ``cli.<command>.self_s`` sums the self time of command spans, and
    every span counter is summed under its own name.
    """
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        if span["name"].startswith("cli."):
            out[span["name"] + ".self_s"] += selfs[span["id"]]
        else:
            out[span["name"] + ".s"] += span["end"] - span["start"]
        for key, value in span["attrs"].items():
            out[key] += value
    settings = out.get("protocols.run_tomography.distinct_settings")
    if settings:
        out["protocols.run_tomography.shots_per_setting"] = (
            out["protocols.run_tomography.records"] / settings
        )
    return dict(out)
