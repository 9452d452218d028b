"""Experiment configuration loading and validation.

Config files are YAML: a flat mapping of scalar keys plus one nested
`noise` block.  Unknown keys anywhere are rejected so typos in rate
arrays cannot pass silently.  Example::

    n: 8
    depth: 20
    noise:
      model: chain_crosstalk
      p10: 0.07
      p01: 0.05
      gamma: 0.5
    tomography_shots: 1000000
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

import numpy as np
import yaml

from .exceptions import ConfigError
from .noise import NoiseModel, crosstalk_model, independent_flip_model
from .qsim import (
    EXACT_SIM_MAX_QUBITS,
    Direction,
    StateVector,
    direction_from_label,
    random_circuit_state,
)

NOISE_MODELS = ("independent", "chain_crosstalk")


@dataclass(frozen=True)
class NoiseConfig:
    """The `noise` block: model name, per-qubit rates, optional gamma."""

    model: str
    p10: Any
    p01: Any
    gamma: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    depth: int
    noise: NoiseConfig
    directions: tuple[str, ...] = ("x", "y", "z")
    circuit_seed: int = 0
    calibration_shots: int = 10**6
    tomography_shots: int = 10**6
    calibration_seed: int = 1
    tomography_seed: int = 2
    bootstrap_resamples: int = 200
    bootstrap_seed: int = 0
    correlator_degrees: tuple[int, ...] = (1, 2, 3, 4)
    correlators_per_degree: int = 3
    correlator_seed: int = 101
    study_weights: tuple[int, ...] = (1, 2, 3, 4)
    wavevectors_per_weight: int = 4
    correlators_per_degree_study: int = 5
    grid_points: int = 8
    grid_min: int = 1000
    study_seed: int = 7

    def build_directions(self) -> tuple[Direction, ...]:
        return tuple(direction_from_label(label) for label in self.directions)

    def build_noise_model(self) -> NoiseModel:
        block = self.noise
        if block.model == "independent":
            return independent_flip_model(self.n, block.p10, block.p01)
        return crosstalk_model(self.n, block.p10, block.p01, block.gamma)

    def build_state(self) -> StateVector:
        return random_circuit_state(self.n, self.depth, self.circuit_seed)


def _require_int(value: Any, key: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        top = f", <= {maximum}" if maximum is not None else ""
        raise ConfigError(f"field {key!r} must be >= {minimum}{top}, got {value}")
    return value


def _require_rates(value: Any, key: str, n: int) -> Any:
    arr = np.asarray(value, dtype=float)
    if arr.ndim not in (0, 1) or (arr.ndim == 1 and arr.size != n):
        raise ConfigError(f"field {key!r} must be a scalar or a length-{n} list")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ConfigError(f"field {key!r} must lie in [0, 1], got {value!r}")
    return value


def _parse_noise(raw: Any, n: int) -> NoiseConfig:
    if not isinstance(raw, dict):
        raise ConfigError("field 'noise' must be a mapping")
    allowed = {"model", "p10", "p01", "gamma"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown noise field(s): {sorted(unknown)}")
    for required in ("model", "p10", "p01"):
        if required not in raw:
            raise ConfigError(f"noise block is missing field {required!r}")
    model = raw["model"]
    if model not in NOISE_MODELS:
        raise ConfigError(f"field 'noise.model' must be one of {NOISE_MODELS}, got {model!r}")
    p10 = _require_rates(raw["p10"], "noise.p10", n)
    p01 = _require_rates(raw["p01"], "noise.p01", n)
    gamma = raw.get("gamma")
    if model == "independent":
        if gamma is not None:
            raise ConfigError("field 'noise.gamma' is only valid for chain_crosstalk")
        return NoiseConfig(model, p10, p01)
    if gamma is None:
        raise ConfigError("noise block is missing field 'gamma' (required for chain_crosstalk)")
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ConfigError(f"field 'noise.gamma' must be a number, got {gamma!r}")
    if not 0.0 <= float(gamma) < 1.0:
        raise ConfigError(f"field 'noise.gamma' must lie in [0, 1), got {gamma}")
    return NoiseConfig(model, p10, p01, float(gamma))


def parse_config(raw: Any) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    for required in ("n", "depth", "noise"):
        if required not in raw:
            raise ConfigError(f"config is missing field {required!r}")

    n = _require_int(raw["n"], "n", 1, EXACT_SIM_MAX_QUBITS)
    depth = _require_int(raw["depth"], "depth", 0)
    noise = _parse_noise(raw["noise"], n)

    values: dict[str, Any] = {"n": n, "depth": depth, "noise": noise}

    directions = raw.get("directions", ["x", "y", "z"])
    if (
        not isinstance(directions, (list, tuple))
        or not directions
        or len(set(directions)) != len(directions)
    ):
        raise ConfigError("field 'directions' must be a nonempty list of distinct labels")
    for label in directions:
        try:
            direction_from_label(label)
        except ValueError as exc:
            raise ConfigError(f"field 'directions': {exc}") from exc
    values["directions"] = tuple(directions)

    int_fields = {
        "circuit_seed": (None, None),
        "calibration_shots": (1, None),
        "tomography_shots": (1, None),
        "calibration_seed": (None, None),
        "tomography_seed": (None, None),
        "bootstrap_resamples": (2, None),
        "bootstrap_seed": (None, None),
        "correlators_per_degree": (1, None),
        "correlator_seed": (None, None),
        "wavevectors_per_weight": (1, None),
        "correlators_per_degree_study": (1, None),
        "grid_points": (2, None),
        "grid_min": (1, None),
        "study_seed": (None, None),
    }
    for key, (minimum, maximum) in int_fields.items():
        if key in raw:
            values[key] = _require_int(
                raw[key], key, minimum if minimum is not None else -(2**62), maximum
            )

    for key in ("correlator_degrees", "study_weights"):
        if key in raw:
            seq = raw[key]
            if not isinstance(seq, (list, tuple)) or not seq:
                raise ConfigError(f"field {key!r} must be a nonempty list of integers")
            values[key] = tuple(_require_int(v, key, 1, n) for v in seq)
            if len(set(values[key])) != len(values[key]):
                raise ConfigError(f"field {key!r} must not repeat an entry")
        else:
            values[key] = tuple(k for k in (1, 2, 3, 4) if k <= n)

    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw)
