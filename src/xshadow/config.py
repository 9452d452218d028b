"""Experiment configuration loading and validation.

Config files are UTF-8 YAML: a flat mapping of scalar keys plus one
nested `noise` block.  Unknown and repeated keys anywhere are rejected so
typos in rate arrays cannot pass silently.  Each field of
`ExperimentConfig` states its key's default and any integer bounds, and
parse_config checks only the keys the file gives.  Parsing yields the
objects a run uses: the noise model, whose constructor's parameters are
the noise block's keys and whose constructor is their one check, and the
measurement directions; compute_xi checks a direction set the file gives
to be nonempty, distinct and informationally complete.  The circuit
state is built on first use of `ExperimentConfig.state`.  Example::

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

import functools
import inspect
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

import yaml

from .exceptions import ConfigError, NotInformationallyCompleteError
from .noise import ChainCrosstalkModel, IndependentFlipModel
from .protocols import MAX_SHOTS
from .qsim import (
    EXACT_SIM_MAX_QUBITS,
    Direction,
    StateVector,
    direction_from_label,
    pauli_directions,
    random_circuit_state,
)
from .shadows import compute_xi

# the noise block's `model` -> the class whose constructor parameters after
# n are the block's other keys
NOISE_MODELS = {"independent": IndependentFlipModel, "chain_crosstalk": ChainCrosstalkModel}
_DEGREE_KEYS = ("correlator_degrees", "study_weights")
# subsample_grid rounds this many log-spaced sizes into a Python set, and the
# study writes one row per size and group
MAX_GRID_POINTS = 10**4


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = field(metadata={"minimum": 1, "maximum": EXACT_SIM_MAX_QUBITS})
    depth: int = field(metadata={"minimum": 0})
    noise: ChainCrosstalkModel
    directions: tuple[Direction, ...] = pauli_directions()
    circuit_seed: int = field(default=0, metadata={"minimum": 0})
    calibration_shots: int = field(default=10**6, metadata={"minimum": 1, "maximum": MAX_SHOTS})
    tomography_shots: int = field(default=10**6, metadata={"minimum": 1, "maximum": MAX_SHOTS})
    calibration_seed: int = field(default=1, metadata={"minimum": 0})
    tomography_seed: int = field(default=2, metadata={"minimum": 0})
    bootstrap_resamples: int = field(default=200, metadata={"minimum": 2})
    bootstrap_seed: int = field(default=0, metadata={"minimum": 0})
    correlator_degrees: tuple[int, ...] = (1, 2, 3, 4)  # clipped to n when absent
    correlators_per_degree: int = field(default=3, metadata={"minimum": 1})
    correlator_seed: int = field(default=101, metadata={"minimum": 0})
    study_weights: tuple[int, ...] = correlator_degrees  # the same default, also clipped
    wavevectors_per_weight: int = field(default=4, metadata={"minimum": 1})
    correlators_per_degree_study: int = field(default=5, metadata={"minimum": 1})
    grid_points: int = field(default=8, metadata={"minimum": 2, "maximum": MAX_GRID_POINTS})
    grid_min: int = field(default=1000, metadata={"minimum": 1})
    study_seed: int = field(default=7, metadata={"minimum": 0})

    @functools.cached_property
    def state(self) -> StateVector:
        """The random-circuit state, built on first use and kept by this
        config, so every stage of one run shares its read-only amplitudes;
        a config made by dataclasses.replace builds its own."""
        state = random_circuit_state(self.n, self.depth, self.circuit_seed)
        state.amplitudes.flags.writeable = False
        return state


def _require_int(value: Any, key: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        top = f", <= {maximum}" if maximum is not None else ""
        raise ConfigError(f"field {key!r} must be >= {minimum}{top}, got {value}")
    return value


def _parse_noise(raw: Any, n: int) -> ChainCrosstalkModel:
    """The model that `model` names: every other key is one of its
    constructor's parameters after n, and the constructor checks them."""
    if not isinstance(raw, dict):
        raise ConfigError("field 'noise' must be a mapping")
    if "model" not in raw:
        raise ConfigError("noise block is missing field 'model'")
    model = raw["model"]
    if not isinstance(model, str) or model not in NOISE_MODELS:  # a list is unhashable
        raise ConfigError(f"field 'noise.model' must be one of {tuple(NOISE_MODELS)}, got {model!r}")
    cls = NOISE_MODELS[model]
    params = list(inspect.signature(cls).parameters)[1:]
    unknown = set(raw) - {"model", *params}
    if unknown:
        raise ConfigError(f"unknown {model} noise field(s): {sorted(unknown, key=str)}")
    for name in params:
        if name not in raw:
            raise ConfigError(f"noise block is missing field {name!r} (required for {model})")
    try:
        return cls(n, **{name: raw[name] for name in params})
    except ValueError as exc:
        raise ConfigError(f"field 'noise': {exc}") from exc


def parse_config(raw: Any) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig, key by key in
    field order (n first); an absent key keeps its field's default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    keys = fields(ExperimentConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown, key=str)}")
    for f in keys:
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"config is missing field {f.name!r}")

    values: dict[str, Any] = {}
    for f in keys:
        key, value = f.name, raw.get(f.name)
        if key not in raw:
            if key in _DEGREE_KEYS:  # the default, clipped to n
                values[key] = tuple(k for k in f.default if k <= values["n"])
        elif f.metadata:
            values[key] = _require_int(value, key, **f.metadata)
        elif key == "noise":
            values[key] = _parse_noise(value, values["n"])
        elif key == "directions":
            if not isinstance(value, (list, tuple)):  # a bare string would read as labels
                raise ConfigError("field 'directions' must be a list of labels")
            try:
                values[key] = tuple(direction_from_label(label) for label in value)
                compute_xi(values[key])  # refuses an empty, repeated or incomplete set
            except (ValueError, NotInformationallyCompleteError) as exc:
                raise ConfigError(f"field 'directions': {exc}") from exc
        elif key in _DEGREE_KEYS:
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"field {key!r} must be a nonempty list of integers")
            values[key] = tuple(_require_int(v, key, 1, values["n"]) for v in value)
            if len(set(values[key])) != len(values[key]):
                raise ConfigError(f"field {key!r} must not repeat an entry")
    return ExperimentConfig(**values)


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key repeated within one mapping,
    where SafeLoader keeps the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag == "tag:yaml.org,2002:str":
                if key_node.value in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping",
                        node.start_mark,
                        f"found repeated key {key_node.value!r}",
                        key_node.start_mark,
                    )
                seen.add(key_node.value)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a UTF-8 YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(raw)
