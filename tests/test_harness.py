import contextlib
import dataclasses
import gc
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from cli_runner import invoke
from hypothesis import example, given, settings, strategies as st
from oracles import monte_carlo_study, one_block_file, parity_counts, read_csv

import xshadow
from xshadow import cli, config as config_module, experiments, protocols, storage
from xshadow.config import ExperimentConfig, load_config, parse_config
from xshadow.exceptions import ConfigError, DataFormatError, UnmitigatableComponentError
from xshadow.experiments import (
    calibration_summary,
    collect_calibration,
    collect_tomography,
    comparison_rows,
    correlator_rms_rows,
    fit_loglog_slope,
    g_rms_rows,
    run_experiment,
    subsample_grid,
)
from xshadow.bitspace import walsh_transform
from xshadow.protocols import (
    CalibrationDataset,
    TomographyDataset,
    estimate_correlators,
    g_hat,
    independent_g,
    run_calibration,
    run_tomography,
)
from xshadow.noise import _BLOCK_ROWS, ChainCrosstalkModel
from xshadow.qsim import (
    EXACT_SIM_MAX_QUBITS,
    Direction,
    direction_from_label,
    exact_expectation,
    pauli_directions,
    random_circuit_state,
)
from xshadow.shadows import compute_xi
from xshadow.storage import (
    REPORT_COLUMNS,
    read_calibration,
    read_tomography,
    write_calibration,
    write_csv,
    write_report,
    write_tomography,
)

BASE_CONFIG = {
    "n": 3,
    "depth": 5,
    "noise": {"model": "chain_crosstalk", "p10": 0.07, "p01": 0.05, "gamma": 0.5},
}


def _config(**overrides):
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    return parse_config(raw)


def _write_yaml(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = _config()
        assert cfg.directions == pauli_directions()
        assert cfg.calibration_shots == 10**6
        assert cfg.correlator_degrees == (1, 2, 3)  # clipped to n
        assert cfg.noise.gamma == 0.5

    def test_load_yaml(self, tmp_path):
        path = _write_yaml(
            tmp_path / "c.yaml",
            "n: 2\ndepth: 3\nnoise:\n  model: independent\n  p10: [0.1, 0.2]\n  p01: 0.05\n"
            "tomography_shots: 1234\n",
        )
        cfg = load_config(path)
        assert cfg.n == 2
        assert np.array_equal(cfg.noise.p10, [0.1, 0.2])
        assert cfg.tomography_shots == 1234

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"bogus": 1}, "unknown config field"),
            ({"n": 0}, "'n'"),
            ({"n": 40}, "'n'"),
            ({"depth": -1}, "'depth'"),
            ({"calibration_shots": 0}, "'calibration_shots'"),
            ({"bootstrap_resamples": 1}, "'bootstrap_resamples'"),
            ({"directions": []}, "'directions'"),
            ({"directions": ["x", "x"]}, "'directions'"),
            ({"directions": ["x", "q", "z"]}, "'directions'"),
            ({"correlator_degrees": [0]}, "correlator_degrees"),
            ({"correlator_degrees": [5]}, "correlator_degrees"),
            ({"n": True}, "'n'"),
            ({"correlator_degrees": [1, 2, 1]}, "correlator_degrees"),
            ({"study_weights": [2, 2]}, "study_weights"),
            ({"directions": [["x"], "y", "z"]}, "'directions'"),  # an unhashable label
            ({"directions": ["x", "y"]}, "field 'directions': .* spans rank 3 of 4"),
        ],
    )
    def test_bad_top_level_fields(self, overrides, needle):
        with pytest.raises(ConfigError, match=needle):
            _config(**overrides)

    @pytest.mark.parametrize(
        "key",
        [
            "circuit_seed",
            "calibration_seed",
            "tomography_seed",
            "bootstrap_seed",
            "correlator_seed",
            "study_seed",
        ],
    )
    def test_negative_seed_is_rejected(self, key):
        # numpy generators take no negative seed, so the config refuses it up front
        with pytest.raises(ConfigError, match=f"'{key}' must be >= 0"):
            _config(**{key: -1})

    # each bounded integer key's least accepted value
    MINIMUMS = {
        "n": 1,
        "depth": 0,
        "circuit_seed": 0,
        "calibration_shots": 1,
        "tomography_shots": 1,
        "calibration_seed": 0,
        "tomography_seed": 0,
        "bootstrap_resamples": 2,
        "bootstrap_seed": 0,
        "correlators_per_degree": 1,
        "correlator_seed": 0,
        "wavevectors_per_weight": 1,
        "correlators_per_degree_study": 1,
        "grid_points": 2,
        "grid_min": 1,
        "study_seed": 0,
    }

    @pytest.mark.parametrize("key,minimum", MINIMUMS.items())
    def test_each_bounded_field_takes_its_bound(self, key, minimum):
        for value in (minimum, minimum + 7):
            assert getattr(_config(**{key: value}), key) == value
        with pytest.raises(ConfigError, match=f"field '{key}' must be >= {minimum}"):
            _config(**{key: minimum - 1})

    def test_every_field_is_parsed_by_name_or_bounded(self):
        # a new key that is neither would be accepted and then dropped
        by_name = {"noise", "directions", "correlator_degrees", "study_weights"}
        bounds = {}
        for f in dataclasses.fields(ExperimentConfig):
            assert (f.name in by_name) != bool(f.metadata), f.name
            if f.metadata:
                bounds[f.name] = f.metadata["minimum"]
        assert bounds == self.MINIMUMS

    # each capped integer key's greatest accepted value: a dataset's shots
    # are sorted by uint32 indices, and the subsample grid is a Python set
    MAXIMUMS = {
        "n": EXACT_SIM_MAX_QUBITS,
        "calibration_shots": 2**32 - 1,
        "tomography_shots": 2**32 - 1,
        "grid_points": 10**4,
    }

    @pytest.mark.parametrize("key,maximum", MAXIMUMS.items())
    def test_each_capped_field_takes_its_cap(self, key, maximum):
        # parsed only: a run at the cap would ask for the memory it caps
        assert getattr(_config(**{key: maximum}), key) == maximum
        for value in (maximum + 1, 10**15):
            with pytest.raises(ConfigError, match=f"field '{key}' must be .*<= {maximum}, got"):
                _config(**{key: value})
        caps = {f.name: f.metadata["maximum"] for f in dataclasses.fields(ExperimentConfig)
                if "maximum" in f.metadata}
        assert caps == self.MAXIMUMS

    def test_wavevectors_per_weight_needs_no_cap(self):
        # it only bounds a pick among the C(n, w) <= 924 supports of a weight
        config = _config(n=6, wavevectors_per_weight=10**18, calibration_shots=2000, grid_min=10)
        assert config.wavevectors_per_weight == 10**18
        cal = collect_calibration(config)
        every_support = dataclasses.replace(config, wavevectors_per_weight=math.comb(6, 3))
        assert g_rms_rows(config, cal) == g_rms_rows(every_support, cal)

    def test_grid_min_needs_no_cap(self, tmp_path, monkeypatch):
        # subsample_grid refuses a grid_min above a tenth of the records
        # before experiment collects anything
        config = _config(grid_min=10**18)
        assert config.grid_min == 10**18

        def refuse(config):
            raise AssertionError("collected")

        monkeypatch.setattr(experiments, "collect_calibration", refuse)
        monkeypatch.setattr(experiments, "collect_tomography", refuse)
        with pytest.raises(ValueError, match=f"too small for subsampling from {10**18}$"):
            run_experiment(config, str(tmp_path / "exp"))
        assert not (tmp_path / "exp").exists()

    def test_direction_set_is_checked_only_when_given(self, monkeypatch):
        def refuse(directions):
            raise AssertionError("compute_xi called")

        monkeypatch.setattr(config_module, "compute_xi", refuse)
        assert _config().directions == pauli_directions()
        with pytest.raises(AssertionError, match="compute_xi called"):
            _config(directions=["z", "x", "y"])

    def test_first_bad_key_in_field_order_is_reported(self):
        with pytest.raises(ConfigError, match="correlator_degrees"):
            _config(correlators_per_degree=0, correlator_degrees=[0])

    @pytest.mark.parametrize(
        "noise",
        [
            {"model": "other", "p10": 0.1, "p01": 0.1},
            {"model": "independent", "p10": 0.1},
            {"model": "independent", "p10": 1.5, "p01": 0.1},
            {"model": "independent", "p10": [0.1, 0.1], "p01": 0.1},
            {"model": "independent", "p10": 0.1, "p01": 0.1, "gamma": 0.5},
            {"model": "chain_crosstalk", "p10": 0.1, "p01": 0.1},
            {"model": "chain_crosstalk", "p10": 0.1, "p01": 0.1, "gamma": 1.0},
            {"model": "chain_crosstalk", "p10": 0.1, "p01": 0.1, "gamma": "x"},
            {"model": "independent", "p10": 0.1, "p01": 0.1, "extra": 2},
            {"model": "independent", "p10": float("nan"), "p01": float("nan")},
            {"model": "independent", "p10": None, "p01": 0.1},
            {"model": "independent", "p10": True, "p01": 0.1},
            {"model": "independent", "p10": "0.1", "p01": 0.1},
            {"model": "independent", "p10": [0.1, float("nan"), 0.1], "p01": 0.1},
            {"model": "independent", "p10": 0.1, "p01": [0.1, True, 0.1]},
            {"model": "independent", "p10": 0.1, "p01": 0.1, "gamma": None},
        ],
    )
    def test_bad_noise_blocks(self, noise):
        with pytest.raises(ConfigError):
            _config(noise=noise)

    @pytest.mark.parametrize(
        "noise,needle",
        [
            ({"p10": 0.1, "p01": 0.1, "gamma": 0.5}, "missing field 'model'"),
            ({"model": "independent", "p10": 0.1, "p01": 0.1, "gamma": None},
             r"unknown independent noise field\(s\): \['gamma'\]"),
            ({"model": "chain_crosstalk", "p10": 0.1, "p01": 0.1}, "missing field 'gamma'"),
            ({"model": "chain_crosstalk", "p01": 0.1, "gamma": 0.5}, "missing field 'p10'"),
            ({"model": ["independent"], "p10": 0.1, "p01": 0.1}, "'noise.model' must be one of"),
        ],
    )
    def test_bad_noise_block_names_its_key(self, noise, needle):
        with pytest.raises(ConfigError, match=needle):
            _config(noise=noise)

    def test_noise_keys_are_the_constructor_parameters(self):
        # the keys after `model` are each class's constructor parameters after n
        for model, cls in config_module.NOISE_MODELS.items():
            rates = {"p10": [0.1, 0.2, 0.3], "p01": 0.05, "gamma": 0.25}
            params = list(inspect.signature(cls).parameters)[1:]
            noise = _config(noise={"model": model, **{k: rates[k] for k in params}}).noise
            assert type(noise) is cls
            assert np.array_equal(noise.p10, [0.1, 0.2, 0.3])
            assert np.array_equal(noise.p01, [0.05] * 3)
            assert noise.gamma == (0.25 if "gamma" in params else 0.0)

    @pytest.mark.parametrize("block", ["top", "noise"])
    def test_unknown_keys_of_mixed_types(self, block):
        # yaml keys need not be strings; sorting 1 beside 'zz' must not raise TypeError
        raw = dict(BASE_CONFIG)
        if block == "top":
            raw.update({1: 2, "zz": 3})
        else:
            raw["noise"] = {**raw["noise"], 1: 2, "zz": 3}
        with pytest.raises(ConfigError, match=r"unknown .*field\(s\): \[1, 'zz'\]"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "text",
        [
            "n: 3\ndepth: 2\n1: 2\nzz: 3\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.1\n",
            "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.1\n"
            "  1: 2\n  zz: 3\n",
        ],
        ids=["top", "noise"],
    )
    def test_unknown_keys_of_mixed_types_are_refused_by_the_cli(self, tmp_path, text):
        path = _write_yaml(tmp_path / "mixed.yaml", text)
        out = tmp_path / "cal.txt"
        result = invoke(["calibrate", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught TypeError
        assert "error: unknown" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config({"n": 2, "depth": 1})
        with pytest.raises(ConfigError, match="mapping"):
            parse_config([1, 2])

    def test_parsed_objects(self):
        cfg = _config(directions=["z", "x", "y"])
        assert isinstance(cfg.noise, ChainCrosstalkModel)
        assert (cfg.noise.n, cfg.noise.gamma) == (3, 0.5)
        assert np.array_equal(cfg.noise.p10, [0.07] * 3)
        assert cfg.directions == tuple(direction_from_label(c) for c in "zxy")
        assert cfg.state.n == 3

    def test_nan_rates_are_refused_by_the_cli(self, tmp_path):
        path = _write_yaml(
            tmp_path / "nan.yaml",
            "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: .nan\n  p01: .nan\n",
        )
        out = tmp_path / "cal.txt"
        result = invoke(["calibrate", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "error: field 'noise': p10 must lie in [0, 1]" in result.output
        assert not out.exists()

    def test_rates_past_float_range_are_refused_by_the_cli(self, tmp_path):
        # float() of this integer raises OverflowError
        path = _write_yaml(
            tmp_path / "huge.yaml",
            f"n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 1{'0' * 400}\n  p01: 0.05\n",
        )
        out = tmp_path / "cal.txt"
        result = invoke(["calibrate", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught OverflowError
        assert "error: field 'noise': p10 must lie in [0, 1]" in result.output
        assert not out.exists()

    # a valid mapping that sets the nested keys; the property test mutates it
    VALID = {
        "n": 3,
        "depth": 2,
        "noise": {"model": "chain_crosstalk", "p10": [0.07, 0.1, 0.2], "p01": 0.05, "gamma": 0.5},
        "directions": ["x", "y", "z"],
        "correlator_degrees": [1, 3],
        "study_weights": [2],
        "bootstrap_resamples": 20,
    }
    SCALARS = st.one_of(
        st.none(),
        st.booleans(),
        st.just(math.nan),
        st.integers(2**1024, 10**400),  # past float range
        st.integers(-(10**400), -(2**1024)),
        st.integers(-2, 20),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=3),
    )
    ODD_VALUES = st.one_of(
        SCALARS,
        st.lists(SCALARS, max_size=4),
        st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
    )
    KEYS = st.one_of(
        st.tuples(st.just("top"), st.sampled_from(list(ExperimentConfig.__dataclass_fields__))),
        st.tuples(st.just("noise"), st.sampled_from(["model", "p10", "p01", "gamma"])),
    )

    MUTATIONS = st.lists(
        st.tuples(KEYS, st.sampled_from(["drop", "set", "add"]), ODD_VALUES),
        min_size=1,
        max_size=3,
    )

    def _mutated(self, mutations):
        """VALID after dropping, setting or adding (as `<key>_extra`) each
        key, at the top level or in the noise block."""
        raw = {**self.VALID, "noise": dict(self.VALID["noise"])}
        for (block, key), action, value in mutations:
            noise = raw.get("noise")
            target = noise if block == "noise" and isinstance(noise, dict) else raw
            if action == "drop":
                target.pop(key, None)
            elif action == "set":
                target[key] = value
            else:
                target[key + "_extra"] = value
        return raw

    @settings(max_examples=300)
    @given(mutations=MUTATIONS)
    @example(mutations=[(("noise", "p10"), "set", 10**400)])
    @example(mutations=[(("noise", "gamma"), "set", -(10**400))])
    @example(mutations=[(("top", "depth"), "set", 10**400)])  # parses: no run starts
    def test_a_mutated_mapping_parses_or_is_refused(self, mutations):
        """Dropping a key, setting a value of any type or adding an unknown
        key, at the top level or in the noise block, gives a config or a
        ConfigError, nothing else."""
        try:
            config = parse_config(self._mutated(mutations))
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)

    @settings(max_examples=150)
    @given(mutations=MUTATIONS)
    @example(mutations=[(("top", "calibration_seed"), "set", 20)])  # written
    @example(mutations=[(("noise", "p10"), "set", math.nan)])  # refused
    def test_a_mutated_config_file_is_run_or_refused_by_the_cli(self, mutations):
        """`calibrate --shots 8` on the mutated mapping, written as YAML,
        exits 0 with the dataset written, or exits 1 through SystemExit with
        an error line and no file."""
        with tempfile.TemporaryDirectory() as tmp:
            text = yaml.safe_dump(self._mutated(mutations))
            path = _write_yaml(pathlib.Path(tmp, "c.yaml"), text)
            out = pathlib.Path(tmp, "cal.txt")
            result = invoke(
                ["calibrate", "--config", path, "--out", str(out), "--shots", "8"]
            )
            if result.exit_code == 0:
                assert out.exists(), result.output
                return
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit), repr(result.exception)
            assert "error: " in result.output
            assert not out.exists()

    def test_yaml_parse_error(self, tmp_path):
        path = _write_yaml(tmp_path / "bad.yaml", "n: [unclosed\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ("n: 3\ndepth: 2\nn: 5\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.05\n", "n"),
            (
                "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 0.1\n  p10: 0.2\n"
                "  p01: 0.05\n",
                "p10",
            ),
            ('{"n": 3, "depth": 2, "depth": 4, "noise": {"model": "independent", '
             '"p10": 0.1, "p01": 0.05}}', "depth"),
        ],
    )
    def test_repeated_key_is_refused(self, tmp_path, text, key):
        # a YAML loader keeps the last of two equal keys, so n: 3 ... n: 5 would load n=5
        path = _write_yaml(tmp_path / "dup.yaml", text)
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            load_config(path)

    def test_non_utf8_file_is_refused(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"n: 3\ndepth: 2  # caf\xe9\nnoise:\n  model: independent\n"
                         b"  p10: 0.1\n  p01: 0.05\n")
        with pytest.raises(ConfigError, match="not UTF-8 text") as info:
            load_config(str(path))
        assert str(path) in str(info.value)


class TestStorage:
    def test_calibration_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = CalibrationDataset(4, rng.integers(0, 2, (200, 4), dtype=np.uint8), seed=17)
        path = str(tmp_path / "cal.txt")
        write_calibration(path, ds)
        back = read_calibration(path)
        assert back.n == 4
        assert back.seed == 17
        assert np.array_equal(back.outcomes, ds.outcomes)

    def test_tomography_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        dirs = tuple(direction_from_label(l) for l in "xyz")
        settings = rng.integers(0, 3, (150, 3), dtype=np.uint8)
        ds = TomographyDataset(
            3, dirs, 2 * settings + rng.integers(0, 2, (150, 3), dtype=np.uint8), seed=23
        )
        path = str(tmp_path / "tomo.txt")
        write_tomography(path, ds)
        back = read_tomography(path)
        assert back.seed == 23
        assert tuple(d.label for d in back.directions) == ("x", "y", "z")
        assert np.array_equal(back.setting_indices, ds.setting_indices)
        assert np.array_equal(back.outcomes, ds.outcomes)

    @pytest.mark.parametrize("kind", ["cal", "tomo"])
    @pytest.mark.parametrize(
        "records",
        [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3],
    )
    def test_row_blocks_write_the_one_block_file(self, tmp_path, kind, records):
        rng = np.random.default_rng(records)
        outcomes = rng.integers(0, 2, (records, 5), dtype=np.uint8)
        path = tmp_path / f"{kind}.txt"
        if kind == "cal":
            ds = CalibrationDataset(5, outcomes, seed=records)
            write_calibration(str(path), ds)
        else:
            indices = rng.integers(0, 3, (records, 5), dtype=np.uint8)
            ds = TomographyDataset(5, pauli_directions(), 2 * indices + outcomes, seed=records)
            write_tomography(str(path), ds)
        payload = path.read_bytes()
        assert payload == one_block_file(ds)
        assert len(payload.splitlines()) == records + (3 if kind == "cal" else 4)

    @pytest.mark.parametrize("kind", ["cal", "tomo"])
    def test_writers_hold_one_row_block(self, tmp_path, kind):
        # at 100k x 8 the whole file's bytes and their temporaries peaked at
        # 1.63 MiB (calibration) and 4.01 MiB (tomography) under tracemalloc
        rng = np.random.default_rng(6)
        outcomes = rng.integers(0, 2, (100_000, 8), dtype=np.uint8)
        if kind == "cal":
            ds, write = CalibrationDataset(8, outcomes), write_calibration
        else:
            indices = rng.integers(0, 3, (100_000, 8), dtype=np.uint8)
            ds = TomographyDataset(8, pauli_directions(), 2 * indices + outcomes)
            write = write_tomography
        tracemalloc.start()
        try:
            write(str(tmp_path / f"{kind}.txt"), ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("kind", ["cal", "tomo"])
    def test_writers_truncate_an_existing_file(self, tmp_path, kind):
        rng = np.random.default_rng(9)
        path = str(tmp_path / f"{kind}.txt")
        for records in (50, 3):  # the second file is the shorter
            outcomes = rng.integers(0, 2, (records, 4), dtype=np.uint8)
            if kind == "cal":
                ds = CalibrationDataset(4, outcomes, seed=records)
                write_calibration(path, ds)
                back = read_calibration(path)
            else:
                indices = rng.integers(0, 3, (records, 4), dtype=np.uint8)
                ds = TomographyDataset(4, pauli_directions(), 2 * indices + outcomes, seed=records)
                write_tomography(path, ds)
                back = read_tomography(path)
                assert np.array_equal(back.digits, ds.digits)
            assert pathlib.Path(path).read_bytes() == one_block_file(ds)
            assert (back.seed, len(back)) == (records, records)

    def test_readers_hold_one_record_array_and_a_row_block(self, tmp_path):
        # 200,000 x 12 records: 2.3 MiB of digits.  Reading the whole body
        # first peaked at 11.2 MiB (tomography, a 7.1 MiB body) and 4.8 MiB
        # (calibration, 2.5 MiB) under tracemalloc; a row block's buffer and
        # temporaries come to 1.1-1.4 times the block's bytes
        n, records = 12, 200_000
        rng = np.random.default_rng(7)
        cal_path, tomo_path = str(tmp_path / "cal.txt"), str(tmp_path / "tomo.txt")
        write_calibration(cal_path, CalibrationDataset(n, rng.integers(0, 2, (records, n))))
        digits = rng.integers(0, 6, (records, n))
        write_tomography(tomo_path, TomographyDataset(n, pauli_directions(), digits))
        for read, path, width in (
            (read_calibration, cal_path, n + 1),
            (read_tomography, tomo_path, 3 * n + 1),
        ):
            read(path)  # numpy's first-call allocations
            tracemalloc.start()
            try:
                data = read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(data) == records
            assert peak < records * n + 2 * width * _BLOCK_ROWS, read.__name__

    def test_an_empty_body_reads_without_a_row_sized_by_the_header(self, tmp_path):
        # a separator template of #n= bytes, built before any row was read,
        # peaked at 190.7 MiB under tracemalloc
        path = tmp_path / "tomo.txt"
        path.write_text("#n=100000000\n#type=tomography\n#directions=x,y,z\n")
        tracemalloc.start()
        try:
            data = read_tomography(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (data.n, len(data)) == (10**8, 0)
        assert peak < 2**20

    @pytest.mark.parametrize("kind", ["cal", "tomo"])
    def test_a_body_shorter_than_its_file_size_is_refused(
        self, tmp_path, monkeypatch, valid_files, kind
    ):
        # the rows are counted from the file's size: a size one row too large
        # must not hand over the reused buffer's stale bytes as a last row
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(valid_files[kind])
        width = 4 if kind == "cal" else 10
        fstat = os.fstat

        def over_reported(fd):
            status = list(fstat(fd))
            status[stat.ST_SIZE] += width
            return os.stat_result(status)

        monkeypatch.setattr(storage.os, "fstat", over_reported)
        reader = read_calibration if kind == "cal" else read_tomography
        with pytest.raises(DataFormatError, match="file ended before its 9 rows"):
            reader(str(path))

    def test_a_pipe_is_refused_before_any_row_is_decoded(self, monkeypatch, valid_files):
        def decoded(*args, **kwargs):
            raise AssertionError("a row block of a pipe was read")

        monkeypatch.setattr(storage, "_row_blocks", decoded)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, valid_files["cal"])
            os.close(write_end)
            with pytest.raises(DataFormatError, match="not a regular file"):
                read_calibration(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_tomography_row_orientation(self, tmp_path):
        # qubit 0 leads the label list but trails the bitstring
        dirs = (direction_from_label("x"), direction_from_label("z"))
        ds = TomographyDataset(2, dirs, np.array([[1, 2]], dtype=np.uint8))  # x read 1, z read 0
        path = str(tmp_path / "t.txt")
        write_tomography(path, ds)
        with open(path) as fh:
            body = [line for line in fh if not line.startswith("#")]
        assert body == ["x,z 01\n"]

    def test_multichar_labels_are_refused(self, tmp_path):
        custom = (Direction("xp", (1.0, 0.0, 0.0)), Direction("zp", (0.0, 0.0, 1.0)))
        ds = TomographyDataset(2, custom, np.array([[1, 2], [2, 3]], dtype=np.uint8))
        path = tmp_path / "custom.txt"
        with pytest.raises(ValueError, match="'xp' is not one printable ASCII character"):
            write_tomography(str(path), ds)
        path.write_text("#n=2\n#type=tomography\n#directions=xp,zp\nxp,zp 01\n")
        with pytest.raises(DataFormatError, match="'xp' is not one printable ASCII character"):
            read_tomography(str(path), directions=custom)

    @pytest.mark.parametrize(
        "labels",
        [
            ["a b"],
            ["a,b", "c"],
            [","],
            ["#"],
            [" "],
            [""],
            ["\n"],
            ["a\u2028", "b"],
            ["é"],
            ["x", "x"],
            [],
        ],
    )
    def test_writer_refuses_bad_label_sets(self, tmp_path, labels):
        directions = tuple(Direction(label, (0.0, 0.0, 1.0)) for label in labels)
        no_records = np.zeros((0, 1), dtype=np.uint8)
        ds = TomographyDataset(1, directions, no_records)
        path = tmp_path / "bad.txt"
        with pytest.raises(ValueError):
            write_tomography(str(path), ds)
        assert not path.exists()

    @pytest.mark.parametrize(
        "header",
        [
            "x,x",
            "a b",
            "",
            "x,,z",
            ",",
            "é",
            pytest.param(",".join(f"d{i}" for i in range(300)), id="300-labels"),
        ],
    )
    def test_reader_refuses_bad_direction_headers(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"#n=1\n#type=tomography\n#directions={header}\nx 0\n")
        directions = tuple(Direction(label, (0.0, 0.0, 1.0)) for label in header.split(","))
        with pytest.raises(DataFormatError):
            read_tomography(str(path))
        with pytest.raises(DataFormatError):
            read_tomography(str(path), directions=directions)

    @pytest.mark.parametrize("kind", ["cal", "tomo"])
    @pytest.mark.parametrize("ending", ["crlf", "unterminated"])
    def test_crlf_and_unterminated_bodies_are_refused(self, tmp_path, valid_files, kind, ending):
        payload = valid_files[kind]
        body_start = payload.index(b"\n", payload.rindex(b"#")) + 1
        if ending == "crlf":
            payload = payload[:body_start] + payload[body_start:].replace(b"\n", b"\r\n")
            needle = "row 0 is not"
        else:
            payload = payload[:-1]
            needle = "row 7 is not"  # the last of 8 records
        path = tmp_path / "bad.txt"
        path.write_bytes(payload)
        reader = read_calibration if kind == "cal" else read_tomography
        with pytest.raises(DataFormatError, match=needle):
            reader(str(path))

    def test_readers_hand_over_column_major_uint8(self, tmp_path, monkeypatch):
        handed = []

        def recording(cls):
            def build(**fields):
                handed.extend(v for k, v in fields.items() if k in ("outcomes", "digits"))
                return cls(**fields)

            return build

        monkeypatch.setattr(storage, "CalibrationDataset", recording(CalibrationDataset))
        monkeypatch.setattr(storage, "TomographyDataset", recording(TomographyDataset))
        dirs = tuple(direction_from_label(l) for l in "xyz")
        rng = np.random.default_rng(4)
        cal_path = str(tmp_path / "cal.txt")
        write_calibration(cal_path, CalibrationDataset(3, rng.integers(0, 2, (20, 3))))
        read_calibration(cal_path)
        for records in (20, 0):
            path = str(tmp_path / f"tomo{records}.txt")
            settings = rng.integers(0, len(dirs), (records, 3))
            write_tomography(path, TomographyDataset(3, dirs, 2 * settings + settings % 2))
            read_tomography(path, directions=dirs)
        assert len(handed) == 3
        for array in handed:  # the dataset constructors then copy nothing
            assert array.dtype == np.uint8 and array.flags.f_contiguous

    def test_unknown_label_without_direction_set(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("#n=1\n#type=tomography\n#directions=w\nw 0\n")
        with pytest.raises(DataFormatError):
            read_tomography(str(path))

    def test_direction_set_mismatch(self, tmp_path):
        dirs = (direction_from_label("x"),)
        ds = TomographyDataset(1, dirs, np.zeros((1, 1), dtype=np.uint8))
        path = str(tmp_path / "m.txt")
        write_tomography(path, ds)
        with pytest.raises(DataFormatError, match="do not match"):
            read_tomography(path, directions=(direction_from_label("y"),))

    @pytest.mark.parametrize(
        "body,needle",
        [
            ("#type=calibration\n000\n", "missing #n="),
            ("#n=3\n000\n", "missing #type="),
            ("#n=x\n#type=calibration\n000\n", "#n= must be an integer"),
            ("#n=3\n#type=calibration\n00\n", "whole 3-bit rows"),
            ("#n=3\n#type=calibration\n002\n", "only 0 and 1"),
            ("#n=3\n#type=tomography\nz,z,z 000\n", "missing #directions="),
            ("#n=-1\n#type=calibration\n000\n", "#n= must be >= 1, got -1"),
            ("#n=-2\n#type=tomography\n#directions=z\nz 0\n", "#n= must be >= 1, got -2"),
            ("#n=0\n#type=calibration\n\n\n", "#n= must be >= 1, got 0"),
            ("#n=3\n#type=calibration\n#n=2\n01\n", "repeated #n= header"),
            (
                "#n=2\n#type=tomography\n#directions=x,y\n#directions=z\nz,z 01\n",
                "repeated #directions= header",
            ),
            (
                "#n=2\n#type=tomography\n#directions=x,z\nx,z 01\nx;z 01\n",
                "row 1 must be '<labels> <bits>'",
            ),
            (
                "#n=2\n#type=tomography\n#directions=x,z\nx,z 01\nz,z 01\nx,y 01\n",
                "row 2 has unknown label 'y'",
            ),
            (
                "#n=2\n#type=tomography\n#directions=x,z\nx,z 01\nz,x 02\n",
                "only 0 and 1; row 1 does not",
            ),
            ("#n=1\n#type=calibration\n#seed=x\n0\n", "#seed= must be an integer"),
            (
                "#n=1\n#type=tomography\n#seed=1.5\n#directions=z\nz 0\n",
                "#seed= must be an integer",
            ),
            (
                "#n=1\n#type=tomography\n#directions=z\nz 0\n",
                "expected #type=calibration, got tomography",
            ),
            ("#n=1\n#type=calibration\n0\n", "expected #type=tomography, got calibration"),
        ],
    )
    def test_malformed_files(self, tmp_path, body, needle):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        # the reader of the file's #type=, or of the type a wrong-type needle expects
        kind = re.search(r"#type=(\w+)", needle if "expected #type=" in needle else body)
        reader = read_tomography if kind and kind[1] == "tomography" else read_calibration
        with pytest.raises(DataFormatError, match=needle):
            reader(str(path))

    @pytest.mark.parametrize(
        "row", [_BLOCK_ROWS, 2 * _BLOCK_ROWS + 3], ids=["block-start", "partial"]
    )
    @pytest.mark.parametrize(
        "kind,column,byte,needle",
        [
            ("cal", 1, "2", "rows must contain only 0 and 1; row {row} does not"),
            ("tomo", 7, "2", "rows must contain only 0 and 1; row {row} does not"),
            ("tomo", 2, "w", "row {row} has unknown label 'w'"),
            ("tomo", 3, ";", "row {row} must be '<labels> <bits>' with 3 comma-separated labels"),
            ("tomo", 5, ",", "row {row} must be '<labels> <bits>' with 3 comma-separated labels"),
        ],
        ids=["cal-bit", "tomo-bit", "tomo-label", "tomo-separator", "tomo-space"],
    )
    def test_bad_row_is_located_in_any_decode_block(
        self, tmp_path, row, kind, column, byte, needle
    ):
        # two whole decode blocks and a partial one of 5 rows, n = 3
        records = 2 * _BLOCK_ROWS + 5
        zeros = np.zeros((records, 3), dtype=np.uint8)
        path = tmp_path / f"{kind}.txt"
        if kind == "cal":
            write_calibration(str(path), CalibrationDataset(3, zeros))
            width = 4
        else:
            write_tomography(str(path), TomographyDataset(3, pauli_directions(), zeros))
            width = 10
        payload = bytearray(path.read_bytes())
        body_start = len(payload) - records * width
        payload[body_start + row * width + column] = ord(byte)
        path.write_bytes(bytes(payload))
        reader = read_calibration if kind == "cal" else read_tomography
        with pytest.raises(DataFormatError) as error:
            reader(str(path))
        assert str(error.value) == f"{path}: " + needle.format(row=row)

    @pytest.mark.parametrize(
        "row", [_BLOCK_ROWS, 2 * _BLOCK_ROWS + 3], ids=["block-start", "partial"]
    )
    def test_an_unknown_label_is_refused_before_it_meets_its_bit(self, tmp_path, row):
        # an unknown label reads as 255, which a bit of 1 would wrap to the
        # valid digit 0 (setting 0, bit 0)
        records = 2 * _BLOCK_ROWS + 5
        ones = np.ones((records, 3), dtype=np.uint8)  # setting 0, bit 1 everywhere
        path = tmp_path / "tomo.txt"
        write_tomography(str(path), TomographyDataset(3, pauli_directions(), ones))
        payload = bytearray(path.read_bytes())
        payload[len(payload) - (records - row) * 10 + 2] = ord("w")  # qubit 1's label
        path.write_bytes(bytes(payload))
        with pytest.raises(DataFormatError) as error:
            read_tomography(str(path))
        assert str(error.value) == f"{path}: row {row} has unknown label 'w'"

    def test_csv_round_trip(self, tmp_path):
        rows = [
            {"a": 1, "b": 0.125, "c": "x"},
            {"a": 2, "b": float(np.float64(0.3)), "c": "y"},
        ]
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b", "c"), rows)
        back = read_csv(path)
        assert back[0]["a"] == "1"
        assert float(back[1]["b"]) == 0.3
        assert [r["c"] for r in back] == ["x", "y"]

    def test_csv_writes_numpy_floats_by_their_float_repr(self, tmp_path):
        # np.float64 subclasses float; numpy 2 reprs it as np.float64(1.5)
        rows = [{"a": np.float64(1.5), "b": np.float32(0.25), "c": np.float64(0.1)}]
        path = tmp_path / "np.csv"
        write_csv(str(path), ("a", "b", "c"), rows)
        assert path.read_text(encoding="utf-8") == "a,b,c\n1.5,0.25,0.1\n"

    def test_report_columns_pinned(self, tmp_path):
        row = {col: 0 for col in REPORT_COLUMNS}
        path = str(tmp_path / "r.csv")
        write_report(path, [row])
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == (
            "correlator_id,degree,pattern,truth,mitigated,mitigated_se,"
            "unmitigated,unmitigated_se,indep,indep_se,g_hat"
        )


def _no_work(*args, **kwargs):
    raise AssertionError("a refused direction set got past the check")


class TestDirectionSetRule:
    """Every entry point that takes a direction set refuses an empty or a
    repeated one with the rule's own message, before it does any work."""

    @pytest.mark.parametrize(
        "entry",
        ["compute_xi", "run_tomography", "write_tomography", "read_tomography", "parse_config"],
    )
    @pytest.mark.parametrize(
        "labels,message",
        [((), "direction set is empty"), (("z", "z"), r"direction labels \('z', 'z'\) repeat")],
        ids=["empty", "repeated"],
    )
    def test_every_entry_point_refuses(self, tmp_path, monkeypatch, entry, labels, message):
        directions = tuple(direction_from_label(label) for label in labels)
        path = tmp_path / "tomo.txt"
        error = ValueError
        if entry == "compute_xi":
            call = lambda: compute_xi(directions)
        elif entry == "run_tomography":
            state = random_circuit_state(1, 2, seed=0)
            model = ChainCrosstalkModel(1, 0.1, 0.1, 0.2)
            monkeypatch.setattr(np.random, "default_rng", _no_work)  # refused before any draw
            call = lambda: run_tomography(state, directions, model, 10, seed=0)
        elif entry == "write_tomography":
            no_records = np.zeros((0, 1), dtype=np.uint8)
            dataset = TomographyDataset(1, directions, no_records)
            call = lambda: write_tomography(str(path), dataset)
        elif entry == "read_tomography":
            path.write_text(f"#n=1\n#type=tomography\n#directions={','.join(labels)}\nz 0\n")
            monkeypatch.setattr(storage, "_read_rows", _no_work)  # refused before the body
            call, error = lambda: read_tomography(str(path)), DataFormatError
        else:
            call = lambda: _config(directions=list(labels))
            error, message = ConfigError, "field 'directions': " + message
        with pytest.raises(error, match=message):
            call()
        assert entry == "read_tomography" or not path.exists()


# the tomography label alphabet: printable ASCII but space, comma and '#'
_ALPHABET = [chr(c) for c in range(0x21, 0x7F) if chr(c) not in ",#"]
_LABELS = st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=len(_ALPHABET), unique=True)
# (kind, position, byte); positions wrap around the file
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)
# (key, value) header lines: a #n= that may ask for any row width, and
# #directions= label lists that may break the label rules
_HEADER_MUTATIONS = st.lists(
    st.tuples(st.just("n"), st.integers(-2, 64) | st.integers(0, 1 << 40))
    | st.tuples(
        st.just("directions"),
        st.lists(st.sampled_from(_ALPHABET + [",", " ", "é"]), max_size=len(_ALPHABET)).map(
            ",".join
        ),
    ),
    max_size=2,
)


@pytest.fixture(scope="module")
def storage_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("storage")


def _mutated(payload: bytes, mutations) -> bytes:
    """`payload` with each (kind, position, byte) of _MUTATIONS applied."""
    payload = bytearray(payload)
    for op, position, byte in mutations:
        if op == "insert":
            payload.insert(position % (len(payload) + 1), byte)
        elif op == "replace":
            payload[position % len(payload)] = byte
        else:
            del payload[position % len(payload)]
    return bytes(payload)


def _with_headers(payload: bytes, headers) -> bytes:
    """`payload` with each (key, value) of _HEADER_MUTATIONS as a header line,
    in place of the file's own #key= line or else as its first line."""
    lines = payload.split(b"\n")
    for key, value in headers:
        line = f"#{key}={value}".encode()
        owned = [i for i, old in enumerate(lines) if old.startswith(f"#{key}=".encode())]
        if owned:
            lines[owned[0]] = line
        else:
            lines.insert(0, line)
    return b"\n".join(lines)


def _fresh_file(directory: pathlib.Path, name: str) -> str:
    """The path of `name` in `directory`, with no file there.  Writing over
    an existing file took 32-55 ms per example on one host's ext4 root, against
    0.6 ms after an unlink; TestStorage.test_writers_truncate_an_existing_file
    keeps the writers' truncating open covered."""
    path = directory / name
    path.unlink(missing_ok=True)
    return str(path)


@pytest.fixture(scope="module")
def valid_files(storage_dir):
    """The bytes of a valid n=3 calibration file and tomography file."""
    model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
    state = random_circuit_state(3, 4, 3)
    write_calibration(str(storage_dir / "cal.txt"), run_calibration(model, 8, seed=1))
    tomo = run_tomography(state, pauli_directions(), model, 8, seed=2)
    write_tomography(str(storage_dir / "tomo.txt"), tomo)
    return {kind: (storage_dir / f"{kind}.txt").read_bytes() for kind in ("cal", "tomo")}


class TestStorageProperties:
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 12),
        records=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        file_seed=st.none() | st.integers(0, 2**63),
    )
    def test_calibration_round_trip(self, storage_dir, n, records, seed, file_seed):
        rng = np.random.default_rng(seed)
        ds = CalibrationDataset(n, rng.integers(0, 2, (records, n)), seed=file_seed)
        path = _fresh_file(storage_dir, "round_trip.txt")
        write_calibration(path, ds)
        assert pathlib.Path(path).read_bytes() == one_block_file(ds)
        back = read_calibration(path)
        assert (back.n, back.seed) == (n, file_seed)
        assert np.array_equal(back.outcomes, ds.outcomes)

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 12),
        labels=_LABELS,
        records=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=12, labels=["x", "y", "z"], records=40, seed=0)
    @example(n=3, labels=_ALPHABET, records=40, seed=1)
    def test_tomography_round_trip(self, storage_dir, n, labels, records, seed):
        directions = tuple(Direction(label, (0.0, 0.0, 1.0)) for label in labels)
        rng = np.random.default_rng(seed)
        settings = rng.integers(0, len(labels), (records, n))
        outcomes = rng.integers(0, 2, (records, n))
        ds = TomographyDataset(n, directions, 2 * settings + outcomes, seed=seed)
        path = _fresh_file(storage_dir, "round_trip.txt")
        write_tomography(path, ds)
        assert pathlib.Path(path).read_bytes() == one_block_file(ds)
        back = read_tomography(path, directions=directions)
        assert (back.n, back.seed, back.directions) == (n, seed, directions)
        assert np.array_equal(back.setting_indices, ds.setting_indices)
        assert np.array_equal(back.outcomes, ds.outcomes)

    @settings(max_examples=60)
    @given(
        good=_LABELS,
        bad=st.text(max_size=3).filter(lambda label: label not in _ALPHABET),
        position=st.integers(0, len(_ALPHABET)),
    )
    def test_writer_refuses_labels_outside_the_alphabet(self, storage_dir, good, bad, position):
        labels = list(good)
        labels.insert(position % (len(labels) + 1), bad)
        directions = tuple(Direction(label, (0.0, 0.0, 1.0)) for label in labels)
        ds = TomographyDataset(1, directions, np.zeros((1, 1), dtype=np.uint8))
        path = storage_dir / "refused.txt"
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_tomography(str(path), ds)
        assert not path.exists()

    @settings(max_examples=300)
    @given(kind=st.sampled_from(("cal", "tomo")), mutations=_MUTATIONS)
    @example(kind="tomo", mutations=[("replace", 60, 0xF2)])
    @example(kind="cal", mutations=[("insert", -2, 0x0D)])  # a CRLF row
    @example(kind="tomo", mutations=[("insert", -2, 0x0D)])
    @example(kind="cal", mutations=[("delete", -1, 0)])  # no final newline
    @example(kind="tomo", mutations=[("delete", -1, 0)])
    def test_mutated_files_raise_only_data_format_errors(
        self, storage_dir, valid_files, kind, mutations
    ):
        path = _fresh_file(storage_dir, "mutated.txt")
        pathlib.Path(path).write_bytes(_mutated(valid_files[kind], mutations))
        reader = read_calibration if kind == "cal" else read_tomography
        try:
            reader(path)  # a mutation may leave a valid file
        except DataFormatError:
            pass

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(("cal", "tomo")),
        headers=_HEADER_MUTATIONS,
        mutations=st.just([]) | _MUTATIONS,
    )
    @example(kind="tomo", headers=[("n", 10**8)], mutations=[])  # 190.7 MiB once
    @example(kind="cal", headers=[("n", 1 << 40)], mutations=[])
    @example(kind="tomo", headers=[("directions", ",".join(_ALPHABET))], mutations=[])
    def test_readers_hold_memory_in_proportion_to_the_file(
        self, storage_dir, valid_files, kind, headers, mutations
    ):
        # A reader holds the dataset's array (at most half a row's bytes), one
        # row block's buffer and a failed check's temporaries, the largest
        # the intp copy of the block's labels made to locate an unknown one
        # (8/3 of a row's bytes): within 5 bytes per file byte.  64 KiB covers the header, the direction
        # set and numpy's small allocations: 1,500 examples peaked at 16 KiB
        # at most.  Both hold whether the reader returns or refuses the file.
        payload = _mutated(_with_headers(valid_files[kind], headers), mutations)
        path = _fresh_file(storage_dir, "budget.txt")
        pathlib.Path(path).write_bytes(payload)
        reader = read_calibration if kind == "cal" else read_tomography
        reader(str(storage_dir / f"{kind}.txt"))  # numpy's first-call allocations
        tracemalloc.start()
        try:
            reader(path)
        except DataFormatError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 5 * len(payload) + 64 * 2**10


@pytest.fixture(scope="module")
def small_config():
    return parse_config(
        {
            "n": 2,
            "depth": 4,
            "noise": {"model": "chain_crosstalk", "p10": 0.07, "p01": 0.05, "gamma": 0.5},
            "calibration_shots": 30000,
            "tomography_shots": 30000,
            "correlator_degrees": [1, 2],
            "correlators_per_degree": 2,
            "correlators_per_degree_study": 2,
            "study_weights": [1, 2],
            "wavevectors_per_weight": 2,
            "grid_points": 4,
            "grid_min": 200,
            "bootstrap_resamples": 60,
        }
    )


class TestExperiments:
    def test_collect_shapes_and_overrides(self, small_config, tmp_path):
        cal = collect_calibration(
            dataclasses.replace(small_config, calibration_shots=500, calibration_seed=99)
        )
        assert len(cal) == 500
        assert cal.seed == 99
        tomo = collect_tomography(dataclasses.replace(small_config, tomography_shots=400))
        assert len(tomo) == 400
        assert tomo.seed == small_config.tomography_seed
        # the CLI applies --shots and --seed the same way for every command
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.05\n"
            "calibration_shots: 300\ntomography_shots: 300\ntomography_seed: 6\n",
        )
        for command, shots, seed, expected in (
            ("calibrate", "500", "99", (500, 99)),
            ("tomography", "400", None, (400, 6)),
            ("tomography", None, "7", (300, 7)),
        ):
            out = tmp_path / f"{command}-{shots}-{seed}.txt"
            args = [command, "--config", path, "--out", str(out)]
            args += ["--shots", shots] * (shots is not None) + ["--seed", seed] * (seed is not None)
            assert invoke(args).exit_code == 0
            read = read_calibration if command == "calibrate" else read_tomography
            dataset = read(str(out))
            assert (len(dataset), dataset.seed) == expected

    def test_summary_contents(self, small_config):
        cal = collect_calibration(dataclasses.replace(small_config, calibration_shots=2000))
        text = calibration_summary(cal)
        assert "records=2000 n=2" in text
        assert "top outcomes:" in text
        # n=2 has three nonzero wavevectors of weight <= 2
        assert text.count("\n  ") >= 3 + 3

    def test_subsample_grid(self):
        sizes = subsample_grid(100000, 5, 100)
        assert sizes[0] == 100
        assert sizes[-1] == 10000
        assert sizes == sorted(set(sizes))
        with pytest.raises(ValueError):
            subsample_grid(500, 4, 100)

    def test_fit_loglog_slope_on_power_law(self):
        sizes = [100, 1000, 10000]
        rms = [10.0 / np.sqrt(s) for s in sizes]
        assert fit_loglog_slope(sizes, rms) == pytest.approx(-0.5, abs=1e-12)

    def test_comparison_rows(self, small_config):
        cal = collect_calibration(small_config)
        tomo = collect_tomography(small_config)
        rows = comparison_rows(small_config, tomo, cal)
        assert len(rows) == 4
        assert [r["correlator_id"] for r in rows] == ["c00", "c01", "c02", "c03"]
        for row in rows:
            assert set(row) == set(REPORT_COLUMNS)
            assert -1.0 <= row["truth"] <= 1.0
            assert row["mitigated_se"] > 0
            # estimates at these sizes should land near truth
            assert abs(row["mitigated"] - row["truth"]) < 6 * row["mitigated_se"]

    def test_vanishing_g_hat_is_refused_by_both_correlator_tables(self):
        config = parse_config(
            {
                **BASE_CONFIG,
                "tomography_shots": 3000,
                "correlators_per_degree": 1,
                "correlators_per_degree_study": 1,
                "grid_points": 3,
                "grid_min": 100,
                "bootstrap_resamples": 10,
            }
        )
        # every 3-bit string once: ghat(v) = 0 for every nonzero v
        outcomes = (np.arange(8)[:, None] >> np.arange(3)) & 1
        cal = CalibrationDataset(3, np.repeat(outcomes, 50, axis=0))
        tomo = collect_tomography(config)
        with pytest.raises(UnmitigatableComponentError):
            comparison_rows(config, tomo, cal)
        with pytest.raises(UnmitigatableComponentError):
            correlator_rms_rows(config, tomo, cal)

    def test_run_experiment_outputs(self, small_config, tmp_path):
        out = str(tmp_path / "exp")
        paths = run_experiment(small_config, out)
        assert sorted(paths) == [
            "calibration",
            "calibration_rms",
            "report",
            "summary",
            "tomography",
            "tomography_rms",
        ]
        report = read_csv(paths["report"])
        assert len(report) == 4
        cal_rms = read_csv(paths["calibration_rms"])
        assert {r["weight"] for r in cal_rms} == {"1", "2"}
        summary = read_csv(paths["summary"])
        slopes = [
            float(r["value"]) for r in summary if r["section"].endswith("rms_slope")
        ]
        assert slopes
        for slope in slopes:
            assert -0.75 < slope < -0.25


    def test_run_experiment_reruns_are_byte_identical(self, small_config, tmp_path):
        first = run_experiment(small_config, str(tmp_path / "a"))
        second = run_experiment(small_config, str(tmp_path / "b"))
        assert len(first) == 6
        for name, path in first.items():
            with open(path, "rb") as a, open(second[name], "rb") as b:
                assert a.read() == b.read(), name

    def test_run_experiment_draws_the_tomography_before_holding_the_calibration(self, tmp_path):
        # the Born draw's transients are the run's high-water mark; with the
        # calibration's (M, n) records held under them the run peaked M*n
        # bytes (0.76 MiB) above the draw alone, 4.12 against 3.36 MiB
        shots, n = 100_000, 8
        config = _config(
            n=n, depth=20, calibration_shots=shots, tomography_shots=shots, bootstrap_resamples=10
        )
        run_experiment(config, str(tmp_path / "warm-up"))  # lazy imports and the cached state
        peaks = []
        for step in (
            lambda: collect_tomography(config),
            lambda: run_experiment(config, str(tmp_path / "out")),
        ):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        alone, whole = peaks
        assert whole - alone < shots * n / 2


class TestBatchedReport:
    """The report bins the records once per maximal correlator support and
    reads nested supports off that table; a batch's reports must be those
    of one batch of one per correlator."""

    @pytest.fixture(scope="class")
    def nested_case(self):
        # 15 correlators of degrees 1-3 on 5 qubits: many supports nest
        config = _config(
            n=5,
            noise={"model": "independent", "p10": [0.1, 0.05, 0.08, 0.02, 0.06], "p01": 0.04},
            calibration_shots=3000,
            tomography_shots=4000,
            correlator_degrees=[1, 2, 3],
            correlators_per_degree=5,
            bootstrap_resamples=20,
            bootstrap_seed=17,
        )
        return config, collect_calibration(config), collect_tomography(config)

    def test_batch_equals_batches_of_one_at_offset_seeds(self, nested_case):
        """Report i of correlator j draws from seed + m*j + i, so the rows
        equal per-correlator batches of one at bootstrap_seed + 3*j."""
        config, cal, tomo = nested_case
        rows = comparison_rows(config, tomo, cal)
        correlators = experiments.build_correlators(config)
        assert len(rows) == len(correlators) == 15
        divisors = [
            (
                g_hat(cal, correlator.pattern),
                1.0,
                independent_g(correlator, config.noise.p10, config.noise.p01),
            )
            for correlator in correlators
        ]
        kw = {"resamples": config.bootstrap_resamples}
        batch = estimate_correlators(
            tomo, correlators, divisors, seed=config.bootstrap_seed, **kw
        )
        for j, (row, correlator) in enumerate(zip(rows, correlators)):
            (alone,) = estimate_correlators(
                tomo, [correlator], [divisors[j]], seed=config.bootstrap_seed + 3 * j, **kw
            )
            assert batch[j] == alone
            mit, unm, ind = alone
            assert row["pattern"] == correlator.pattern.to_text()
            assert row["g_hat"] == divisors[j][0]
            assert (row["mitigated"], row["mitigated_se"]) == (mit.estimate, mit.stderr)
            assert (row["unmitigated"], row["unmitigated_se"]) == (unm.estimate, unm.stderr)
            assert (row["indep"], row["indep_se"]) == (ind.estimate, ind.stderr)

    def test_one_record_pass_per_maximal_support(self, nested_case, monkeypatch):
        config, cal, tomo = nested_case
        binned = []
        record_cells = protocols._record_cells

        def counting(digits, support, base, weights=None):
            if weights is None:  # a pass over the records, not a container's cells
                binned.append(support)
            return record_cells(digits, support, base, weights)

        monkeypatch.setattr(protocols, "_record_cells", counting)
        comparison_rows(config, tomo, cal)
        supports = {c.pattern.support() for c in experiments.build_correlators(config)}
        maximal = {s for s in supports if not any(set(s) < set(t) for t in supports)}
        assert len(maximal) < len(supports)  # the case has nested supports to reuse
        assert sorted(binned) == sorted(maximal)

    def test_each_overlap_is_computed_once(self, nested_case, monkeypatch):
        config, cal, tomo = nested_case
        computed = []
        half_overlap = protocols.half_overlap

        def counting(operator, observable):
            computed.append((operator.tobytes(), observable))
            return half_overlap(operator, observable)

        monkeypatch.setattr(protocols, "half_overlap", counting)
        comparison_rows(config, tomo, cal)
        assert computed and len(computed) == len(set(computed))


def _enumerated_squared_error(counts, values, truth, size):
    """E[(mean of `size` records drawn with replacement - truth)^2], summed
    over every multinomial outcome of the draw."""
    probabilities = counts / counts.sum()
    total = 0.0
    for draw in itertools.product(range(size + 1), repeat=len(counts)):
        if sum(draw) != size:
            continue
        weight = math.factorial(size) / math.prod(math.factorial(k) for k in draw)
        weight *= math.prod(p**k for p, k in zip(probabilities, draw))
        total += weight * (np.dot(draw, values) / size - truth) ** 2
    return total


class TestClosedFormStudy:
    @given(
        cells=st.lists(
            st.tuples(st.integers(1, 50), st.floats(-3.0, 3.0)), min_size=1, max_size=3
        ),
        truth=st.floats(-1.0, 1.0),
    )
    def test_closed_form_matches_multinomial_enumeration(self, cells, truth):
        counts = np.array([count for count, _ in cells], dtype=np.int64)
        values = np.array([value for _, value in cells])
        sizes = [1, 2, 3, 4, 5, 6]
        mean, variance = experiments._moments(counts, values)
        rows, _ = experiments._pooled_study([(0, mean, variance, truth)], sizes, "group")
        for size, row in zip(sizes, rows):
            exact = _enumerated_squared_error(counts, values, truth, size)
            assert abs(row["rms"] ** 2 - exact) <= 1e-12

    def test_monte_carlo_study_agrees_within_four_standard_errors(self):
        config = _config(
            calibration_shots=5000,
            tomography_shots=5000,
            correlator_degrees=[1, 2],
            correlators_per_degree_study=2,
            grid_points=3,
            grid_min=100,
        )
        cal, tomo = collect_calibration(config), collect_tomography(config)
        sizes = subsample_grid(5000, config.grid_points, config.grid_min)
        g_exact = walsh_transform(config.noise.twirled_table())
        wavevectors = experiments._pick_wavevectors(
            config.n,
            config.study_weights,
            config.wavevectors_per_weight,
            np.random.default_rng(config.study_seed),
        )
        cal_curves = [
            (len(w.support()), parity_counts(cal, w), np.array([1.0, -1.0]), g_exact[w.value])
            for w in wavevectors
        ]
        tomo_curves = []
        correlators = experiments.build_correlators(config, config.correlators_per_degree_study)
        for correlator, (counts, shades) in zip(
            correlators, protocols._shade_tables(tomo, correlators)
        ):
            g_v = g_hat(cal, correlator.pattern)
            truth = exact_expectation(config.state, correlator)
            tomo_curves.append((correlator.degree, counts, shades / g_v, truth))
        studies = [
            (cal_curves, experiments.g_rms_rows(config, cal)[0], "weight"),
            (tomo_curves, correlator_rms_rows(config, tomo, cal)[0], "degree"),
        ]
        rng = np.random.default_rng(2024)
        resamples = 200
        for curves, rows, column in studies:
            for group, errors in monte_carlo_study(curves, sizes, resamples, rng).items():
                pooled = errors.mean(axis=(0, 2))
                # replicates of one curve are i.i.d.; curves are independent
                stderr = np.sqrt(errors.var(axis=2, ddof=1).sum(axis=0) / resamples) / len(errors)
                closed = [row["rms"] ** 2 for row in rows if row[column] == group]
                assert np.all(np.abs(pooled - closed) <= 4 * stderr), (column, group)

    def test_noiseless_calibration_slope_is_nan_without_warnings(self, tmp_path):
        config = _config(
            noise={"model": "independent", "p10": 0.0, "p01": 0.0},
            calibration_shots=3000,
            tomography_shots=3000,
            grid_points=3,
            grid_min=100,
            bootstrap_resamples=10,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = run_experiment(config, str(tmp_path / "exp"))
        assert {float(r["rms"]) for r in read_csv(paths["calibration_rms"])} == {0.0}
        slopes = {(r["section"], r["key"]): r["value"] for r in read_csv(paths["summary"])}
        for (section, _), value in slopes.items():
            if section == "calibration_rms_slope":
                assert value == "nan"
            elif section == "tomography_rms_slope":
                assert -0.75 < float(value) < -0.25


# `calibrate`'s digest of a 3000-record, n=4 chain-crosstalk calibration
CALIBRATE_DIGEST = """\
records=3000 n=4
top outcomes:
  0000 0.781333
  1000 0.047333
  1100 0.032000
  0010 0.029000
  0100 0.023333
  0001 0.020667
  1110 0.018000
  0110 0.015667
g_hat by wavevector (weight <= 2):
  0001 +0.894667
  0010 +0.818667
  0100 +0.780000
  1000 +0.774667
  0011 +0.822667
  0101 +0.758667
  1001 +0.728000
  0110 +0.806667
  1010 +0.710667
  1100 +0.800000
"""


class TestSharedState:
    def test_run_experiment_builds_the_circuit_state_once(self, small_config, tmp_path, monkeypatch):
        """A config builds its state on first use and keeps it; a copy made
        by dataclasses.replace builds its own."""
        built = []

        def counting(*args):
            built.append(args)
            return random_circuit_state(*args)

        monkeypatch.setattr(config_module, "random_circuit_state", counting)
        config = dataclasses.replace(small_config)  # a config whose state is not built yet
        run_experiment(config, str(tmp_path / "exp"))
        state = config.state
        key = (config.n, config.depth, config.circuit_seed)
        assert built == [key]
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
        fresh = random_circuit_state(*key)
        assert np.array_equal(state.amplitudes, fresh.amplitudes)

        copy = dataclasses.replace(config, tomography_seed=config.tomography_seed + 1)
        assert copy.state is not state
        assert built == [key, key]
        assert np.array_equal(copy.state.amplitudes, state.amplitudes)
        assert config.state is state and built == [key, key]

    def test_run_experiment_counts_the_calibration_once(self, small_config, tmp_path, monkeypatch):
        """The report and both studies read ghat from the calibration's one
        spectrum, so its outcomes are counted once."""
        counted = []

        def counting(cal):
            counted.append(cal)
            return outcome_counts(cal)

        outcome_counts = CalibrationDataset.outcome_counts.func
        monkeypatch.setattr(CalibrationDataset.outcome_counts, "func", counting)
        run_experiment(small_config, str(tmp_path / "exp"))
        assert len(counted) == 1
        assert not counted[0].spectrum.flags.writeable

    def test_calibrate_counts_the_outcomes_once(self, tmp_path):
        """The summary's top outcomes and its ghat read the calibration's
        one outcome count; the printed digest is the one pinned here.  The
        record coder is counted too, so a count made past the dataset's
        outcome_counts is seen."""
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 4\ndepth: 2\nnoise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n"
            "  gamma: 0.5\ncalibration_shots: 3000\ncalibration_seed: 11\n",
        )
        out = tmp_path / "cal.txt"
        with (
            mock.patch.object(
                CalibrationDataset.outcome_counts,
                "func",
                wraps=CalibrationDataset.outcome_counts.func,
            ) as counts,
            mock.patch.object(protocols, "_cell_codes", wraps=protocols._cell_codes) as codes,
        ):
            result = invoke(["calibrate", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert counts.call_count == codes.call_count == 1
        assert result.output == CALIBRATE_DIGEST + f"wrote {out}\n"

    def test_traced_experiment_reports_study_and_state_spans(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parent.parent
        config = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 3\ndepth: 4\nnoise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n"
            "  gamma: 0.5\ncalibration_shots: 2000\ntomography_shots: 2000\n"
            "bootstrap_resamples: 10\ngrid_points: 3\ngrid_min: 100\n",
        )
        spans = tmp_path / "spans.json"
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans), "run", "root",
             "experiment", "--config", config, "--out", str(tmp_path / "out")],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        names = {span["name"] for span in json.loads(spans.read_text())}
        assert {
            "experiments.g_rms_rows",
            "experiments.correlator_rms_rows",
            "qsim.random_circuit_state",
        } <= names


# degree-5 tables of a few thousand cells make large bootstrap streams,
# degrees 1 and 3 small ones: the report draws on both routes
THREADED_REPORT = {
    "n": 5,
    "noise": {
        "model": "independent",
        "p10": [0.1, 0.05, 0.08, 0.02, 0.06],
        "p01": 0.04,
    },
    "directions": ["x", "y", "z"],
    "calibration_shots": 3000,
    "tomography_shots": 5000,
    "correlator_degrees": [1, 3, 5],
    "correlators_per_degree": 2,
    "bootstrap_resamples": 30,
    "bootstrap_seed": 11,
    "correlator_seed": 5,
}


class TestFrozenReport:
    """SHA-256 of report.csv (comparison_rows, then write_report), pinned so
    that any change to the estimators, their bootstrap seeds or the CSV
    format shows up.  A moved hash is a behaviour change to investigate,
    not to re-pin.

    The digests also depend on the BLAS's accumulation order in the
    bootstrap's `draws @ values`: they were pinned with OpenBLAS 0.3.31,
    whose matrix-vector kernel groups rows by 4, so that blocks of rows
    that are not a multiple of 4 give other last bits.  The bootstrap
    multiplies a stream's draws in sub-blocks that start a multiple of 4
    rows in and take in a lone last row, which gives the means of one
    product of all its draws, with which the digests were pinned;
    sub-blocks of 5 rows move both.
    No formulation independent of the library keeps them (numpy's pairwise
    sum and math.fsum each move most of the means), so read a failure on a
    machine with another BLAS with this in mind."""

    @pytest.mark.parametrize(
        "overrides,digest",
        [
            (
                {"calibration_shots": 4000, "tomography_shots": 4000, "bootstrap_resamples": 40},
                "098955b0e94f850b293bd09da8a0a501db3d2adeaf42e40ceb9ad2ac3d92377d",
            ),
            (
                THREADED_REPORT,
                "41c8db6a2f73b82b48c713dcc0e15b40b3f98c39299ebf655d3989d11d544c72",
            ),
        ],
    )
    def test_report_bytes(self, tmp_path, overrides, digest):
        config = _config(**overrides)
        cal = collect_calibration(config)
        tomo = collect_tomography(config)
        path = tmp_path / "report.csv"
        write_report(str(path), comparison_rows(config, tomo, cal))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestBootstrapThreads:
    """Bootstrap streams of at least protocols._LARGE_STREAM cell counts
    are drawn on every usable CPU, the smaller ones inline; no output may
    depend on the number of CPUs, and no thread may outlive the call."""

    @pytest.fixture(scope="class")
    def threaded_case(self):
        config = _config(**THREADED_REPORT, grid_points=3, grid_min=100)  # grids for run_experiment
        return config, collect_calibration(config), collect_tomography(config)

    @staticmethod
    def _record(monkeypatch, cpus):
        """Make `cpus` CPUs usable (None: this process's own) and record
        (cells x resamples, drawing thread, threads alive) of every stream
        drawn."""
        draws = []
        resample_means = protocols._resample_means

        def recording(counts, values, resamples, rng):
            draws.append(
                (resamples * len(counts), threading.current_thread(), threading.active_count())
            )
            return resample_means(counts, values, resamples, rng)

        monkeypatch.setattr(protocols, "_resample_means", recording)
        if cpus is not None:
            monkeypatch.setattr(protocols, "_usable_cpus", lambda: cpus)
        return draws

    def test_results_do_not_depend_on_the_cpu_count(self, threaded_case, monkeypatch):
        config, cal, tomo = threaded_case
        correlators = experiments.build_correlators(config)
        pair = [correlators[0], correlators[-1]]  # degrees 1 and 5
        main = threading.main_thread()
        results = []
        for cpus in (1, None, 4):  # 4: more threads than this machine may have cores
            usable = cpus or protocols._usable_cpus()
            calls = [
                lambda: comparison_rows(config, tomo, cal),
                lambda: estimate_correlators(
                    tomo, pair, [(1.0, 0.5)] * 2, resamples=30, seed=3
                ),
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for call in calls:
                    before = threading.active_count()
                    with monkeypatch.context() as patch:
                        draws = self._record(patch, cpus)
                        results.append(call())
                    assert threading.active_count() == before
                    large = [t for size, t, _ in draws if size >= protocols._LARGE_STREAM]
                    small = [t for size, t, _ in draws if size < protocols._LARGE_STREAM]
                    assert large and all(t is main for t in small), cpus  # small ones inline
                    workers = {t for t in large if t is not main}
                    assert not any(worker.is_alive() for worker in workers)
                    # threads started, whether or not they drew
                    started = max(alive for _, _, alive in draws) - before
                    assert len(workers) <= started <= min(len(large), usable - 1), cpus
                    if cpus == 1:
                        assert started == 0
            finally:
                sys.setswitchinterval(interval)
        assert len(results) == 6
        assert results[0] == results[2] == results[4]
        assert results[1] == results[3] == results[5]

    @staticmethod
    def _fail_stream(monkeypatch, seed):
        """Make the draw of the stream seeded with `seed` raise; returns the
        error and the (cells x resamples, on the main thread, threads
        alive) of that draw."""
        failing = np.random.default_rng(seed).bit_generator.state
        error = RuntimeError("bootstrap stream failed")
        failed = []
        resample_means = protocols._resample_means

        def failing_draw(counts, values, resamples, rng):
            if rng.bit_generator.state == failing:
                on_main = threading.current_thread() is threading.main_thread()
                failed.append((resamples * len(counts), on_main, threading.active_count()))
                raise error
            return resample_means(counts, values, resamples, rng)

        monkeypatch.setattr(protocols, "_resample_means", failing_draw)
        return error, failed

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_failing_stream_is_raised_after_every_worker_is_joined(
        self, threaded_case, monkeypatch, tmp_path, cpus
    ):
        config, cal, tomo = threaded_case
        index = len(experiments.build_correlators(config)) - 1  # degree 5
        error, failed = self._fail_stream(monkeypatch, config.bootstrap_seed + 3 * index + 1)
        monkeypatch.setattr(protocols, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            comparison_rows(config, tomo, cal)
        assert raised.value is error
        assert threading.active_count() == before
        assert len(failed) == 1 and failed[0][0] >= protocols._LARGE_STREAM
        out = tmp_path / "exp"
        with pytest.raises(RuntimeError):
            run_experiment(config, str(out))
        assert not out.exists()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_failing_small_stream_joins_the_pool(self, threaded_case, monkeypatch, cpus):
        """The calling thread's own inline draw fails while the large
        streams are queued on the pool (4 CPUs) or before any is drawn
        (1 CPU); the queued draws that no worker has begun are dropped."""
        config, cal, tomo = threaded_case
        error, failed = self._fail_stream(monkeypatch, config.bootstrap_seed)  # degree 1
        begun = []
        draw = protocols._resample_means

        def held(counts, values, resamples, rng):
            if resamples * len(counts) >= protocols._LARGE_STREAM:
                begun.append(threading.current_thread())
                time.sleep(0.2)  # long enough for the calling thread to fail first
            return draw(counts, values, resamples, rng)

        monkeypatch.setattr(protocols, "_resample_means", held)
        monkeypatch.setattr(protocols, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            comparison_rows(config, tomo, cal)
        assert raised.value is error
        assert threading.active_count() == before
        [(size, on_main, alive)] = failed
        assert size < protocols._LARGE_STREAM and on_main
        assert (alive > before) == (cpus > 1)  # the pool's workers were running
        assert len(begun) <= cpus - 1 and threading.main_thread() not in begun

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_experiment_files_do_not_depend_on_the_cpu_count(self, tmp_path):
        """One run pinned to a single CPU, one on every CPU this process
        may use; degrees 3 and 4 at 100 resamples make large streams."""
        root = pathlib.Path(__file__).resolve().parent.parent
        config = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 4\ndepth: 4\nnoise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n"
            "  gamma: 0.5\ncalibration_shots: 5000\ntomography_shots: 5000\n"
            "bootstrap_resamples: 100\ngrid_points: 3\ngrid_min: 100\n",
        )
        cpu = min(os.sched_getaffinity(0))
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            subprocess.run(
                [sys.executable, "-m", "xshadow.cli", "experiment", "--config", config,
                 "--out", str(tmp_path / name)],
                check=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": path},
                preexec_fn=pin,
                timeout=120,
            )
        names = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert len(names) == 6
        for name in names:
            pinned = (tmp_path / "one" / name).read_bytes()
            assert pinned == (tmp_path / "all" / name).read_bytes(), name


class TestCli:
    @pytest.fixture()
    def config_file(self, tmp_path):
        return _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\n"
            "noise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n  gamma: 0.5\n"
            "calibration_shots: 5000\ntomography_shots: 5000\n"
            "correlator_degrees: [1, 2]\ncorrelators_per_degree: 1\n"
            "correlators_per_degree_study: 1\nstudy_weights: [1]\n"
            "wavevectors_per_weight: 1\ngrid_points: 3\ngrid_min: 50\n"
            "bootstrap_resamples: 40\n",
        )

    def test_calibrate_and_estimate_flow(self, config_file, tmp_path):
        cal_path = str(tmp_path / "cal.txt")
        tomo_path = str(tmp_path / "tomo.txt")
        report_path = str(tmp_path / "report.csv")

        result = invoke(
            ["calibrate", "--config", config_file, "--out", cal_path]
        )
        assert result.exit_code == 0, result.output
        assert "records=5000" in result.output

        result = invoke(
            ["tomography", "--config", config_file, "--out", tomo_path]
        )
        assert result.exit_code == 0, result.output

        result = invoke(
            [
                "estimate",
                "--config",
                config_file,
                "--calibration",
                cal_path,
                "--tomography",
                tomo_path,
                "--out",
                report_path,
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(read_csv(report_path)) == 2

    def test_shots_and_seed_overrides(self, config_file, tmp_path):
        out = str(tmp_path / "c.txt")
        result = invoke(
            ["calibrate", "--config", config_file, "--out", out, "--shots", "77", "--seed", "5"],
        )
        assert result.exit_code == 0, result.output
        ds = read_calibration(out)
        assert len(ds) == 77
        assert ds.seed == 5

    @pytest.mark.parametrize("message", ["Unable to allocate 7.1 PiB for an array", ""])
    def test_memory_error_is_an_error_line(self, config_file, tmp_path, monkeypatch, message):
        def exhausted(config):
            raise MemoryError(message)

        monkeypatch.setattr(experiments, "collect_tomography", exhausted)
        out = tmp_path / "tomo.txt"
        result = invoke(["tomography", "--config", config_file, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: {message or 'MemoryError'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "tomography", "experiment"])
    def test_shots_option_takes_the_config_cap(self, config_file, tmp_path, command):
        out = str(tmp_path / "out")
        result = invoke(
            [command, "--config", config_file, "--out", out, "--shots", str(2**32)]
        )
        assert result.exit_code == 2
        assert "4294967295" in result.output
        assert not os.path.exists(out)

    def test_estimate_rejects_mismatched_qubit_count(self, config_file, tmp_path):
        cal = run_calibration(ChainCrosstalkModel(3, 0.07, 0.05, 0.5), 50, seed=1)
        cal_path = str(tmp_path / "cal3.txt")
        write_calibration(cal_path, cal)
        tomo_path = str(tmp_path / "tomo.txt")
        result = invoke(
            ["tomography", "--config", config_file, "--out", tomo_path]
        )
        assert result.exit_code == 0
        result = invoke(
            [
                "estimate",
                "--config",
                config_file,
                "--calibration",
                cal_path,
                "--tomography",
                tomo_path,
                "--out",
                str(tmp_path / "r.csv"),
            ],
        )
        assert result.exit_code == 1
        assert "qubit counts disagree" in result.output

    def test_estimate_refuses_the_calibration_before_reading_the_tomography(
        self, tmp_path, monkeypatch
    ):
        model = ChainCrosstalkModel(5, 0.07, 0.05, 0.5)
        cal_path, tomo_path = str(tmp_path / "cal5.txt"), str(tmp_path / "tomo5.txt")
        write_calibration(cal_path, run_calibration(model, 20, seed=1))
        state = random_circuit_state(5, 2, 0)
        write_tomography(tomo_path, run_tomography(state, pauli_directions(), model, 20, seed=2))
        config = _write_yaml(
            tmp_path / "n3.yaml",
            "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.05\n",
        )

        def unread(*args, **kwargs):
            raise AssertionError("tomography file read")

        monkeypatch.setattr(storage, "read_tomography", unread)
        report = tmp_path / "r.csv"
        result = invoke(
            ["estimate", "--config", config, "--calibration", cal_path,
             "--tomography", tomo_path, "--out", str(report)],
        )
        assert result.exit_code == 1
        assert "error: qubit counts disagree: config n=3, calibration n=5" in result.output
        assert not report.exists()

    @pytest.mark.parametrize(
        "calibration_n,message",
        [(10, "config n=3, calibration n=10"), (3, "config n=3, tomography n=10")],
    )
    def test_estimate_refuses_on_the_headers_before_decoding(
        self, tmp_path, monkeypatch, calibration_n, message
    ):
        cal_path, tomo_path = str(tmp_path / "cal.txt"), str(tmp_path / "tomo.txt")
        model = ChainCrosstalkModel(calibration_n, 0.07, 0.05, 0.5)
        write_calibration(cal_path, run_calibration(model, 20, seed=1))
        state = random_circuit_state(10, 2, 0)
        model = ChainCrosstalkModel(10, 0.07, 0.05, 0.5)
        write_tomography(tomo_path, run_tomography(state, pauli_directions(), model, 20, seed=2))
        config = _write_yaml(
            tmp_path / "n3.yaml",
            "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.05\n",
        )

        def undecoded(*args, **kwargs):
            raise AssertionError("dataset body decoded")

        monkeypatch.setattr(storage, "_read_rows", undecoded)
        report = tmp_path / "r.csv"
        result = invoke(
            ["estimate", "--config", config, "--calibration", cal_path,
             "--tomography", tomo_path, "--out", str(report)],
        )
        assert result.exit_code == 1
        assert f"error: qubit counts disagree: {message}\n" in result.output
        assert not report.exists()

    def test_estimate_rejects_mismatched_directions(self, config_file, tmp_path):
        cal_path = str(tmp_path / "cal.txt")
        tomo_path = str(tmp_path / "tomo.txt")
        for command, path in (("calibrate", cal_path), ("tomography", tomo_path)):
            result = invoke([command, "--config", config_file, "--out", path])
            assert result.exit_code == 0, result.output
        with open(config_file, encoding="utf-8") as fh:
            text = fh.read()
        reordered = _write_yaml(tmp_path / "zxy.yaml", text + "directions: [z, x, y]\n")
        report_path = tmp_path / "r.csv"
        result = invoke(
            [
                "estimate",
                "--config",
                reordered,
                "--calibration",
                cal_path,
                "--tomography",
                tomo_path,
                "--out",
                str(report_path),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "do not match" in result.output
        assert not report_path.exists()

    def test_estimate_refuses_the_directions_on_the_headers(self, tmp_path, monkeypatch):
        cal_path, tomo_path = str(tmp_path / "cal.txt"), str(tmp_path / "tomo.txt")
        model = ChainCrosstalkModel(3, 0.07, 0.05, 0.5)
        write_calibration(cal_path, run_calibration(model, 20, seed=1))
        state = random_circuit_state(3, 2, 0)
        write_tomography(tomo_path, run_tomography(state, pauli_directions(), model, 20, seed=2))
        config = _write_yaml(
            tmp_path / "zxy.yaml",
            "n: 3\ndepth: 2\nnoise:\n  model: independent\n  p10: 0.1\n  p01: 0.05\n"
            "directions: [z, x, y]\n",
        )

        def unread(*args, **kwargs):
            raise AssertionError("dataset body read")

        monkeypatch.setattr(storage, "_read_rows", unread)
        report = tmp_path / "r.csv"
        result = invoke(
            ["estimate", "--config", config, "--calibration", cal_path,
             "--tomography", tomo_path, "--out", str(report)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (
            f"error: {tomo_path}: file directions ('x', 'y', 'z') do not match the provided set\n"
            in result.output
        )
        assert not report.exists()

    def test_run_freezes_the_heap_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main"))
        cli.run()
        assert calls == ["freeze", "main"]

    def test_script_and_module_entries_are_run(self):
        root = pathlib.Path(__file__).parents[1]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^xshadow = "(.*)"$', pyproject, re.M).group(1) == "xshadow.cli:run"
        source = (root / "src" / "xshadow" / "cli.py").read_text(encoding="utf-8")
        assert source.endswith('if __name__ == "__main__":\n    run()\n')

    def test_cli_runner_leaves_the_heap_unfrozen(self):
        before = gc.get_freeze_count()
        result = invoke(["complexity", "--epsilon", "0.1", "--delta", "0.05"])
        assert result.exit_code == 0
        assert gc.get_freeze_count() == before

    def test_complexity_output(self):
        result = invoke(
            ["complexity", "--epsilon", "0.1", "--delta", "0.05"]
        )
        assert result.exit_code == 0
        assert "calibration_shots >= 11805" in result.output
        assert "tomography_shots >= 59760" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["complexity", "--epsilon", "0.1", "--delta", "0.05", "--g", "0"],
            ["complexity", "--epsilon", "0.1", "--delta", "1.0"],
            ["complexity", "--epsilon", "-1", "--delta", "0.05"],
        ],
    )
    def test_complexity_rejects_bad_inputs(self, args):
        result = invoke(args)
        assert result.exit_code == 1
        assert "error:" in result.output

    @pytest.mark.parametrize(
        "option,value,needle",
        [
            ("--epsilon", "1e-200", "the shot-count bound is too large"),  # epsilon^2 is 0.0
            ("--g", "1e-200", "the shot-count bound is too large"),
            ("--kappa", "inf", "kappa must be finite"),
            ("--degree", "1000", "the shot-count bound is too large"),  # kappa^2000 overflows
            ("--epsilon", "nan", "epsilon must be finite"),
            ("--delta", "nan", "delta must be finite"),
            ("--g", "inf", "g must be finite"),
        ],
    )
    def test_complexity_refuses_extreme_inputs_without_a_traceback(self, option, value, needle):
        args = ["complexity", "--epsilon", "0.1", "--delta", "0.05", option, value]
        result = invoke(args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert f"error: {needle}" in result.output
        assert "Traceback" not in result.output

    def test_bad_config_is_diagnosed(self, tmp_path):
        path = _write_yaml(tmp_path / "bad.yaml", "n: 2\ndepth: 1\nnope: 3\n")
        result = invoke(
            ["calibrate", "--config", path, "--out", str(tmp_path / "o.txt")]
        )
        assert result.exit_code == 1
        assert "unknown config field" in result.output

    def test_experiment_command(self, config_file, tmp_path):
        out = str(tmp_path / "exp")
        result = invoke(
            ["experiment", "--config", config_file, "--out", out, "--shots", "3000"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("wrote ") == 6
        report = read_csv(str(tmp_path / "exp" / "report.csv"))
        assert len(report) == 2

    def test_experiment_with_negative_seed_writes_nothing(self, config_file, tmp_path):
        path = _write_yaml(
            tmp_path / "neg.yaml", pathlib.Path(config_file).read_text(encoding="utf-8") + "study_seed: -3\n"
        )
        out = tmp_path / "exp"
        result = invoke(["experiment", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "'study_seed' must be >= 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "tomography", "experiment"])
    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_non_positive_shots_override_writes_nothing(
        self, config_file, tmp_path, command, shots
    ):
        out = tmp_path / "out"
        result = invoke(
            [command, "--config", config_file, "--out", str(out), "--shots", shots]
        )
        assert result.exit_code == 2
        assert "--shots" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "tomography", "experiment"])
    def test_negative_seed_override_writes_nothing(self, config_file, tmp_path, command):
        out = tmp_path / "out"
        result = invoke(
            [command, "--config", config_file, "--out", str(out), "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not out.exists()

    def test_experiment_with_singular_noise_writes_nothing(self, tmp_path):
        # rates 0.5 pass the config; the independent model's g(v) is then 0
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\n"
            "noise:\n  model: chain_crosstalk\n  p10: 0.5\n  p01: 0.5\n  gamma: 0.0\n"
            "calibration_shots: 5000\ntomography_shots: 5000\n"
            "correlator_degrees: [1]\ncorrelators_per_degree: 1\n"
            "correlators_per_degree_study: 1\nstudy_weights: [1]\n"
            "wavevectors_per_weight: 1\ngrid_points: 3\ngrid_min: 50\n"
            "bootstrap_resamples: 10\n",
        )
        out = tmp_path / "exp"
        result = invoke(["experiment", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "is singular" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "tomography", "experiment"])
    def test_incomplete_direction_set_writes_nothing(self, tmp_path, command):
        # x and y alone cannot estimate z: refused when the config is parsed
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\n"
            "noise:\n  model: independent\n  p10: 0.07\n  p01: 0.05\n"
            "calibration_shots: 5000\ntomography_shots: 5000\ndirections: [x, y]\n",
        )
        out = tmp_path / "out"
        result = invoke([command, "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "error: field 'directions'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_experiment_with_infeasible_grid_writes_nothing(self, tmp_path):
        # 5000 calibration records give subsample sizes up to 500, below grid_min 1000
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\n"
            "noise:\n  model: independent\n  p10: 0.07\n  p01: 0.05\n"
            "calibration_shots: 5000\ntomography_shots: 20000\n",
        )
        out = tmp_path / "exp"
        result = invoke(["experiment", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "too small for subsampling" in result.output
        assert not out.exists() or not any(out.iterdir())

    OPTIONS = {
        "calibrate": ["--config", "--out", "--shots", "--seed"],
        "tomography": ["--config", "--out", "--shots", "--seed"],
        "estimate": ["--config", "--calibration", "--tomography", "--out"],
        "complexity": ["--epsilon", "--delta", "--g", "--kappa", "--degree"],
        "experiment": ["--config", "--out", "--shots", "--seed"],
    }

    def test_help_names_every_command(self):
        result = invoke(["--help"])
        assert result.exit_code == 0, result.output
        for command in self.OPTIONS:
            assert re.search(rf"^\s+{command}\b", result.output, re.M), command

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_names_every_option(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0, result.output
        for option in self.OPTIONS[command]:
            assert re.search(rf"^\s+{option} [A-Z]", result.output, re.M), option

    def test_an_option_value_may_start_with_a_dash(self, config_file, tmp_path, monkeypatch):
        # argparse alone reads "-1e-3" or "-cfg.yaml" as an option, not a value
        base = ["complexity", "--epsilon", "0.1", "--delta", "0.05"]
        result = invoke([*base, "--g", "-1e-3"])
        assert result.exit_code == 0, result.output
        assert result.output == invoke([*base, "--g=-1e-3"]).output
        assert "calibration_shots >= 11804414254" in result.output
        result = invoke(["complexity", "--epsilon", "-1e-3", "--delta", "0.05"])
        assert result.exit_code == 1
        assert result.output == "error: epsilon must be > 0, got -0.001\n"
        dashed = tmp_path / "-cfg.yaml"
        dashed.write_text(pathlib.Path(config_file).read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "cal.txt"
        monkeypatch.chdir(tmp_path)
        result = invoke(["calibrate", "--config", dashed.name, "--out", str(out), "--shots", "50"])
        assert result.exit_code == 0, result.output
        assert len(read_calibration(str(out))) == 50

    def _refused_before_any_work(self, tmp_path, monkeypatch, args, option):
        """`args` exits 2 naming `option`, loads no config and writes nothing."""

        def unloaded(path):
            raise AssertionError("config loaded")

        monkeypatch.setattr(cli, "load_config", unloaded)
        before = sorted(tmp_path.rglob("*"))
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"argument {option}: " in result.output
        assert "Traceback" not in result.output
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "command,option",
        [
            ("calibrate", "--config"),
            ("tomography", "--config"),
            ("experiment", "--config"),
            ("estimate", "--config"),
            ("estimate", "--calibration"),
            ("estimate", "--tomography"),
        ],
    )
    def test_an_input_missing_or_a_directory_is_a_usage_error(
        self, config_file, tmp_path, monkeypatch, command, option, kind
    ):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        # the parser checks no input's contents, so the config stands for each
        inputs = {"--config": config_file}
        if command == "estimate":
            inputs.update({"--calibration": config_file, "--tomography": config_file})
        inputs[option] = str(bad)
        args = [command, *itertools.chain(*inputs.items()), "--out", str(tmp_path / "out")]
        self._refused_before_any_work(tmp_path, monkeypatch, args, option)

    @pytest.mark.parametrize("command", ["calibrate", "tomography", "estimate", "experiment"])
    def test_an_out_of_the_wrong_kind_is_a_usage_error(
        self, config_file, tmp_path, monkeypatch, command
    ):
        # a dataset or report is a file, so a directory is refused, and so
        # is a file in a directory that does not exist; the experiment
        # writes a directory, so an existing file is refused; an empty path
        # is refused for all four, as no write could succeed
        out = tmp_path / "out"
        if command == "experiment":
            out.write_text("kept\n", encoding="utf-8")
        else:
            out.mkdir()
        inputs = ["--calibration", config_file, "--tomography", config_file]
        args = [command, "--config", config_file, *inputs * (command == "estimate")]
        self._refused_before_any_work(tmp_path, monkeypatch, [*args, "--out", str(out)], "--out")
        if command == "experiment":
            assert out.read_text(encoding="utf-8") == "kept\n"
        else:
            unreachable = str(tmp_path / "missing" / "out.txt")
            self._refused_before_any_work(tmp_path, monkeypatch, [*args, "--out", unreachable],
                                          "--out")
        self._refused_before_any_work(tmp_path, monkeypatch, [*args, "--out", ""], "--out")


class TestReadme:
    def test_library_example_runs(self, tmp_path, monkeypatch):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        code = re.search(r"## Library use.*?```python\n(.*?)```", readme, re.S).group(1)
        _write_yaml(
            tmp_path / "config.yaml",
            "n: 3\ndepth: 4\nnoise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n"
            "  gamma: 0.5\ncalibration_shots: 5000\ntomography_shots: 5000\n",
        )
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        number = r"[+-]\d\.\d{4}"
        line = rf"{number} \+- \d\.\d{{4}} \(exact {number}\)\n"
        assert re.fullmatch(line, out.getvalue())


class TestPackage:
    def test_cli_import_leaves_the_thread_pool_out(self):
        """concurrent.futures is imported only once a bootstrap needs a
        pool, so a CLI process that never starts one does not pay for it;
        the command line itself is the standard library's argparse."""
        root = pathlib.Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, xshadow.cli\n"
            "print('concurrent.futures' in sys.modules, 'click' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert result.stdout == "False False\n"

    def test_public_names(self):
        """The top level exports the README example's names and the error
        hierarchy, nothing else: a new export has to be added here."""
        names = {
            name
            for name, value in vars(xshadow).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert names == {
            "CapabilityError",
            "ConfigError",
            "DataFormatError",
            "NotInformationallyCompleteError",
            "SingularNoiseError",
            "UnmitigatableComponentError",
            "XShadowError",
            "collect_calibration",
            "collect_tomography",
            "estimate_correlators",
            "exact_expectation",
            "load_config",
            "random_correlators",
        }


class TestPytestConfig:
    def test_a_failing_hypothesis_test_leaves_the_session_running(self, tmp_path):
        """Under the project's warning filters, Hypothesis reports a failing
        example and the tests after it still run: the session counts one
        failure and one pass, with no INTERNALERROR."""
        (tmp_path / "test_case.py").write_text(
            "from hypothesis import given, strategies as st\n\n\n"
            "@given(st.integers())\n"
            "def test_fails(x):\n"
            "    assert x < 0\n\n\n"
            "def test_passes():\n"
            "    pass\n"
        )
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
             "-p", "no:cacheprovider", "-q", "test_case.py"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "INTERNALERROR" not in result.stdout + result.stderr
        assert "1 failed, 1 passed" in result.stdout
