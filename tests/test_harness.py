import numpy as np
import pytest
from click.testing import CliRunner

from xshadow.cli import main
from xshadow.config import ExperimentConfig, load_config, parse_config
from xshadow.exceptions import ConfigError, DataFormatError
from xshadow.experiments import (
    calibration_summary,
    collect_calibration,
    collect_tomography,
    comparison_rows,
    fit_loglog_slope,
    run_experiment,
    subsample_grid,
)
from xshadow.protocols import CalibrationDataset, TomographyDataset, run_calibration
from xshadow.noise import crosstalk_model
from xshadow.qsim import Direction, direction_from_label
from xshadow.storage import (
    REPORT_COLUMNS,
    read_calibration,
    read_csv,
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
        assert cfg.directions == ("x", "y", "z")
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
        assert cfg.noise.p10 == [0.1, 0.2]
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
        ],
    )
    def test_bad_top_level_fields(self, overrides, needle):
        with pytest.raises(ConfigError, match=needle):
            _config(**overrides)

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
        ],
    )
    def test_bad_noise_blocks(self, noise):
        with pytest.raises(ConfigError):
            _config(noise=noise)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config({"n": 2, "depth": 1})
        with pytest.raises(ConfigError, match="mapping"):
            parse_config([1, 2])

    def test_builders(self):
        cfg = _config()
        model = cfg.build_noise_model()
        assert model.n == 3
        assert model.gamma == 0.5
        state = cfg.build_state()
        assert state.n == 3
        labels = tuple(d.label for d in cfg.build_directions())
        assert labels == ("x", "y", "z")

    def test_yaml_parse_error(self, tmp_path):
        path = _write_yaml(tmp_path / "bad.yaml", "n: [unclosed\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)


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
        ds = TomographyDataset(
            3,
            dirs,
            rng.integers(0, 3, (150, 3), dtype=np.uint8),
            rng.integers(0, 2, (150, 3), dtype=np.uint8),
            seed=23,
        )
        path = str(tmp_path / "tomo.txt")
        write_tomography(path, ds)
        back = read_tomography(path)
        assert back.seed == 23
        assert tuple(d.label for d in back.directions) == ("x", "y", "z")
        assert np.array_equal(back.setting_indices, ds.setting_indices)
        assert np.array_equal(back.outcomes, ds.outcomes)

    def test_tomography_row_orientation(self, tmp_path):
        # qubit 0 leads the label list but trails the bitstring
        dirs = (direction_from_label("x"), direction_from_label("z"))
        ds = TomographyDataset(
            2,
            dirs,
            np.array([[0, 1]], dtype=np.uint8),
            np.array([[1, 0]], dtype=np.uint8),
        )
        path = str(tmp_path / "t.txt")
        write_tomography(path, ds)
        body = [line for line in open(path) if not line.startswith("#")]
        assert body == ["x,z 01\n"]

    def test_slow_parser_handles_multichar_labels(self, tmp_path):
        custom = (Direction("xp", (1.0, 0.0, 0.0)), Direction("zp", (0.0, 0.0, 1.0)))
        ds = TomographyDataset(
            2,
            custom,
            np.array([[0, 1], [1, 1]], dtype=np.uint8),
            np.array([[1, 0], [0, 1]], dtype=np.uint8),
        )
        path = str(tmp_path / "custom.txt")
        write_tomography(path, ds)
        back = read_tomography(path, directions=custom)
        assert np.array_equal(back.setting_indices, ds.setting_indices)
        assert np.array_equal(back.outcomes, ds.outcomes)

    def test_unknown_label_without_direction_set(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("#n=1\n#type=tomography\n#directions=w\nw 0\n")
        with pytest.raises(DataFormatError):
            read_tomography(str(path))

    def test_direction_set_mismatch(self, tmp_path):
        dirs = (direction_from_label("x"),)
        ds = TomographyDataset(
            1, dirs, np.zeros((1, 1), dtype=np.uint8), np.zeros((1, 1), dtype=np.uint8)
        )
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
        ],
    )
    def test_malformed_files(self, tmp_path, body, needle):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        reader = read_tomography if "tomography" in body else read_calibration
        with pytest.raises(DataFormatError, match=needle):
            reader(str(path))

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

    def test_report_columns_pinned(self, tmp_path):
        row = {col: 0 for col in REPORT_COLUMNS}
        path = str(tmp_path / "r.csv")
        write_report(path, [row])
        header = open(path).readline().strip()
        assert header == (
            "correlator_id,degree,pattern,truth,mitigated,mitigated_se,"
            "unmitigated,unmitigated_se,indep,indep_se,g_hat"
        )


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
    def test_collect_shapes_and_overrides(self, small_config):
        cal = collect_calibration(small_config, shots=500, seed=99)
        assert len(cal) == 500
        assert cal.seed == 99
        tomo = collect_tomography(small_config, shots=400)
        assert len(tomo) == 400
        assert tomo.seed == small_config.tomography_seed

    def test_summary_contents(self, small_config):
        cal = collect_calibration(small_config, shots=2000)
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
        runner = CliRunner()
        cal_path = str(tmp_path / "cal.txt")
        tomo_path = str(tmp_path / "tomo.txt")
        report_path = str(tmp_path / "report.csv")

        result = runner.invoke(
            main, ["calibrate", "--config", config_file, "--out", cal_path]
        )
        assert result.exit_code == 0, result.output
        assert "records=5000" in result.output

        result = runner.invoke(
            main, ["tomography", "--config", config_file, "--out", tomo_path]
        )
        assert result.exit_code == 0, result.output

        result = runner.invoke(
            main,
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
        runner = CliRunner()
        out = str(tmp_path / "c.txt")
        result = runner.invoke(
            main,
            ["calibrate", "--config", config_file, "--out", out, "--shots", "77", "--seed", "5"],
        )
        assert result.exit_code == 0, result.output
        ds = read_calibration(out)
        assert len(ds) == 77
        assert ds.seed == 5

    def test_estimate_rejects_mismatched_qubit_count(self, config_file, tmp_path):
        runner = CliRunner()
        cal = run_calibration(crosstalk_model(3, 0.07, 0.05, 0.5), 50, seed=1)
        cal_path = str(tmp_path / "cal3.txt")
        write_calibration(cal_path, cal)
        tomo_path = str(tmp_path / "tomo.txt")
        result = runner.invoke(
            main, ["tomography", "--config", config_file, "--out", tomo_path]
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
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

    def test_complexity_output(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["complexity", "--epsilon", "0.1", "--delta", "0.05"]
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
        runner = CliRunner()
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_bad_config_is_diagnosed(self, tmp_path):
        runner = CliRunner()
        path = _write_yaml(tmp_path / "bad.yaml", "n: 2\ndepth: 1\nnope: 3\n")
        result = runner.invoke(
            main, ["calibrate", "--config", path, "--out", str(tmp_path / "o.txt")]
        )
        assert result.exit_code == 1
        assert "unknown config field" in result.output

    def test_experiment_command(self, config_file, tmp_path):
        runner = CliRunner()
        out = str(tmp_path / "exp")
        result = runner.invoke(
            main, ["experiment", "--config", config_file, "--out", out, "--shots", "3000"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("wrote ") == 6
        report = read_csv(str(tmp_path / "exp" / "report.csv"))
        assert len(report) == 2

    def test_experiment_with_infeasible_grid_writes_nothing(self, tmp_path):
        # 5000 calibration records give subsample sizes up to 500, below grid_min 1000
        path = _write_yaml(
            tmp_path / "cfg.yaml",
            "n: 2\ndepth: 4\n"
            "noise:\n  model: independent\n  p10: 0.07\n  p01: 0.05\n"
            "calibration_shots: 5000\ntomography_shots: 20000\n",
        )
        out = tmp_path / "exp"
        result = CliRunner().invoke(main, ["experiment", "--config", path, "--out", str(out)])
        assert result.exit_code == 1
        assert "too small for subsampling" in result.output
        assert not out.exists() or not any(out.iterdir())
