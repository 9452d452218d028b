"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import spans
from workloads import NOISE, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SLOPES = [
    ("calibration_rms_slope", "weight=1", "-0.49"),
    ("tomography_rms_slope", "degree=1", "-0.51"),
]


def write_report(path: Path, rows: list[dict]) -> None:
    lines = [",".join(checks.REPORT_COLUMNS)]
    lines += [",".join(str(row[c]) for c in checks.REPORT_COLUMNS) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def report_row(index: int, truth: float, mitigated: float, se: float, g_hat: float = 0.8,
               degree: int = 1, pattern: str = "0001") -> dict:
    return {"correlator_id": f"c{index:02d}", "degree": degree, "pattern": pattern,
            "truth": truth, "mitigated": mitigated, "mitigated_se": se, "unmitigated": 0.0,
            "unmitigated_se": se, "indep": 0.0, "indep_se": se, "g_hat": g_hat}


def experiment_outputs(outdir: Path, rows: list[dict], slopes=SLOPES) -> None:
    outdir.mkdir(exist_ok=True)
    write_report(outdir / "report.csv", rows)
    summary = ["section,key,value", "datasets,calibration_records,100"]
    summary += [",".join(s) for s in slopes]
    (outdir / "summary.csv").write_text("\n".join(summary) + "\n")
    for name in ("calibration.txt", "tomography.txt", "calibration_rms.csv",
                 "tomography_rms.csv"):
        (outdir / name).write_text(name)


GOOD_ROWS = [report_row(0, 0.5, 0.52, 0.01), report_row(1, -0.2, -0.23, 0.01)]


def test_experiment_check_passes_on_good_outputs(tmp_path):
    experiment_outputs(tmp_path / "out", GOOD_ROWS)
    checker, ledger = checks.Checker(), checks.HashLedger()
    for _ in range(2):
        checks.check_experiment(checker, str(tmp_path / "out"), 2, ledger)
    assert checker.failures == []
    # per repeat: shape, 2 rows, slopes read, 2 slopes, 6 files
    assert checker.attempted == 2 * (1 + 2 + 1 + 2 + 6)


def test_doctored_report_row_fails(tmp_path):
    rows = GOOD_ROWS + [report_row(2, 0.1, 0.1 + 6 * 0.01, 0.01)]
    experiment_outputs(tmp_path / "out", rows)
    checker = checks.Checker()
    checks.check_experiment(checker, str(tmp_path / "out"), 3, checks.HashLedger())
    assert checker.failed == 1
    assert "c02" in checker.failures[0]


def test_reordered_report_columns_fail(tmp_path):
    experiment_outputs(tmp_path / "out", GOOD_ROWS)
    report = tmp_path / "out" / "report.csv"
    lines = report.read_text().splitlines()
    lines[0] = lines[0].replace("mitigated,mitigated_se", "mitigated_se,mitigated")
    report.write_text("\n".join(lines) + "\n")
    checker = checks.Checker()
    checks.check_experiment(checker, str(tmp_path / "out"), 2, checks.HashLedger())
    assert checker.failed == 1


def test_out_of_band_slope_fails(tmp_path):
    experiment_outputs(tmp_path / "out", GOOD_ROWS,
                       SLOPES + [("tomography_rms_slope", "degree=2", "-0.38")])
    checker = checks.Checker()
    checks.check_experiment(checker, str(tmp_path / "out"), 2, checks.HashLedger())
    assert checker.failed == 1
    assert "degree=2" in checker.failures[0]


def test_mismatched_hash_fails(tmp_path):
    experiment_outputs(tmp_path / "out", GOOD_ROWS)
    checker, ledger = checks.Checker(), checks.HashLedger()
    checks.check_experiment(checker, str(tmp_path / "out"), 2, ledger)
    (tmp_path / "out" / "tomography_rms.csv").write_text("changed")
    checks.check_experiment(checker, str(tmp_path / "out"), 2, ledger)
    assert checker.failed == 1
    assert "tomography_rms.csv" in checker.failures[0]


def test_missing_output_fails_instead_of_raising(tmp_path):
    checker = checks.Checker()
    checks.check_experiment(checker, str(tmp_path / "absent"), 2, checks.HashLedger())
    assert checker.failed == checker.attempted > 0


def test_estimate_check_uses_its_own_tolerance(tmp_path):
    cal = np.zeros((10_000, 4), dtype=np.uint8)
    cal[:500, 0] = 1  # ghat(0001) = 0.9
    tol = checks.estimate_tolerance(1, 1.0, 0.9, 10_000, 10_000)
    rows = [
        report_row(0, 1.0, 1.0 + 0.9 * tol, 1e-9, g_hat=0.9),
        report_row(1, 0.0, 0.01, 1e-9, g_hat=0.9),
    ]
    write_report(tmp_path / "report.csv", rows)
    checker = checks.Checker()
    checks.check_estimate(checker, str(tmp_path / "report.csv"), 2, cal, 10_000,
                          checks.HashLedger())
    assert checker.failures == []  # tiny bootstrap SEs do not tighten the check

    bad = [
        report_row(0, 1.0, 1.0 + 1.1 * tol, 1.0, g_hat=0.9),  # beyond tolerance
        report_row(1, 0.5, 0.5, 1.0, g_hat=0.9),  # truth of |0...0> is 0 or 1
        report_row(2, 0.0, 0.0, 1.0, g_hat=0.8),  # g_hat disagrees with calibration
    ]
    write_report(tmp_path / "report.csv", bad)
    checker = checks.Checker()
    checks.check_estimate(checker, str(tmp_path / "report.csv"), 3, cal, 10_000,
                          checks.HashLedger())
    assert checker.failed == 3


def test_dataset_check_counts_rows_and_rejects_malformed(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("#n=3\n#type=calibration\n010\n111\n")
    assert checks.dataset_rows(str(path), "calibration", 3) == 2
    checker = checks.Checker()
    checks.check_collect(checker, {"calibration": str(path)}, 3, {"calibration": 3},
                         checks.HashLedger())
    assert checker.failed == 1
    path.write_text("#n=3\n#type=calibration\n012\n")
    with pytest.raises(ValueError):
        checks.dataset_rows(str(path), "calibration", 3)
    tomo = tmp_path / "tomo.txt"
    tomo.write_text("#n=2\n#type=tomography\n#directions=x,y,z\nx,z 01\nq,y 11\n")
    with pytest.raises(ValueError):
        checks.dataset_rows(str(tomo), "tomography", 2)


def _span(name, ident, parent, start, end, **attrs):
    return {"name": name, "id": ident, "parent": parent, "run": "r", "start": start,
            "end": end, "attrs": attrs}


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.experiment", "root", None, 0.0, 10.0),
        _span("protocols.run_tomography", "a", "root", 1.0, 3.0,
              **{"protocols.run_tomography.records": 8,
                 "protocols.run_tomography.distinct_settings": 2}),
        _span("experiments.comparison_rows", "b", "root", 2.0, 5.0),  # overlaps a
        _span("noise.sample_bits", "c", "b", 2.5, 4.0),  # grandchild of root
        _span("storage.write_csv", "d", "root", 9.0, 12.0),  # runs past its parent
    ]
    selfs = spans.self_times(tree)
    assert selfs["root"] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs["b"] == pytest.approx(3.0 - 1.5)
    assert selfs["c"] == pytest.approx(1.5)
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.experiment.self_s"] == pytest.approx(5.0)
    assert metrics["experiments.comparison_rows.s"] == pytest.approx(3.0)
    assert metrics["protocols.run_tomography.shots_per_setting"] == pytest.approx(4.0)
    assert spans.covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)


def test_metric_names_and_units_follow_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.fullmatch(u) for u in units)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile(list(range(21)))
    assert value == 10 and sum(v > value for v in range(21)) == 10
    assert pct == pytest.approx(50.0)


def test_generated_inputs_are_seeded_and_have_the_closed_form_rates(tmp_path):
    paths = [str(tmp_path / "cal.txt"), str(tmp_path / "tomo.txt")]
    cal, digests = inputs.write_inputs(*paths, 4, 40_000, NOISE, 5, 6)
    again, digests_again = inputs.write_inputs(*paths, 4, 40_000, NOISE, 5, 6)
    assert digests == digests_again and np.array_equal(cal, again)
    assert checks.dataset_rows(paths[0], "calibration", 4) == 40_000
    assert checks.dataset_rows(paths[1], "tomography", 4) == 40_000
    # qubit 0 flips at the twirled base rate (p10 + p01) / 2
    assert cal[:, 0].mean() == pytest.approx((NOISE["p10"] + NOISE["p01"]) / 2, abs=0.005)


def test_program_reads_generated_inputs(tmp_path):
    storage = pytest.importorskip("xshadow.storage")
    paths = [str(tmp_path / "cal.txt"), str(tmp_path / "tomo.txt")]
    cal, _ = inputs.write_inputs(*paths, 3, 1000, NOISE, 1, 2)
    assert np.array_equal(storage.read_calibration(paths[0]).outcomes, cal)
    tomo = storage.read_tomography(paths[1])
    assert len(tomo) == 1000
    # z settings of |000> read 0 unless the channel flipped them
    z = tomo.setting_indices == inputs.DIRECTIONS.index("z")
    assert tomo.outcomes[z].mean() < 0.15


def test_traced_cli_records_spans_for_every_command(tmp_path):
    pytest.importorskip("xshadow")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "depth": 2, "noise": NOISE,
                                  "calibration_shots": 2000, "tomography_shots": 2000}))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    spans_path = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "r", "root",
         "tomography", "--config", str(config), "--out", str(tmp_path / "tomo.txt")],
        check=True, env=env, capture_output=True, timeout=120,
    )
    recorded = json.loads(spans_path.read_text())
    names = {s["name"] for s in recorded}
    assert {"config.load_config", "qsim.random_circuit_state", "protocols.run_tomography",
            "noise.sample_bits", "storage.write_tomography"} <= names
    by_id = {s["id"]: s for s in recorded}
    sample = next(s for s in recorded if s["name"] == "noise.sample_bits")
    assert by_id[sample["parent"]]["name"] == "protocols.run_tomography"
    tomo = next(s for s in recorded if s["name"] == "protocols.run_tomography")
    assert tomo["attrs"]["protocols.run_tomography.records"] == 2000
    assert all(s["run"] == "r" for s in recorded)
    metrics = spans.layer_metrics(recorded)
    assert metrics["storage.write_tomography.bytes"] == os.path.getsize(tmp_path / "tomo.txt")
