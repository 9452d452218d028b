"""Output checks.  Each check is one operation: it fails when its
predicate is false or raises.  The benchmark reports attempted and failed
operations and exits non-zero when any failed.

The checks read the output files with their own parsers, not with
xshadow, so a defect in the program's readers cannot hide one in its
writers.
"""

from __future__ import annotations

import csv
import hashlib
import math
from typing import Callable

import numpy as np

# Pinned column order of report.csv.
REPORT_COLUMNS = (
    "correlator_id",
    "degree",
    "pattern",
    "truth",
    "mitigated",
    "mitigated_se",
    "unmitigated",
    "unmitigated_se",
    "indep",
    "indep_se",
    "g_hat",
)
EXPERIMENT_FILES = (
    "calibration.txt",
    "tomography.txt",
    "report.csv",
    "calibration_rms.csv",
    "tomography_rms.csv",
    "summary.csv",
)
SLOPE_BAND = (-0.6, -0.4)
# experiment_n8: |mitigated - truth| may reach this many bootstrap SEs.
SE_MULTIPLE = 5.0
# estimate_n10: normal quantile of the tolerance built from variance bounds.
TOLERANCE_SIGMAS = 6.0


class Checker:
    """Counts operations and records the labels of the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, predicate: Callable[[], bool]) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
            detail = ""
        except Exception as exc:  # a check that raises is a failed check
            ok = False
            detail = f": {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(label + detail)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class HashLedger:
    """SHA-256 of each output on the first repeat; later repeats must match."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def check(self, checker: Checker, label: str, path: str) -> None:
        if label not in self.first:
            checker.op(f"{label} readable", lambda: self.first.setdefault(label, sha256_file(path)))
            return
        checker.op(f"{label} sha256 equal to first repeat",
                   lambda: sha256_file(path) == self.first[label])


def read_csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_report(checker: Checker, path: str, expected_rows: int) -> list[dict[str, str]]:
    """One operation: the header is REPORT_COLUMNS in order and the row
    count is as configured.  Returns the rows, empty if the file is unusable."""
    parsed: list[dict[str, str]] = []

    def shape_ok() -> bool:
        header, rows = read_csv_rows(path)
        parsed.extend(dict(zip(header, row)) for row in rows)
        return tuple(header) == REPORT_COLUMNS and len(rows) == expected_rows

    if not checker.op(f"{path} columns and {expected_rows} rows", shape_ok):
        return []
    return parsed


def max_abs_error(rows: list[dict[str, str]]) -> float:
    """Max over report rows of |mitigated - truth|."""
    return max(abs(float(r["mitigated"]) - float(r["truth"])) for r in rows)


def check_experiment(checker: Checker, outdir: str, expected_rows: int,
                     ledger: HashLedger) -> list[dict[str, str]]:
    """experiment_n8 outputs: report rows within SE_MULTIPLE bootstrap SEs
    of truth, every fitted slope in SLOPE_BAND, and the six files
    byte-identical across repeats."""
    rows = read_report(checker, f"{outdir}/report.csv", expected_rows)
    for row in rows:
        checker.op(
            f"report {row['correlator_id']} |mitigated-truth| <= {SE_MULTIPLE:g} se",
            lambda row=row: abs(float(row["mitigated"]) - float(row["truth"]))
            <= SE_MULTIPLE * float(row["mitigated_se"]),
        )
    slopes: list[list[str]] = []

    def read_slopes() -> bool:
        slopes.extend(r for r in read_csv_rows(f"{outdir}/summary.csv")[1] if r[0].endswith("_slope"))
        return len(slopes) > 0

    checker.op("summary.csv has slopes", read_slopes)
    for section, key, value in slopes:
        checker.op(
            f"{section} {key} in {SLOPE_BAND}",
            lambda value=value: SLOPE_BAND[0] <= float(value) <= SLOPE_BAND[1],
        )
    for name in EXPERIMENT_FILES:
        ledger.check(checker, name, f"{outdir}/{name}")
    return rows


def dataset_rows(path: str, kind: str, n: int) -> int:
    """Validate a dataset file's headers and rows; return the row count."""
    with open(path, "rb") as fh:
        payload = fh.read()
    headers = {}
    offset = 0
    while payload[offset : offset + 1] == b"#":
        end = payload.index(b"\n", offset)
        key, _, value = payload[offset + 1 : end].decode().partition("=")
        headers[key] = value
        offset = end + 1
    if headers.get("n") != str(n) or headers.get("type") != kind:
        raise ValueError(f"headers {headers} are not n={n}, type={kind}")
    if kind == "calibration":
        width, bits_at = n + 1, 0
    else:
        width, bits_at = 2 * n - 1 + 1 + n + 1, 2 * n
    body = np.frombuffer(payload, dtype=np.uint8, offset=offset)
    if body.size % width:
        raise ValueError(f"body is not whole rows of width {width}")
    rows = body.reshape(-1, width)
    bits = rows[:, bits_at : bits_at + n]
    if not (np.all(rows[:, -1] == ord("\n")) and np.all((bits == ord("0")) | (bits == ord("1")))):
        raise ValueError("a row is not newline terminated or holds a non-bit")
    if kind == "tomography":
        labels = np.frombuffer(headers["directions"].replace(",", "").encode(), dtype=np.uint8)
        if not (np.all(np.isin(rows[:, 0 : 2 * n - 1 : 2], labels))
                and np.all(rows[:, 1 : 2 * n - 1 : 2] == ord(","))
                and np.all(rows[:, 2 * n - 1] == ord(" "))):
            raise ValueError("a row's setting is malformed")
    return rows.shape[0]


def check_collect(checker: Checker, files: dict[str, str], n: int,
                  shots: dict[str, int], ledger: HashLedger) -> None:
    """collect_n12 outputs: each dataset has its configured row count and
    is byte-identical across repeats."""
    for kind, path in files.items():
        checker.op(f"{kind} file has {shots[kind]} well-formed rows",
                   lambda kind=kind, path=path: dataset_rows(path, kind, n) == shots[kind])
        ledger.check(checker, kind, path)


def parity_means(cal_bits: np.ndarray, patterns: list[str]) -> dict[str, float]:
    """ghat(v) recomputed from calibration bits (column i = qubit i) for
    patterns written most significant qubit first."""
    out = {}
    for pattern in patterns:
        support = [i for i, ch in enumerate(reversed(pattern)) if ch == "1"]
        parity = np.bitwise_xor.reduce(cal_bits[:, support], axis=1)
        out[pattern] = float(np.mean(1.0 - 2.0 * parity))
    return out


def estimate_tolerance(degree: int, truth: float, g_hat: float,
                       tomo_shots: int, cal_shots: int) -> float:
    """Error bound on a mitigated Pauli correlator that does not use the
    bootstrap.  mitigated - truth = (rbar - g truth - truth (ghat - g)) / ghat,
    where a raw shade is 0 or +-3^degree, so Var(shade) <= 3^degree, and a
    parity sign has Var <= 1."""
    spread = math.sqrt(3.0**degree / tomo_shots) + abs(truth) / math.sqrt(cal_shots)
    return TOLERANCE_SIGMAS * spread / abs(g_hat)


def check_estimate(checker: Checker, path: str, expected_rows: int, cal_bits: np.ndarray,
                   tomo_shots: int, ledger: HashLedger) -> list[dict[str, str]]:
    """estimate_n10 outputs on |0...0>: truth is 0 or 1, g_hat equals the
    parity mean of the generated calibration, and mitigated lies within
    estimate_tolerance of truth."""
    rows = read_report(checker, path, expected_rows)
    g_own = parity_means(cal_bits, sorted({r["pattern"] for r in rows}))
    for row in rows:
        def row_ok(row=row) -> bool:
            truth, g_hat = float(row["truth"]), float(row["g_hat"])
            tol = estimate_tolerance(int(row["degree"]), truth, g_hat, tomo_shots, len(cal_bits))
            return (
                min(abs(truth), abs(truth - 1.0)) <= 1e-9
                and abs(g_hat - g_own[row["pattern"]]) <= 1e-9
                and abs(float(row["mitigated"]) - truth) <= tol
            )

        checker.op(f"report {row['correlator_id']} within tolerance of truth", row_ok)
    ledger.check(checker, "report.csv", path)
    return rows
