"""Plain-text persistence for datasets and result tables.

Dataset files are line oriented so they stay diffable and greppable.
Header lines start with ``#`` and carry ``key=value`` metadata; the
required keys are ``n`` and ``type``, with ``seed`` optional and
``directions`` required for tomography files.

Calibration rows are one bitstring each, written most significant
qubit first (qubit 0 is the rightmost character, matching the integer
reading of the string).  Tomography rows carry the measurement setting
and the outcome::

    x,z,y 011

where the comma separated labels are in qubit order starting from
qubit 0, while the bitstring keeps qubit 0 rightmost.  The two halves
of the row therefore read in opposite directions; this is deliberate
(labels read like a list, bitstrings read like a number) and round
trips exactly.
"""

from __future__ import annotations

import csv
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DataFormatError
from .protocols import CalibrationDataset, TomographyDataset, _check_direction_count
from .qsim import Direction, direction_from_label

CALIBRATION_TYPE = "calibration"
TOMOGRAPHY_TYPE = "tomography"

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


def _header_lines(kind: str, n: int, seed: int | None, extra: Sequence[tuple[str, str]] = ()) -> str:
    lines = [f"#n={n}", f"#type={kind}"]
    if seed is not None:
        lines.append(f"#seed={seed}")
    for key, value in extra:
        lines.append(f"#{key}={value}")
    return "\n".join(lines) + "\n"


def _bit_block(outcomes: np.ndarray) -> np.ndarray:
    """(M, n) bits -> (M, n+1) ascii bytes, MSB first plus newline."""
    records, n = outcomes.shape
    block = np.empty((records, n + 1), dtype=np.uint8)
    block[:, :n] = np.flip(outcomes, axis=1) + ord("0")
    block[:, n] = ord("\n")
    return block


def _parse_headers(payload: bytes, path: str) -> tuple[dict[str, str], bytes]:
    headers: dict[str, str] = {}
    offset = 0
    while payload[offset : offset + 1] == b"#":
        end = payload.find(b"\n", offset)
        if end < 0:
            raise DataFormatError(f"{path}: header line is not newline terminated")
        line = payload[offset + 1 : end].decode("utf-8", errors="replace")
        key, sep, value = line.partition("=")
        if not sep or not key:
            raise DataFormatError(f"{path}: malformed header line {line!r}")
        headers[key] = value
        offset = end + 1
    for required in ("n", "type"):
        if required not in headers:
            raise DataFormatError(f"{path}: missing #{required}= header")
    try:
        n = int(headers["n"])
    except ValueError:
        raise DataFormatError(f"{path}: #n= must be an integer") from None
    if n < 1:
        raise DataFormatError(f"{path}: #n= must be >= 1, got {n}")
    return headers, payload[offset:]


def _parse_seed(headers: dict[str, str], path: str) -> int | None:
    if "seed" not in headers:
        return None
    try:
        return int(headers["seed"])
    except ValueError:
        raise DataFormatError(f"{path}: #seed= must be an integer") from None


def _decode_bit_block(body: bytes, n: int, path: str) -> np.ndarray:
    """Inverse of _bit_block: uniform rows of n bits plus newline."""
    if len(body) % (n + 1) != 0:
        raise DataFormatError(f"{path}: body is not whole {n}-bit rows")
    raw = np.frombuffer(body, dtype=np.uint8).reshape(-1, n + 1)
    if raw.size and not np.all(raw[:, n] == ord("\n")):
        raise DataFormatError(f"{path}: found a row that is not {n} characters")
    bits = np.empty((len(raw), n), dtype=np.uint8, order="F")  # the dataset's layout
    np.subtract(np.flip(raw[:, :n], axis=1), ord("0"), out=bits)
    if np.any(bits > 1):
        raise DataFormatError(f"{path}: rows must contain only 0 and 1")
    return bits


def write_calibration(path: str, dataset: CalibrationDataset) -> None:
    with open(path, "wb") as fh:
        fh.write(_header_lines(CALIBRATION_TYPE, dataset.n, dataset.seed).encode())
        fh.write(_bit_block(dataset.outcomes))


def read_calibration(path: str) -> CalibrationDataset:
    with open(path, "rb") as fh:
        payload = fh.read()
    headers, body = _parse_headers(payload, path)
    if headers["type"] != CALIBRATION_TYPE:
        raise DataFormatError(f"{path}: expected #type={CALIBRATION_TYPE}, got {headers['type']}")
    n = int(headers["n"])
    bits = _decode_bit_block(body, n, path)
    return CalibrationDataset(n=n, outcomes=bits, seed=_parse_seed(headers, path))


def _tomography_block(dataset: TomographyDataset, labels: Sequence[str]) -> np.ndarray:
    """Rows as (M, 3n+1) ascii bytes for single-byte labels: n labels with
    commas, a space, n bits MSB first, a newline (the layout that
    _fast_tomography_rows reads)."""
    n = dataset.n
    block = np.empty((len(dataset), 3 * n + 1), dtype=np.uint8)
    block[:, : 2 * n] = ord(",")
    codes = np.frombuffer("".join(labels).encode(), dtype=np.uint8)
    block[:, 0 : 2 * n : 2] = codes[dataset.setting_indices]
    block[:, 2 * n - 1] = ord(" ")
    block[:, 2 * n :] = _bit_block(dataset.outcomes)
    return block


def write_tomography(path: str, dataset: TomographyDataset) -> None:
    labels = [d.label for d in dataset.directions]
    extra = [("directions", ",".join(labels))]
    header = _header_lines(TOMOGRAPHY_TYPE, dataset.n, dataset.seed, extra)
    if all(len(label.encode()) == 1 for label in labels):
        with open(path, "wb") as fh:
            fh.write(header.encode())
            fh.write(_tomography_block(dataset, labels))
        return
    label_rows = np.asarray(labels, dtype=object)[dataset.setting_indices]
    setting_col = [",".join(row) for row in label_rows]
    n = dataset.n
    bit_text = _bit_block(dataset.outcomes)[:, :n].tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(
            f"{setting_col[i]} {bit_text[i * n:(i + 1) * n]}\n"
            for i in range(len(setting_col))
        )


def read_tomography(path: str, directions: Sequence[Direction] | None = None) -> TomographyDataset:
    with open(path, "rb") as fh:
        payload = fh.read()
    headers, body = _parse_headers(payload, path)
    if headers["type"] != TOMOGRAPHY_TYPE:
        raise DataFormatError(f"{path}: expected #type={TOMOGRAPHY_TYPE}, got {headers['type']}")
    if "directions" not in headers:
        raise DataFormatError(f"{path}: missing #directions= header")
    n = int(headers["n"])
    labels = tuple(headers["directions"].split(","))
    if directions is None:
        try:
            directions = tuple(direction_from_label(label) for label in labels)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    else:
        directions = tuple(directions)
        if tuple(d.label for d in directions) != labels:
            raise DataFormatError(
                f"{path}: file directions {labels} do not match the provided set"
            )
    _check_direction_count(len(labels))  # before uint8 setting indices are filled
    label_index = {label: i for i, label in enumerate(labels)}

    parsed = None
    if all(len(label.encode()) == 1 for label in labels):
        parsed = _fast_tomography_rows(body, n, label_index)
    if parsed is None:
        parsed = _slow_tomography_rows(body, n, label_index, path)
    settings, outcomes = parsed
    return TomographyDataset(
        n=n,
        directions=directions,
        setting_indices=settings,
        outcomes=outcomes,
        seed=_parse_seed(headers, path),
    )


def _fast_tomography_rows(
    body: bytes, n: int, label_index: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorized row parse for single-character label sets.

    Rows then have fixed width: n labels with commas, a space, n bits,
    a newline.  Columns are filled one at a time into the dataset's
    column-major uint8 layout.  Returns None when any structural check
    fails so the caller can fall back to the per-row parser and its exact
    errors.
    """
    width = (2 * n - 1) + 1 + n + 1
    if len(body) % width != 0:
        return None
    raw = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    if not np.all(raw[:, width - 1] == ord("\n")):
        return None
    if not np.all(raw[:, 2 * n - 1] == ord(" ")):
        return None
    if n > 1 and not np.all(raw[:, 1 : 2 * n - 1 : 2] == ord(",")):
        return None
    lookup = np.full(256, -1, dtype=np.int16)
    for label, idx in label_index.items():
        lookup[ord(label)] = idx
    settings = np.empty((len(raw), n), dtype=np.uint8, order="F")
    for qubit in range(n):
        column = lookup[raw[:, 2 * qubit]]
        if np.any(column < 0):
            return None
        settings[:, qubit] = column
    bits = np.empty((len(raw), n), dtype=np.uint8, order="F")
    np.subtract(np.flip(raw[:, 2 * n : 3 * n], axis=1), ord("0"), out=bits)
    if np.any(bits > 1):
        return None
    return settings, bits


def _slow_tomography_rows(
    body: bytes, n: int, label_index: Mapping[str, int], path: str
) -> tuple[np.ndarray, np.ndarray]:
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: body is not UTF-8 text ({exc.reason} at body byte {exc.start})"
        ) from None
    lines = text.splitlines()
    settings = np.empty((len(lines), n), dtype=np.uint8, order="F")
    outcomes = np.empty((len(lines), n), dtype=np.uint8, order="F")
    for row, line in enumerate(lines):
        parts = line.split(" ")
        if len(parts) != 2:
            raise DataFormatError(f"{path}: row {row} must be '<labels> <bits>'")
        row_labels = parts[0].split(",")
        bits = parts[1]
        if len(row_labels) != n or len(bits) != n:
            raise DataFormatError(f"{path}: row {row} does not have {n} qubits")
        for qubit, label in enumerate(row_labels):
            if label not in label_index:
                raise DataFormatError(f"{path}: row {row} has unknown label {label!r}")
            settings[row, qubit] = label_index[label]
        for qubit, ch in enumerate(reversed(bits)):
            if ch not in "01":
                raise DataFormatError(f"{path}: row {row} bits must be 0/1")
            outcomes[row, qubit] = ch == "1"
    return settings, outcomes


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Mapping[str, object]]) -> None:
    """Write rows as CSV with a fixed column order; floats via repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])


def write_report(path: str, rows: Iterable[Mapping[str, object]]) -> None:
    """Write the three-estimator comparison table."""
    write_csv(path, REPORT_COLUMNS, rows)


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
