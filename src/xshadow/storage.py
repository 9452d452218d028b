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

Every label is one printable ASCII character other than space, ``,``
and ``#``, and labels do not repeat, so each kind of file has one
fixed row width: it is written as its header, then one byte block per
noise._BLOCK_ROWS records (noise._row_blocks), and read as one byte
block.  Every row, the last included, ends in a bare ``\\n``.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DataFormatError
from .noise import _row_blocks
from .protocols import CalibrationDataset, TomographyDataset
from .qsim import Direction, _check_direction_labels, direction_from_label

CALIBRATION_TYPE = "calibration"
TOMOGRAPHY_TYPE = "tomography"
# one printable ASCII character: tomography rows then have a fixed width,
# and no label reads as a separator (space, comma) or starts a header (#)
_LABEL_CHARACTERS = frozenset(map(chr, range(0x21, 0x7F))) - {",", "#"}

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
    """(rows, n) bits -> (rows, n+1) ascii bytes, MSB first plus newline."""
    records, n = outcomes.shape
    block = np.empty((records, n + 1), dtype=np.uint8)
    block[:, :n] = np.flip(outcomes, axis=1) + ord("0")
    block[:, n] = ord("\n")
    return block


def _read_header(
    fh: io.BufferedReader, path: str, kind: str
) -> tuple[dict[str, str], int, int | None]:
    """Read the ``#`` header lines of the dataset file open in `fh`, which
    must be of type `kind`, up to its body: the header keys and values, the
    qubit count (#n=, >= 1) and the seed (#seed=, or None)."""
    headers: dict[str, str] = {}
    while fh.peek(1)[:1] == b"#":
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataFormatError(f"{path}: header line is not newline terminated")
        text = line[1:-1].decode("utf-8", errors="replace")
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise DataFormatError(f"{path}: malformed header line {text!r}")
        if key in headers:
            raise DataFormatError(f"{path}: repeated #{key}= header")
        headers[key] = value
    for required in ("n", "type"):
        if required not in headers:
            raise DataFormatError(f"{path}: missing #{required}= header")
    numbers: dict[str, int | None] = {}
    for key in ("n", "seed"):
        try:
            numbers[key] = int(headers[key]) if key in headers else None
        except ValueError:
            raise DataFormatError(f"{path}: #{key}= must be an integer") from None
    n = numbers["n"]
    if n < 1:
        raise DataFormatError(f"{path}: #n= must be >= 1, got {n}")
    if headers["type"] != kind:
        raise DataFormatError(f"{path}: expected #type={kind}, got {headers['type']}")
    return headers, n, numbers["seed"]


def read_qubit_count(path: str, kind: str, directions: Sequence[Direction] | None = None) -> int:
    """The qubit count (#n=) of the dataset file at `path`, which must be
    of type `kind`, from its header lines alone; a tomography file given
    `directions` must also have been written under them (_file_directions)."""
    with open(path, "rb") as fh:
        headers, n, _ = _read_header(fh, path, kind)
    if directions is not None:
        _file_directions(headers, path, directions)
    return n


def _read_dataset(path: str, kind: str) -> tuple[dict[str, str], int, int | None, memoryview]:
    """Read the dataset file at `path`, which must be of type `kind`: its
    header (_read_header) and a view of its body.  The body is read from
    the unbuffered file, so that it is not joined to the header reader's
    read-ahead, which would copy it."""
    with open(path, "rb") as fh:
        headers, n, seed = _read_header(fh, path, kind)
        fh.raw.seek(fh.tell())
        body = fh.raw.readall()
    return headers, n, seed, memoryview(body)


def _decode_rows(
    body: memoryview, width: int, n: int, what: str, path: str
) -> tuple[np.ndarray, np.ndarray]:
    """Split the body into rows of width - 1 bytes and a newline, the last
    n of them bits written MSB first.  Returns the raw (M, width) rows and
    the bits as the dataset's column-major uint8 (M, n) array, decoded in
    row blocks (_row_blocks).  Each check runs on the whole array and
    looks for the first bad row only once it has failed, so a valid file
    pays for no per-row mask."""
    raw = np.frombuffer(body, dtype=np.uint8)
    if len(body) % width or not np.all(raw[width - 1 :: width] == ord("\n")):
        ends = np.flatnonzero(raw == ord("\n"))
        bad = np.flatnonzero(ends != np.arange(width - 1, width * len(ends), width))
        row = int(bad[0]) if bad.size else len(ends)
        raise DataFormatError(
            f"{path}: body is not whole {what} rows: "
            f"row {row} is not {width - 1} characters and a newline"
        )
    raw = raw.reshape(-1, width)
    bits = np.empty((len(raw), n), dtype=np.uint8, order="F")  # the dataset's layout
    digits = np.flip(raw[:, width - 1 - n : width - 1], axis=1)
    for block in _row_blocks(len(raw)):  # transposed: inner loops run down columns
        np.subtract(digits[block].T, ord("0"), out=bits[block].T)
    if bits.max(initial=0) > 1:
        row = int(np.flatnonzero((bits > 1).any(axis=1))[0])
        raise DataFormatError(f"{path}: rows must contain only 0 and 1; row {row} does not")
    return raw, bits


def write_calibration(path: str, dataset: CalibrationDataset) -> None:
    with open(path, "wb") as fh:
        fh.write(_header_lines(CALIBRATION_TYPE, dataset.n, dataset.seed).encode())
        for rows in _row_blocks(len(dataset)):
            fh.write(_bit_block(dataset.outcomes[rows]))


def read_calibration(path: str) -> CalibrationDataset:
    _, n, seed, body = _read_dataset(path, CALIBRATION_TYPE)
    _, bits = _decode_rows(body, n + 1, n, f"{n}-bit", path)
    return CalibrationDataset(n=n, outcomes=bits, seed=seed)


def _check_labels(labels: Sequence[str]) -> None:
    """A ValueError if the direction label set cannot head a tomography
    file: it breaks the direction-set rule, or a label is not one of
    _LABEL_CHARACTERS."""
    _check_direction_labels(labels)
    for label in labels:
        if label not in _LABEL_CHARACTERS:
            raise ValueError(
                f"direction label {label!r} is not one printable ASCII character "
                "other than space, ',' and '#'"
            )


def write_tomography(path: str, dataset: TomographyDataset) -> None:
    """Write the header, then each row block of digits as (rows, 3n+1) ascii
    bytes: n labels (digit 2*setting + bit -> the setting's label byte) with
    commas, a space, n bits MSB first, a newline."""
    labels = [d.label for d in dataset.directions]
    _check_labels(labels)
    extra = [("directions", ",".join(labels))]
    codes = np.repeat(np.frombuffer("".join(labels).encode(), dtype=np.uint8), 2)
    n = dataset.n
    with open(path, "wb") as fh:
        fh.write(_header_lines(TOMOGRAPHY_TYPE, n, dataset.seed, extra).encode())
        for rows in _row_blocks(len(dataset)):
            digits = dataset.digits[rows]
            block = np.empty((len(digits), 3 * n + 1), dtype=np.uint8)
            block[:, : 2 * n] = ord(",")
            block[:, 0 : 2 * n : 2] = codes[digits]
            block[:, 2 * n - 1] = ord(" ")
            block[:, 2 * n :] = _bit_block(digits & 1)
            fh.write(block)


def _file_directions(
    headers: Mapping[str, str], path: str, directions: Sequence[Direction] | None
) -> tuple[Direction, ...]:
    """The direction set of the tomography file with these headers: its
    #directions= labels, which must pass _check_labels, read as built-in
    axes, or `directions` when given, whose labels must be those."""
    if "directions" not in headers:
        raise DataFormatError(f"{path}: missing #directions= header")
    labels = tuple(headers["directions"].split(",")) if headers["directions"] else ()
    try:
        _check_labels(labels)
        if directions is None:
            return tuple(direction_from_label(label) for label in labels)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    directions = tuple(directions)
    if tuple(d.label for d in directions) != labels:
        raise DataFormatError(f"{path}: file directions {labels} do not match the provided set")
    return directions


def read_tomography(path: str, directions: Sequence[Direction] | None = None) -> TomographyDataset:
    headers, n, seed, body = _read_dataset(path, TOMOGRAPHY_TYPE)
    directions = _file_directions(headers, path, directions)
    # the bits, into which each row block's label digits are then added
    raw, digits = _decode_rows(body, 3 * n + 1, n, f"{n}-qubit", path)
    # separator columns, compared to one byte each: no template sized by #n=
    commas, spaces = raw[:, 1 : 2 * n - 1 : 2], raw[:, 2 * n - 1]
    # label byte -> digit 2 * setting index, at most 182 for the 92 labels;
    # 255 marks every other byte
    top = 2 * len(directions) - 2
    lookup = np.full(256, 255, dtype=np.uint8)
    labels = "".join(d.label for d in directions).encode()
    lookup[np.frombuffer(labels, dtype=np.uint8)] = 2 * np.arange(len(directions))
    codes = raw[:, 0 : 2 * n : 2]
    for block in _row_blocks(len(raw)):
        if not (np.all(commas[block] == ord(",")) and np.all(spaces[block] == ord(" "))):
            bad = (commas[block] != ord(",")).any(axis=1) | (spaces[block] != ord(" "))
            row = block.start + int(np.flatnonzero(bad)[0])
            raise DataFormatError(
                f"{path}: row {row} must be '<labels> <bits>' with {n} comma-separated labels"
            )
        doubled = np.take(lookup, codes[block].T)  # transposed: runs down the columns
        if doubled.max(initial=0) > top:  # refused before it is added: 255 + 1 wraps to 0
            row, where = np.argwhere(doubled.T > top)[0] + (block.start, 0)
            raise DataFormatError(f"{path}: row {row} has unknown label {chr(codes[row, where])!r}")
        np.add(digits[block].T, doubled, out=digits[block].T)
    return TomographyDataset(n=n, directions=directions, digits=digits, seed=seed)


def _format_cell(value: object) -> str:
    if isinstance(value, (float, np.floating)):
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
