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
noise._BLOCK_ROWS records (noise._row_blocks), and read the same way:
each row block from the file into one reused buffer, then decoded into the
dataset's array.  Every row, the last included, ends in a bare ``\\n``.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DataFormatError
from .noise import _BLOCK_ROWS, _row_blocks
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


def _read_rows(fh, path: str, width: int, n: int, what: str, step=None) -> np.ndarray:
    """Read the rest of the regular file open in `fh`, M rows by its size, each
    width - 1 bytes and a newline, ending in n bits MSB first: each row block
    (_row_blocks) into one reused buffer, its bits into the dataset's column-major
    uint8 (M, n) array, then step(first row, block, its bits).  A check runs on
    the whole block and looks for its first bad row only once it has failed."""
    status = os.fstat(fh.fileno())
    if not stat.S_ISREG(status.st_mode):  # a pipe has no size to count rows by
        raise DataFormatError(f"{path}: not a regular file")
    records, partial = divmod(status.st_size - fh.tell(), width)
    bits = np.empty((records, n), dtype=np.uint8, order="F")  # the dataset's layout
    buffer = np.empty((min(records, _BLOCK_ROWS), width), dtype=np.uint8)
    for rows in _row_blocks(records):
        block = buffer[: len(bits[rows])]
        if fh.readinto(block) != block.nbytes:
            raise DataFormatError(f"{path}: file ended before its {records} rows")
        if not np.all(block[:, -1] == ord("\n")):  # the first row with a newline out of place
            bad = (block[:, :-1] == ord("\n")).any(axis=1) | (block[:, -1] != ord("\n"))
            row = rows.start + int(np.flatnonzero(bad)[0])
            break
        digits = np.flip(block[:, width - 1 - n : width - 1], axis=1)
        np.subtract(digits.T, ord("0"), out=bits[rows].T)  # transposed: runs down columns
        if bits[rows].max(initial=0) > 1:
            row = rows.start + int(np.flatnonzero((bits[rows] > 1).any(axis=1))[0])
            raise DataFormatError(f"{path}: rows must contain only 0 and 1; row {row} does not")
        if step is not None:
            step(rows.start, block, bits[rows])
    else:
        if not partial:
            return bits
        row = records  # the bytes after the last whole row
    raise DataFormatError(
        f"{path}: body is not whole {what} rows: "
        f"row {row} is not {width - 1} characters and a newline"
    )


def write_calibration(path: str, dataset: CalibrationDataset) -> None:
    with open(path, "wb") as fh:
        fh.write(_header_lines(CALIBRATION_TYPE, dataset.n, dataset.seed).encode())
        for rows in _row_blocks(len(dataset)):
            fh.write(_bit_block(dataset.outcomes[rows]))


def read_calibration(path: str) -> CalibrationDataset:
    with open(path, "rb") as fh:
        _, n, seed = _read_header(fh, path, CALIBRATION_TYPE)
        bits = _read_rows(fh, path, n + 1, n, f"{n}-bit")
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
    with open(path, "rb") as fh:
        headers, n, seed = _read_header(fh, path, TOMOGRAPHY_TYPE)
        directions = _file_directions(headers, path, directions)
        # label byte -> digit 2 * setting index (at most 182), 255 for every other byte
        lookup = np.full(256, 255, dtype=np.uint8)
        lookup[[ord(d.label) for d in directions]] = 2 * np.arange(len(directions))

        def add_labels(start: int, block: np.ndarray, digits: np.ndarray) -> None:
            # separators compared to one byte each: no template sized by #n=
            commas, spaces = block[:, 1 : 2 * n - 1 : 2], block[:, 2 * n - 1]
            if not (np.all(commas == ord(",")) and np.all(spaces == ord(" "))):
                bad = (commas != ord(",")).any(axis=1) | (spaces != ord(" "))
                raise DataFormatError(
                    f"{path}: row {start + int(np.flatnonzero(bad)[0])} must be "
                    f"'<labels> <bits>' with {n} comma-separated labels"
                )
            for q in range(n):  # one column at a time: np.take's intp copy is one column's
                doubled = np.take(lookup, block[:, 2 * q])
                if doubled.max(initial=0) == 255:  # refused before the add: 255 + 1 wraps to 0
                    row, where = divmod(int(np.argmax(lookup[block[:, 0 : 2 * n : 2]] == 255)), n)
                    label = chr(block[row, 2 * where])
                    raise DataFormatError(f"{path}: row {start + row} has unknown label {label!r}")
                np.add(digits[:, q], doubled, out=digits[:, q])

        digits = _read_rows(fh, path, 3 * n + 1, n, f"{n}-qubit", add_labels)
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
