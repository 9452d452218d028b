"""Check that dataset files read back losslessly through xshadow.storage.

Usage::

    python perfbench/roundtrip.py CALIBRATION TOMOGRAPHY WORK_DIR

Reads each file, writes the parsed dataset again under WORK_DIR and
prints a JSON object mapping ``calibration`` and ``tomography`` to
whether the rewritten bytes equal the original.
"""

from __future__ import annotations

import json
import os
import sys

from xshadow import storage


def same_after_rewrite(path: str, read, write, workdir: str) -> bool:
    copy = os.path.join(workdir, "rewrite-" + os.path.basename(path))
    write(copy, read(path))
    with open(path, "rb") as a, open(copy, "rb") as b:
        return a.read() == b.read()


def main() -> None:
    cal_path, tomo_path, workdir = sys.argv[1:4]
    print(json.dumps({
        "calibration": same_after_rewrite(
            cal_path, storage.read_calibration, storage.write_calibration, workdir
        ),
        "tomography": same_after_rewrite(
            tomo_path, storage.read_tomography, storage.write_tomography, workdir
        ),
    }))


if __name__ == "__main__":
    main()
