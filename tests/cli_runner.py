"""Run the command line in-process, as the tests see it.

`invoke(args)` calls `xshadow.cli.main(args)` with stdout and stderr in
one buffer and returns its exit code, that output and the exception it
ended with: the `SystemExit` of a nonzero exit, or any other exception
`main` raised, which counts as exit code 1.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from xshadow import cli


@dataclass(frozen=True)
class Result:
    exit_code: int
    output: str
    exception: BaseException | None


def invoke(args: list[str]) -> Result:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            cli.main(args)
    except SystemExit as exc:
        code = exc.code or 0
        return Result(code, buffer.getvalue(), exc if code else None)
    except Exception as exc:
        return Result(1, buffer.getvalue(), exc)
    return Result(0, buffer.getvalue(), None)
