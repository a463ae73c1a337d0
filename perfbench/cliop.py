"""Run twirlkit CLI commands in-process and capture what they print.

Run as a script, this is the set-up probe: a fresh process that times
``import twirlkit`` plus one cold op and prints the timing and the captured
outputs as one JSON line.  It imports only the standard library before the
clock starts, so numpy's import is part of the measured set-up:

    python3 perfbench/cliop.py SRC_DIR '[["selftest"], ...]'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def run_command(main, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code or None on an uncaught exception, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def import_cli(src: str):
    """Import ``twirlkit.cli`` from ``src``, refusing any other installed copy."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from twirlkit import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"twirlkit imported from {cli.__file__}, not from {src}")
    return cli


def _probe(src: str, argvs: list[list[str]]) -> dict:
    t0 = time.perf_counter()
    cli = import_cli(src)
    results = [run_command(cli.main, argv) for argv in argvs]
    return {"setup_s": time.perf_counter() - t0, "results": results}


if __name__ == "__main__":
    print(json.dumps(_probe(sys.argv[1], json.loads(sys.argv[2]))))
