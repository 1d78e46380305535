"""Print every certificate report, one JSON line each, for comparing two
checkouts byte for byte.

The reports are those of `check-impossibility equitable --d d` for
d = 1..64, with and without `--allow-sqrt`, and `analyze-trinomial` for the
three families and d = 2..39, each in both formats, with
CAKELAB_DEGREE_CAP unset and then set to 64: 968 reports.  Each line holds
the arguments, the exit code, stdout and stderr.  All run in one process
through `cakelab.cli.main`, so they take about a second.

    PYTHONPATH=src python3 tools/certificate_reports.py > head.jsonl
"""

import contextlib
import io
import json
import os
import sys

from cakelab.cli import DEGREE_CAP_ENV, main

FAMILIES = ("x^d-x-1", "x^d+x+1", "x^d+x-1")


def commands():
    for d in range(1, 65):
        yield ["check-impossibility", "equitable", "--d", str(d)]
        yield ["check-impossibility", "equitable", "--d", str(d), "--allow-sqrt"]
    for family in FAMILIES:
        for d in range(2, 40):
            yield ["analyze-trinomial", "--d", str(d), "--family", family]


def report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:
            # an escaped error is a difference too; its type and message, not
            # its traceback, whose paths differ between checkouts
            code = None
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    # main sets the cap only when the variable is set, so the unset runs go first
    os.environ.pop(DEGREE_CAP_ENV, None)
    for cap in (None, "64"):
        if cap is not None:
            os.environ[DEGREE_CAP_ENV] = cap
        for fmt in ("text", "structured"):
            for argv in commands():
                print(json.dumps({"cap": cap, **report(["--format", fmt, *argv])}, sort_keys=True))
