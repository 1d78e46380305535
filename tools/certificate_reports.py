"""Print every certificate report and every certificate recheck, one JSON
line each, for comparing two checkouts byte for byte.

The reports are those of `check-impossibility equitable --d d` for
d = 1..64, with and without `--allow-sqrt`, `check-impossibility welfare
--n 2 --p p` for the primes 3 <= p < 110, and `analyze-trinomial` for the
three families and d = 2..39, each in both formats, with
CAKELAB_DEGREE_CAP unset and then set to 64: 1080 reports.  Each line holds
the arguments, the exit code, stdout and stderr; a code of null is an
error that escaped `main`.

At each cap, every certificate those commands issue is then rechecked by
`verify_certificate`, one line each: the equitable certificates for
d = 1..64 with and without `--allow-sqrt`, and the welfare certificates for
3 <= p < 110.  A line holds the certificate's arguments and the four
checks, or a check of null and the error that escaped.  The builder
raises for d = 35 at both caps and for d = 53 and 59 at the default cap,
so no certificate is issued there: 304 rechecks.  All run in one process
through `cakelab.cli.main` and `cakelab.certificates`, so they take a few
seconds.

    PYTHONPATH=src python3 tools/certificate_reports.py > head.jsonl
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

from cakelab.certificates import check_impossibility_equitable, check_impossibility_welfare, verify_certificate
from cakelab.cli import DEGREE_CAP_ENV, main
from cakelab.errors import CakelabError
from cakelab.factoring import DEFAULT_DEGREE_CAP, set_degree_cap

FAMILIES = ("x^d-x-1", "x^d+x+1", "x^d+x-1")
WELFARE_PRIMES = [p for p in range(3, 110) if all(p % q for q in range(2, p))]


def commands():
    for d in range(1, 65):
        yield ["check-impossibility", "equitable", "--d", str(d)]
        yield ["check-impossibility", "equitable", "--d", str(d), "--allow-sqrt"]
    for p in WELFARE_PRIMES:
        yield ["check-impossibility", "welfare", "--n", "2", "--p", str(p)]
    for family in FAMILIES:
        for d in range(2, 40):
            yield ["analyze-trinomial", "--d", str(d), "--family", family]


def certificates():
    """(arguments, builder) of every certificate the commands ask for."""
    for d in range(1, 65):
        yield ["equitable", "--d", str(d)], lambda d=d: check_impossibility_equitable(d)
        yield ["equitable", "--d", str(d), "--allow-sqrt"], lambda d=d: check_impossibility_equitable(d, True)
    for p in WELFARE_PRIMES:
        yield ["welfare", "--n", "2", "--p", str(p)], lambda p=p: check_impossibility_welfare(2, p)


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


def recheck(args, build):
    """The recheck line of an issued certificate, or None when the builder
    refuses with a named error, as its report shows."""
    try:
        cert = build()
    except CakelabError:
        return None
    try:
        return {"verify": args, "check": dataclasses.asdict(verify_certificate(cert))}
    except Exception as e:
        return {"verify": args, "check": None, "error": f"{type(e).__name__}: {e}"}


if __name__ == "__main__":
    # main sets the cap only when the variable is set, so the unset runs go first
    os.environ.pop(DEGREE_CAP_ENV, None)
    for cap in (None, "64"):
        if cap is not None:
            os.environ[DEGREE_CAP_ENV] = cap
        for fmt in ("text", "structured"):
            for argv in commands():
                print(json.dumps({"cap": cap, **report(["--format", fmt, *argv])}, sort_keys=True))
        set_degree_cap(int(cap) if cap else DEFAULT_DEGREE_CAP)
        for args, build in certificates():
            line = recheck(args, build)
            if line is not None:
                print(json.dumps({"cap": cap, **line}, sort_keys=True))
