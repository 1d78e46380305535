"""Command-line frontend.

Reports are deterministic byte for byte: the same command over the same
inputs prints the same output in a fresh process.  Within one process an
earlier command can refine the cached enclosure of a value a later one
prints (`isolate-cutpoint`'s `refined_interval`).  The structured format
is JSON with a format_version field and carries exactly the same semantic
content as the text format.  A report prints the share values that `cake`
built for its audit or its welfare, and values no share again.

Exit codes: 0 success (and IMPOSSIBLE verdicts); 1 input errors, such
as a malformed measures file, a rational option with a zero denominator
or an allocation that does not tile [0, 1]; 2 NO-OBSTRUCTION-FOUND (and
tower audits with violations) and argparse usage errors; 3 requests
outside the covered certificate cases.

The argument parser is built on the first `main` call and shared by every
later call in the process, so a caller that runs many commands in one
process pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .algebraic import AlgebraicNumber
from .cake import Allocation, check_fairness, max_welfare, own_values
from .certificates import (
    Certificate,
    TrinomialFamily,
    Verdict,
    check_impossibility_equitable,
    check_impossibility_welfare,
    isolate_equitable_cutpoint,
    selmer_classify,
    solvability_verdict,
    Solvability,
)
from .errors import CakelabError, ParseError, UncoveredCaseError
from .factoring import set_degree_cap
from .parsing import parse_measures
from .protocols import PROTOCOLS, run_protocol

DEGREE_CAP_ENV = "CAKELAB_DEGREE_CAP"


def _rational(text: str, option: str, col: int = 1) -> Fraction:
    """A rational option value; a malformed one or a zero denominator is a
    ParseError at its column within the option's value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{option}: {text!r} is not a rational p/q with q != 0", 1, col) from None


def _rationals(text: str, option: str) -> list[Fraction]:
    out: list[Fraction] = []
    col = 1
    for tok in text.split(","):
        out.append(_rational(tok, option, col))
        col += len(tok) + 1
    return out


def _read_measures(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measures(fh.read())


def _alg_data(v: AlgebraicNumber, digits: int) -> dict:
    return {"decimal": v.decimal(digits), "minpoly": str(v.minimal_polynomial())}


def _point_str(v: AlgebraicNumber, digits: int) -> str:
    """Display form for interval endpoints: plain decimal for rationals,
    decimal plus minimal polynomial otherwise."""
    if v.as_rational() is not None:
        return v.decimal(digits)
    return v.display(digits)


def _emit(args, data: dict) -> None:
    if args.format == "structured":
        print(json.dumps({"format_version": 1, **data}, sort_keys=True, indent=2))
    else:
        print(_render_text(data))


def _render_text(data: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines: list[str] = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    body = _render_text(item, indent + 2).splitlines()
                    if body:
                        first = body[0].strip()
                        lines.append(f"{pad}  - {first}")
                        lines.extend(body[1:])
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


# -- subcommands ----------------------------------------------------------------------


def _allocation_data(alloc: Allocation, measures, values, digits: int) -> list[dict]:
    """Each player's pieces and their own value of them, as `cake` built it."""
    return [
        {
            "player": m.label or f"player{i + 1}",
            "pieces": [
                {"lo": _point_str(lo, digits), "hi": _point_str(hi, digits)} for lo, hi in per
            ],
            "value": _alg_data(v, digits),
        }
        for i, (m, per, v) in enumerate(zip(measures, alloc.pieces, values))
    ]


def cmd_run_protocol(args) -> int:
    measures = _read_measures(args.measures)
    run = run_protocol(args.protocol, measures)
    rep = check_fairness(run.allocation, measures)
    flags = {
        "proportional": rep.proportional,
        "envy_free": rep.envy_free,
        "equitable": rep.equitable,
    }
    data = {
        "command": "run-protocol",
        "protocol": run.protocol,
        "players": [m.label for m in measures],
        "allocation": _allocation_data(run.allocation, measures, rep.own_values, args.digits),
        "fairness": flags,
        "guarantees": sorted(run.guarantees),
        "guarantees_hold": all(flags[g] for g in run.guarantees),
        "query_count": run.transcript.rw_query_count,
        "bss_op_count": run.transcript.bss_op_count,
        "transcript": run.transcript.dump(args.digits).splitlines(),
    }
    _emit(args, data)
    return 0


def cmd_check_fairness(args) -> int:
    measures = _read_measures(args.measures)
    cuts = _rationals(args.cuts, "--cuts") if args.cuts else []
    owners = [int(t) for t in args.owners.split(",")] if args.owners else None
    alloc = Allocation.simple([AlgebraicNumber(c) for c in cuts], owners, n=len(measures))
    alloc.validate()
    rep = check_fairness(alloc, measures)
    data = {
        "command": "check-fairness",
        "players": [m.label for m in measures],
        "allocation": _allocation_data(alloc, measures, rep.own_values, args.digits),
        "fairness": {
            "proportional": rep.proportional,
            "envy_free": rep.envy_free,
            "equitable": rep.equitable,
        },
        "witnesses": [w.describe(args.digits) for w in rep.witnesses],
    }
    _emit(args, data)
    return 0


def cmd_max_welfare(args) -> int:
    measures = _read_measures(args.measures)
    alloc = max_welfare(measures)
    values = own_values(alloc, measures)
    data = {
        "command": "max-welfare",
        "players": [m.label for m in measures],
        "allocation": _allocation_data(alloc, measures, values, args.digits),
        # welfare()'s fold over the values printed above
        "welfare": _alg_data(sum(values, AlgebraicNumber(0)), args.digits),
    }
    _emit(args, data)
    return 0


def _certificate_data(cert: Certificate, digits: int) -> dict:
    return {
        "target": cert.target,
        "equation": str(cert.equation),
        "factorization": [
            {"factor": str(f), "degree": deg} for f, deg in cert.factorization
        ],
        "real_root_factor": str(cert.real_root_factor),
        "real_root_degree": cert.real_root_factor.degree,
        "real_root_isolator": {
            "lo": str(cert.real_root_isolator.lo),
            "hi": str(cert.real_root_isolator.hi),
        },
        "tower_primes": sorted(cert.tower_prime_set),
        "galois_fact": cert.galois_fact.as_dict(),
        "verdict": cert.verdict.value,
        "narrative": [s.as_dict() for s in cert.narrative],
    }


def cmd_check_impossibility(args) -> int:
    if args.target == "equitable":
        if args.d is None:
            raise ParseError("--d is required for the equitable target", 1, 1)
        cert = check_impossibility_equitable(args.d, allow_sqrt=args.allow_sqrt)
    else:
        if args.n is None or args.p is None:
            raise ParseError("--n and --p are required for the welfare target", 1, 1)
        cert = check_impossibility_welfare(args.n, args.p)
    data = {"command": "check-impossibility", **_certificate_data(cert, args.digits)}
    _emit(args, data)
    return 0 if cert.verdict is Verdict.IMPOSSIBLE else 2


def cmd_analyze_trinomial(args) -> int:
    family = {
        "x^d-x-1": TrinomialFamily.MINUS_MINUS,
        "x^d+x+1": TrinomialFamily.PLUS_PLUS,
        "x^d+x-1": TrinomialFamily.PLUS_MINUS,
    }[args.family]
    cls = selmer_classify(args.d, family)
    data = {
        "command": "analyze-trinomial",
        "d": args.d,
        "family": family.value,
        "polynomial": str(family.poly(args.d)),
        "status": cls.status.value,
        "galois_group": cls.galois,
    }
    if cls.factor is not None:
        data["factor"] = str(cls.factor)
        data["cofactor"] = str(cls.cofactor)
    if family is TrinomialFamily.PLUS_MINUS and args.d >= 2:
        verdict = solvability_verdict(args.d)
        data["solvability"] = verdict.kind.value
        summary = {
            Solvability.NONSOLVABLE_SD: f"irreducible; Galois group S_{args.d}; not solvable by radicals",
            Solvability.REDUCIBLE_2_D2: (
                f"reducible with irreducible factor degrees {list(verdict.factor_degrees)}"
            ),
            Solvability.SOLVABLE_SMALL_DEGREE: "solvable by radicals (degree at most 4)",
        }[verdict.kind]
        data["summary"] = summary
    _emit(args, data)
    return 0


def cmd_isolate_cutpoint(args) -> int:
    measures = _read_measures(args.measures)
    if len(measures) != 2:
        raise ParseError("isolate-cutpoint needs exactly two measures", 1, 1)
    cp = isolate_equitable_cutpoint(measures[0], measures[1])
    width = _rational(args.width, "--width")
    lo, hi = cp.value.approx(width)
    data = {
        "command": "isolate-cutpoint",
        "players": [m.label for m in measures],
        "equation": str(cp.equation),
        "cutpoint": _alg_data(cp.value, args.digits),
        "degree": cp.degree,
        "refined_interval": {"lo": str(lo), "hi": str(hi), "width_bound": str(width)},
    }
    _emit(args, data)
    return 0


def cmd_verify_tower(args) -> int:
    measures = _read_measures(args.measures)
    run = run_protocol(args.protocol, measures)
    report = run.transcript.tower.verify_lemma1(args.prime)
    data = {
        "command": "verify-tower",
        "protocol": run.protocol,
        "players": [m.label for m in measures],
        "prime": args.prime,
        "steps": [
            {"step": i, "degree": deg, "kind": kind, "source": src}
            for i, deg, kind, src in report.entries
        ],
        "violations": report.violations,
        "passed": report.passed,
    }
    _emit(args, data)
    return 0 if report.passed else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one definition of the command-line grammar.  Cached: the parser
    is built on first use and shared by every later `main` call in the
    process, which only reads it."""
    parser = argparse.ArgumentParser(
        prog="cakelab",
        description="Exact-arithmetic laboratory for cake-cutting protocols "
        "over radical field extensions.",
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--digits", type=int, default=12, help="display precision")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("run-protocol", help="run a protocol and audit its guarantees")
    p.add_argument("--protocol", choices=sorted(PROTOCOLS), required=True)
    p.add_argument("--measures", required=True)
    p.set_defaults(func=cmd_run_protocol)

    p = sub.add_parser("check-fairness", help="audit an explicit allocation")
    p.add_argument("--measures", required=True)
    p.add_argument("--cuts", default="", help="comma-separated rational cut points")
    p.add_argument("--owners", default="", help="piece owners, left to right")
    p.set_defaults(func=cmd_check_fairness)

    p = sub.add_parser("max-welfare", help="welfare-maximizing allocation")
    p.add_argument("--measures", required=True)
    p.set_defaults(func=cmd_max_welfare)

    p = sub.add_parser("check-impossibility", help="verify an impossibility certificate")
    p.add_argument("target", choices=("equitable", "welfare"))
    p.add_argument("--d", type=int, help="exponent of the second measure x^d")
    p.add_argument("--n", type=int, help="number of players for the welfare target")
    p.add_argument("--p", type=int, help="prime exponent for the welfare target")
    p.add_argument("--allow-sqrt", action="store_true", help="grant mediator square roots")
    p.set_defaults(func=cmd_check_impossibility)

    p = sub.add_parser("analyze-trinomial", help="classify x^d + x - 1 and relatives")
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--family",
        choices=("x^d-x-1", "x^d+x+1", "x^d+x-1"),
        default="x^d+x-1",
    )
    p.set_defaults(func=cmd_analyze_trinomial)

    p = sub.add_parser("isolate-cutpoint", help="isolate the equitable cutpoint")
    p.add_argument("--measures", required=True)
    p.add_argument("--width", default="1/1000000000000", help="target interval width")
    p.set_defaults(func=cmd_isolate_cutpoint)

    p = sub.add_parser("verify-tower", help="run a protocol and audit tower degrees")
    p.add_argument("--measures", required=True)
    p.add_argument("--protocol", choices=sorted(PROTOCOLS), required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=cmd_verify_tower)

    return parser


def main(argv=None) -> int:
    cap = os.environ.get(DEGREE_CAP_ENV)
    if cap:
        try:
            cap = int(cap)
        except ValueError:
            print(f"error: {DEGREE_CAP_ENV} must be an integer", file=sys.stderr)
            return 1
        try:
            set_degree_cap(cap)
        except ValueError:
            print(f"error: {DEGREE_CAP_ENV} must be at least 1", file=sys.stderr)
            return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UncoveredCaseError as e:
        print(f"uncovered case: {e}", file=sys.stderr)
        return 3
    except (CakelabError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
