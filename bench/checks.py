"""Independent answer checks, in plain integers and Fractions.

Nothing here imports cakelab: every verdict the benchmark accepts is
re-derived from the generated inputs and the printed or returned answer.
check_* functions return None when the answer holds and a one-line reason
when it does not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import decimal_digits, iroot, peval

# -- polynomials as coefficient lists -------------------------------------------------


def parse_poly(text):
    """Parse format_poly output ("3*x^2 - x + 1/2") into coefficients."""
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        if "*" in body:
            coef, var = body.split("*")
        elif body.startswith("x"):
            coef, var = "1", body
        else:
            coef, var = body, ""
        if var and not re.fullmatch(r"x(\^\d+)?", var):
            raise ValueError(f"bad term {term!r} in {text!r}")
        k = int(var[2:]) if var.startswith("x^") else len(var)
        coeffs[k] = coeffs.get(k, 0) + sign * Fraction(coef)
    out = [Fraction(0)] * (max(coeffs, default=0) + 1)
    for k, c in coeffs.items():
        out[k] += c
    return _trim(out)


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def proportional(a, b):
    """a == c*b for a nonzero rational c."""
    a, b = _trim(a), _trim(b)
    if len(a) != len(b) or b[-1] == 0:
        return False
    c = Fraction(a[-1]) / b[-1]
    return c != 0 and all(x == c * y for x, y in zip(a, b))


def derivative(c):
    return _trim([k * c[k] for k in range(1, len(c))] or [0])


def trinomial(d, family):
    a, b = {"x^d-x-1": (-1, -1), "x^d+x+1": (1, 1), "x^d+x-1": (1, -1)}[family]
    c = [Fraction(0)] * (d + 1)
    c[0], c[1], c[d] = Fraction(b), Fraction(a), Fraction(1)
    return c


# -- enclosures ---------------------------------------------------------------------


def iroot_bounds(r, d, bits):
    """lo <= r^(1/d) <= hi with hi - lo <= 2^-bits, for rational r > 0."""
    n, m = r.numerator, r.denominator
    # r^(1/d) = (n * m^(d-1))^(1/d) / m
    scaled = n * m ** (d - 1) << (d * bits)
    k = iroot(scaled, d)
    den = m << bits
    return Fraction(k, den), Fraction(k + 1, den)


def _brackets(g, lo, hi):
    """The increasing function g changes sign across [lo, hi]."""
    return g(lo) <= 0 <= g(hi)


def _parse_decimal(s, digits):
    """Truncated decimal "0.1234…" -> the interval of values it denotes."""
    exact = not s.endswith("…")
    body = s.rstrip("…")
    v = Fraction(body)
    if exact:
        return v, v
    frac = body.partition(".")[2]
    if len(frac) != digits:
        raise ValueError(f"expected {digits} digits, got {s!r}")
    ulp = Fraction(1, 10**digits)
    return (v, v + ulp) if v >= 0 else (v - ulp, v)


def check_query(spec, out):
    cdf, x, a = spec["cdf"], spec["x"], spec["a"]
    lo, hi = (Fraction(s) for s in out["enclosure"])
    target = peval(cdf, x) + a
    if not lo <= hi or hi - lo > Fraction(1, 1 << 64):
        return f"enclosure [{lo}, {hi}] too wide"
    if not _brackets(lambda t: peval(cdf, t) - target, lo, hi):
        return "enclosure does not bracket f(t) = f(x) + a"
    return None


def check_refine(spec, out):
    bits = spec["bits"]
    if "enclosure" in out:
        lo, hi = (Fraction(s) for s in out["enclosure"])
        if not lo <= hi or hi - lo > Fraction(1, 1 << bits):
            return f"enclosure wider than 2^-{bits}"
    else:
        lo, hi = _parse_decimal(out["decimal"], decimal_digits(bits))
    value = spec["value"]
    if value == "polyroot":
        cdf, a = spec["cdf"], spec["a"]
        ok = _brackets(lambda t: peval(cdf, t) - a, lo, hi)
    elif value == "equitable":
        eq = padd(list(spec["cdf"]), [0] * spec["d"] + [1])
        ok = _brackets(lambda t: peval(eq, t) - 1, lo, hi)
    elif value == "cutroot":
        # target = f(sqrt r) + a; bound sqrt r independently and tighten
        # until the bounds separate f(lo) and f(hi) from the target
        cdf, a = spec["cdf"], spec["a"]
        ok = False
        for extra in (64, 256, 1024):
            xl, xh = iroot_bounds(spec["r"], 2, bits + extra)
            if peval(cdf, lo) <= peval(cdf, xl) + a and peval(cdf, xh) + a <= peval(cdf, hi):
                ok = True
                break
    else:
        ok = False
        for extra in (64, 256, 1024):
            sl = sh = Fraction(0)
            for r, d in spec["terms"]:
                tl, th = iroot_bounds(r, d, bits + extra)
                sl, sh = sl + tl, sh + th
            if lo <= sl and sh <= hi:
                ok = True
                break
    return None if ok else f"{value} answer [{float(lo)}, {float(hi)}] does not enclose the value"


# -- cli reports ----------------------------------------------------------------------


def _text_fields(text):
    """Column-0 "key: value" lines and the indented block under "key:"."""
    fields, blocks, current = {}, {}, None
    for line in text.splitlines():
        if line and not line.startswith(" "):
            key, _, val = line.partition(":")
            val = val.strip()
            if val:
                fields[key] = val
                current = None
            else:
                current = blocks.setdefault(key, [])
        elif current is not None:
            current.append(line)
    return fields, blocks


def _grab(lines, pattern):
    rx = re.compile(pattern)
    return [m.group(1) for m in map(rx.match, lines) if m]


def _bool(v):
    return v is True or v == "True"


def normalize_report(stdout, structured):
    """The fields the checks read, from either output format."""
    if structured:
        d = json.loads(stdout)
        if d.get("format_version") != 1:
            raise ValueError("missing format_version")
        rep = dict(d)
        rep["factors"] = [f["factor"] for f in d.get("factorization", [])]
        rep["degrees"] = [s["degree"] for s in d.get("steps", [])]
        return rep
    fields, blocks = _text_fields(stdout)
    rep = dict(fields)
    rep["factors"] = _grab(blocks.get("factorization", []), r"^  - factor: (.*)$")
    rep["degrees"] = [int(v) for v in _grab(blocks.get("steps", []), r"^    degree: (\d+)$")]
    rep["violations"] = [int(v) for v in _grab(blocks.get("violations", []), r"^  - (\d+)$")]
    if "fairness" in blocks:
        rep["fairness"] = {k: _grab(blocks["fairness"], rf"^  {k}: (\w+)$")[0] for k in FLAGS}
    if "welfare" in blocks:
        rep["welfare"] = {"decimal": _grab(blocks["welfare"], r"^  decimal: (.*)$")[0]}
    if "refined_interval" in blocks:
        iv = blocks["refined_interval"]
        rep["refined_interval"] = {k: _grab(iv, rf"^  {k}: (.*)$")[0] for k in ("lo", "hi", "width_bound")}
    return rep


FLAGS = ("proportional", "envy_free", "equitable")

CAP_CLASSES = (
    ("FactorSearchBudget", "search budget"),
    ("DegreeCapExceeded", "exceeds the factorization cap"),
    ("MembershipUndecidable", "membership"),
)


def classify_cli(out):
    """Undecided class of a failed command from its diagnostic, else None."""
    if out["exit"] in (0, 2, 3):
        return None
    for cls, needle in CAP_CLASSES:
        if needle in out["stderr"]:
            return cls
    return None


def _values(measures, pieces_by_owner):
    return [[sum((peval(m, hi) - peval(m, lo) for lo, hi in pieces), Fraction(0)) for pieces in pieces_by_owner] for m in measures]


def _fairness_flags(spec):
    measures, cuts, owners = spec["measures"], spec["cuts"], spec["owners"]
    bounds = [Fraction(0)] + list(cuts) + [Fraction(1)]
    per = [[] for _ in measures]
    for k, o in enumerate(owners):
        per[o].append((bounds[k], bounds[k + 1]))
    vm = _values(measures, per)
    n = len(measures)
    return {
        "proportional": all(vm[i][i] >= Fraction(1, n) for i in range(n)),
        "envy_free": all(vm[i][i] >= vm[i][j] for i in range(n) for j in range(n)),
        "equitable": all(vm[i][i] == vm[0][0] for i in range(n)),
    }


def _welfare_bounds(measures, grid=256):
    """Lower bound: best single-cut allocation on the grid.  Upper bound:
    the integral of the pointwise largest density, each density being
    nondecreasing on [0, 1] (nonnegative coefficients)."""
    lower = Fraction(1)
    for c in range(1, grid):
        t = Fraction(c, grid)
        for i, mi in enumerate(measures):
            for j, mj in enumerate(measures):
                if i != j:
                    lower = max(lower, peval(mi, t) + 1 - peval(mj, t))
    dens = [derivative(list(m)) for m in measures]
    upper = sum(max(peval(g, Fraction(c, grid)) for g in dens) for c in range(1, grid + 1)) / grid
    return lower, upper


def check_cli(spec, out):
    """None when the report holds; a reason otherwise."""
    argv = spec["argv"]
    sub = spec["sub"]
    code = out["exit"]
    structured = argv[argv.index("--format") + 1] == "structured"
    if code not in (0, 2):
        return f"exit {code}: {out['stderr'].strip()[:200]}"
    rep = normalize_report(out["stdout"], structured)
    if rep.get("command") != sub:
        return f"report names command {rep.get('command')!r}"
    if sub == "check-impossibility":
        eq = parse_poly(rep["equation"])
        prod = [Fraction(1)]
        for f in rep["factors"]:
            prod = pmul(prod, parse_poly(f))
        if not proportional(eq, prod):
            return "factor product differs from the equation"
        if "d" in spec:
            d = spec["d"]
            want = ([-1, 2] if d == 1 else trinomial(d, "x^d+x-1"))
            if not proportional(eq, want):
                return "wrong equitable equation"
            verdict = "NO-OBSTRUCTION-FOUND" if d <= 4 else "IMPOSSIBLE"
        else:
            p = spec["p"]
            if not proportional(eq, [-1] + [0] * (p - 2) + [p]):
                return "wrong stationarity equation"
            verdict = "IMPOSSIBLE"
        if rep.get("verdict") != verdict or code != (0 if verdict == "IMPOSSIBLE" else 2):
            return f"verdict {rep.get('verdict')} exit {code}, expected {verdict}"
        return None
    if sub == "analyze-trinomial":
        d, fam = spec["d"], spec["family"]
        poly = trinomial(d, fam)
        if parse_poly(rep["polynomial"]) != poly:
            return "wrong trinomial"
        reducible = {"x^d-x-1": False, "x^d+x+1": d % 3 == 2, "x^d+x-1": d % 6 == 5}[fam]
        if (rep["status"] != "irreducible") != reducible:
            return f"status {rep['status']} for d={d} {fam}"
        if reducible and pmul(parse_poly(rep["factor"]), parse_poly(rep["cofactor"])) != poly:
            return "factor * cofactor differs from the trinomial"
        if fam == "x^d+x-1":
            want = (
                "solvable-small-degree"
                if d <= 4
                else ("reducible-2-and-(d-2)" if reducible else "nonsolvable-S_d")
            )
            if rep.get("solvability") != want:
                return f"solvability {rep.get('solvability')} for d={d}"
        return None if code == 0 else f"exit {code}"
    if sub == "run-protocol":
        if not _bool(rep.get("guarantees_hold")) or code != 0:
            return "protocol guarantees do not hold"
        return None
    if sub == "verify-tower":
        prime = int(argv[argv.index("--prime") + 1])
        bad = [i for i, deg in enumerate(rep["degrees"]) if deg not in (1, prime)]
        passed = _bool(rep.get("passed"))
        if [int(v) for v in rep["violations"]] != bad or passed != (not bad) or code != (0 if passed else 2):
            return "tower audit inconsistent with its step degrees"
        return None
    if sub == "check-fairness":
        want = _fairness_flags(spec)
        got = {k: _bool(v) for k, v in rep["fairness"].items()}
        return None if got == want and code == 0 else f"fairness flags {got}, expected {want}"
    if sub == "max-welfare":
        lo, hi = _parse_decimal(rep["welfare"]["decimal"], 12)
        lower, upper = _welfare_bounds(spec["measures"])
        if hi < lower or lo > upper or code != 0:
            return f"welfare {rep['welfare']['decimal']} outside [{float(lower)}, {float(upper)}]"
        return None
    if sub == "isolate-cutpoint":
        iv = rep["refined_interval"]
        lo, hi, width = (Fraction(iv[k]) for k in ("lo", "hi", "width_bound"))
        f1, f2 = spec["measures"]
        eq = padd(list(f1), list(f2))
        if hi - lo > width or not _brackets(lambda t: peval(eq, t) - 1, lo, hi) or code != 0:
            return "refined interval misses the equitable cutpoint"
        return None
    return f"unknown subcommand {sub}"
