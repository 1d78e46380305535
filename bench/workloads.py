"""Seeded inputs for the three workloads.

Generation is pure Python: a workload turns (name, seed) into a stream of
item specs built from plain ints and Fractions, the same stream in the
worker, which runs the items through cakelab's public entry points, and in
the checker, which verifies the answers without cakelab.

Each spec is a dict with a "kind" label, the inputs, and whatever
checks.py needs to verify the answer.  Discrete parameters (families,
exponents, degrees, commands) come from seeded cycles, so every window of
a run keeps the designed proportions and seeds differ in the rest.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

WORKLOADS = ("queries", "cli-mix", "refine")

# Polynomials travel as coefficient lists, constant term first.
X = (0, 1)


def mono(k):
    return tuple([0] * k + [1])


def mixture(a, i, j):
    """a*x^i + (1-a)*x^j, a strictly increasing CDF on [0, 1]."""
    c = [Fraction(0)] * (max(i, j) + 1)
    c[i] += a
    c[j] += 1 - a
    return tuple(c)


def poly_text(coeffs):
    """Measures-file syntax for a coefficient list."""
    terms = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if c == 1 and var:
            terms.append(var)
        elif var:
            terms.append(f"{c}*{var}")
        else:
            terms.append(str(c))
    return "+".join(terms)


def _cycle(rng, items):
    """Endless stream of seeded permutations of items: every window of
    len(items) consecutive draws is close to the full set, so a run cut at
    any point keeps the designed mix."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


# -- queries --------------------------------------------------------------------

# test_08's measure families: x, x^2..x^6, x/2+x^2/2, x/2+x^5/2
QUERY_FAMILIES = (
    ("x", X),
    ("x^2", mono(2)),
    ("x^3", mono(3)),
    ("x^4", mono(4)),
    ("x^5", mono(5)),
    ("x^6", mono(6)),
    ("x/2+x^2/2", mixture(Fraction(1, 2), 1, 2)),
    ("x/2+x^5/2", mixture(Fraction(1, 2), 1, 5)),
)
QUERY_GRID = 1000  # x on a 1/1000 grid, amount a k/1000 share of the room


def query_specs(rng):
    for name, cdf in _cycle(rng, QUERY_FAMILIES):
        x = Fraction(rng.randint(0, QUERY_GRID - 1), QUERY_GRID)
        room = 1 - peval(cdf, x)
        a = room * Fraction(rng.randint(1, QUERY_GRID), QUERY_GRID)
        yield {"kind": f"cut-eval {name}", "cdf": cdf, "x": x, "a": a}


# -- refine ---------------------------------------------------------------------

# enclosure precisions 2^-k; decimal items ask for the digits giving the
# same width.  The top level sits in the superlinear regime of bisection
# over Fractions.
REFINE_BITS = (64, 256, 512, 1024)
REFINE_VALUES = ("polyroot", "cutroot", "equitable", "radical-sum")
REFINE_OPS = ("approx", "decimal")


def decimal_digits(bits):
    return (bits * 30103) // 100000  # floor(bits * log10(2))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
EXPONENT_PAIRS = tuple((i, j) for i in range(1, 7) for j in range(i + 1, 7))


def _random_mixture(rng, pair, weights=None):
    """a*x^i + (1-a)*x^j with a = k/32, odd k, from the weights cycle when
    one is given."""
    k = next(weights) if weights else rng.randrange(1, 32, 2)
    return mixture(Fraction(k, 32), *pair)


def _nonsquare(rng, lo, hi):
    while True:
        n = rng.randint(lo, hi)
        if iroot(n, 2) ** 2 != n:
            return n


def _prime_ratio(rng):
    p = rng.choice(PRIMES)
    while True:
        q = rng.randint(2, 97)
        if q % p:
            return Fraction(p, q)


# Mixture exponents per refine value, cycled four at a time; equitable
# cutpoints pair each with a degree d, so f + x^d - 1 has degree 3..6.  An
# odd exponent keeps a cut root's target f(sqrt r) + a irrational.
REFINE_PAIRS = {
    "polyroot": ((1, 2), (1, 4), (2, 5), (3, 6)),
    "cutroot": ((1, 2), (1, 3), (2, 3), (3, 4)),
    "equitable": (((1, 2), 3), ((1, 4), 4), ((2, 5), 5), ((3, 6), 6)),
}


def refine_specs(rng):
    shapes = list(itertools.product(REFINE_VALUES, REFINE_OPS, REFINE_BITS))
    # Every shape draws exponents from a cycle of its own, so a run of whole
    # cycles sees the same polynomial degrees at each precision.  Cut roots
    # stay at degree <= 4: Session.cut adjoins the answer to the tower, whose
    # minimal polynomial has degree 2*deg f, and from degree 5 on that
    # factorization, not refinement, takes the time.
    pairs = {s: _cycle(rng, REFINE_PAIRS[s[0]]) for s in shapes if s[0] in REFINE_PAIRS}
    for shape in _cycle(rng, shapes):
        value, op, bits = shape
        spec = {"kind": f"{value} {op} 2^-{bits}", "value": value, "op": op, "bits": bits}
        if value == "polyroot":
            # cut answer of a mixture CDF from 0: a root of f(t) - a
            spec["cdf"] = _random_mixture(rng, next(pairs[shape]))
            spec["a"] = Fraction(rng.randint(1, 999), 1000)
        elif value == "cutroot":
            # cut from the irrational point sqrt(r): target f(sqrt r) + a
            spec["cdf"] = _random_mixture(rng, next(pairs[shape]))
            spec["r"] = Fraction(_nonsquare(rng, 2, 99), 400)  # sqrt(r) <= 1/2
            spec["a"] = Fraction(rng.randint(1, 99), 1000)
        elif value == "equitable":
            # equitable cutpoint of a mixture against x^d
            pair, spec["d"] = next(pairs[shape])
            spec["cdf"] = _random_mixture(rng, pair)
        else:
            # r1^(1/d1) + r2^(1/d2); a prime numerator coprime to the
            # denominator keeps each radical irrational
            spec["terms"] = [(_prime_ratio(rng), rng.randint(2, 7)) for _ in range(2)]
        yield spec


# fixed first item: the d = 5 equitable cutpoint of (x, x^5) to 2^-1024
REFINE_FIXED = (
    {
        "kind": "fixed equitable-d5 approx 2^-1024",
        "value": "equitable",
        "op": "approx",
        "bits": 1024,
        "cdf": X,
        "d": 5,
    },
)


# -- cli-mix --------------------------------------------------------------------

# One round of the mix: (subcommand, variant, players) slots.  The seed
# fills in measures, cut points and degrees; the slots fix the proportions.
CLI_SLOTS = (
    [("run-protocol", "cut-and-choose", 2)] * 2
    + [("run-protocol", "even-paz", 2), ("run-protocol", "even-paz", 3)]
    + [("run-protocol", "last-diminisher", 3)] * 2
    + [("run-protocol", "selfridge-conway", 3)] * 2
    + [("verify-tower", "cut-and-choose", 2)] * 2
    + [("verify-tower", "even-paz", 2)] * 2
    + [("check-fairness", None, 2)] * 3
    + [("check-fairness", None, 3)] * 2
    + [("max-welfare", None, 2)] * 3
    + [("max-welfare", None, 3)] * 2
    + [("isolate-cutpoint", None, 2)] * 5
    + [("analyze-trinomial", None, 0)] * 6
    + [("check-impossibility", "equitable", 0)] * 4
    + [("check-impossibility", "welfare", 0)] * 2
)

TRINOMIALS = tuple((d, f) for d in range(2, 31) for f in ("x^d-x-1", "x^d+x+1", "x^d+x-1"))
EQUITABLE_DEGREES = tuple(range(1, 25))
WELFARE_CASES = tuple((n, p) for n in (2, 3, 4) for p in (3, 5, 7, 11, 13))
CLI_ROUNDS = 16  # rounds of CLI_SLOTS in a run
# The measures files are the same for every seed, one per measure slot of
# every round, so each run executes each file once and in the same kind of
# command.  With weights drawn per seed, the p90 of decided times swung by
# a sixth between seeds, following which max-welfare inputs a seed drew.
MEASURES_CORPUS_SEED = "cli-mix measures"

# Fixed items, run once at the start of every cli-mix run on a cold
# process.  The first four are the degree-wall probes of ROADMAP item 2;
# the last is the max-welfare case whose report spends minutes in
# rational_roots before it fails at the cap.
CLI_FIXED = (
    ("probe-ld-x-x2-x3-x5", ["run-protocol", "--protocol", "last-diminisher"], (X, mono(2), mono(3), mono(5))),
    (
        "probe-sc-mixed",
        ["run-protocol", "--protocol", "selfridge-conway"],
        (mixture(Fraction(1, 2), 1, 2), mono(3), mono(2)),
    ),
    ("probe-cc-x13", ["run-protocol", "--protocol", "cut-and-choose"], (mixture(Fraction(1, 2), 1, 13), X)),
    ("probe-equitable-d13", ["check-impossibility", "equitable", "--d", "13"], None),
    (
        "probe-max-welfare-120s",
        ["max-welfare"],
        (mono(5), mixture(Fraction(7, 8), 3, 4), mixture(Fraction(7, 8), 1, 6)),
    ),
)


def _measure_pool(rng, n, count):
    """count measures files of n players.  Every file has a two-term
    mixture, every fourth a second one, the rest monomials.  Exponent pairs,
    weights, monomial degrees and the mixture's seat come from cycles."""
    pairs = _cycle(rng, EXPONENT_PAIRS)
    weights = _cycle(rng, range(1, 32, 2))
    degrees = _cycle(rng, range(1, 7))
    pool = []
    for k in range(count):
        players = [_random_mixture(rng, next(pairs), weights)]
        players += [
            _random_mixture(rng, next(pairs), weights) if k % 4 == 3 and s == 0 else mono(next(degrees))
            for s in range(n - 1)
        ]
        seat = k % n
        pool.append(tuple(players[seat:] + players[:seat]))
    return pool


class CliInputs:
    """Measures files written at setup plus the seeded command stream."""

    def __init__(self, rng, workdir, write=True):
        self.rng = rng
        self.workdir = workdir
        self.write = write
        if write:
            os.makedirs(workdir, exist_ok=True)
        self.files = {}  # path -> measures (tuple of coefficient lists)
        self.corpus = {}  # measure slot -> its files
        corpus_rng = random.Random(MEASURES_CORPUS_SEED)
        for slot in dict.fromkeys(s for s in CLI_SLOTS if s[2]):
            sub, variant, n = slot
            count = CLI_SLOTS.count(slot) * CLI_ROUNDS
            self.corpus[slot] = [
                self._write(f"{sub}-{variant or 'any'}-{n}-{k:02d}.txt", measures)
                for k, measures in enumerate(_measure_pool(corpus_rng, n, count))
            ]

    def _write(self, fname, measures):
        path = os.path.join(self.workdir, fname)
        if self.write:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"p{i + 1}: {poly_text(c)}\n" for i, c in enumerate(measures)))
        self.files[path] = measures
        return path

    def specs(self):
        rng = self.rng
        for name, argv, measures in CLI_FIXED:
            spec = {"kind": f"fixed {name}", "sub": argv[0], "argv": ["--format", "structured"] + argv}
            if measures is not None:
                spec["argv"] += ["--measures", self._write(f"{name}.txt", measures)]
                spec["measures"] = measures
            if "--d" in argv:
                spec["d"] = int(argv[argv.index("--d") + 1])
            yield spec
        files = {slot: _cycle(rng, paths) for slot, paths in self.corpus.items()}
        equitable = _cycle(rng, EQUITABLE_DEGREES)
        welfare_cases = _cycle(rng, WELFARE_CASES)
        trinomials = _cycle(rng, TRINOMIALS)
        formats = itertools.cycle(("text", "structured"))
        for sub, variant, n in _cycle(rng, CLI_SLOTS):
            kind = " ".join([sub] + ([variant] if variant else []) + ([f"n={n}"] if n else []))
            spec = {"kind": kind, "sub": sub}
            argv = ["--format", next(formats), sub]
            if n:
                path = next(files[sub, variant, n])
                spec["measures"] = self.files[path]
                argv += ["--measures", path]
            if variant in ("cut-and-choose", "even-paz", "last-diminisher", "selfridge-conway"):
                argv += ["--protocol", variant]
            if sub == "verify-tower":
                argv += ["--prime", str(rng.choice((2, 3, 5)))]
            elif sub == "check-fairness":
                cuts = sorted(rng.sample(range(1, 64), n - 1))
                owners = rng.sample(range(n), n)
                spec["cuts"] = [Fraction(c, 64) for c in cuts]
                spec["owners"] = owners
                argv += ["--cuts", ",".join(f"{c}/64" for c in cuts), "--owners", ",".join(map(str, owners))]
            elif sub == "isolate-cutpoint":
                argv += ["--width", str(Fraction(1, 1 << rng.choice((20, 40, 80))))]
            elif sub == "analyze-trinomial":
                spec["d"], spec["family"] = next(trinomials)
                argv += ["--d", str(spec["d"]), "--family", spec["family"]]
            elif variant == "equitable":
                spec["d"] = next(equitable)
                argv += ["equitable", "--d", str(spec["d"])]
            elif variant == "welfare":
                spec["n"], spec["p"] = next(welfare_cases)
                argv += ["welfare", "--n", str(spec["n"]), "--p", str(spec["p"])]
            spec["argv"] = argv
            yield spec


def spec_stream(workload, seed, workdir, write=True):
    """The workload's item specs for a seed; the worker and the checker
    draw the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "queries":
        return query_specs(rng)
    if workload == "refine":
        return itertools.chain(REFINE_FIXED, refine_specs(rng))
    return CliInputs(rng, os.path.join(workdir, "measures"), write).specs()


# -- plain-integer helpers shared with the checker ---------------------------------


def peval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def iroot(n, d):
    """floor(n ** (1/d)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + d - 1) // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y
