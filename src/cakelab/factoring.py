"""Factorization of rational polynomials into irreducibles.

Pipeline, cheapest certificate first: content extraction, Yun's
squarefree decomposition, rational-root extraction, Eisenstein (direct
and on the reversal, at primes found without factoring), and a
factor-degree sieve: distinct-degree factorization modulo small primes
bounds the degrees any rational factor could have (subset sums of the
modular factor-degree patterns), often proving irreducibility outright.
With the rational roots gone only degrees 2..n-2 matter, and the sieve
stops at the first usable prime after which none survives, else after
four usable primes (von zur Gathen & Gerhard, Modern Computer Algebra,
§14).  Each prime's distinct-degree factorization comes from the one
cache over monic images mod q (`polys._modp_ddf`), whose entries the
rational-root search creates too, computing only the degrees it reads: a
player's cut polynomials F - c share their images.  What survives
is factored by Zassenhaus's algorithm at the sieve prime p with the
fewest modular factors: Cantor-Zassenhaus splitting of that prime's
distinct-degree parts, Hensel lifting until p^k exceeds twice the leading
coefficient times a Mignotte bound, and recombination of the lifted
factors in subsets of increasing size, skipping degrees the sieve rules
out (Zassenhaus 1969; Cantor & Zassenhaus 1981; von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 14-15).  The pipeline runs on primitive
integer coefficient lists from the content split on, and its arithmetic
mod p and p^k on the list kernel of `polys`.  All factors are returned
primitive over the integers with positive leading coefficient, so
comparisons in tests are canonical.

This module owns the degree cap (default 48), the one limit on every
factorization, elimination and certificate in the package: inputs past
the cap raise DegreeCapExceeded rather than running forever, and
recombination carries a candidate budget.  `set_degree_cap` changes it
process-wide, and callers that build a polynomial before factoring it call
`check_degree` first, so they fail before the build.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CakelabError, DegreeCapExceeded, ZeroPolynomialError
from .ints import SMALL_PRIMES, coprime_part, is_probable_prime, primes
from .polys import (
    DDF,
    Poly,
    _drop_content,
    _exact_quotient,
    _fp_add,
    _fp_divmod,
    _fp_edf,
    _fp_mul,
    _fp_sub,
    _fp_xgcd,
    _int_mul,
    _int_squarefree_decomposition,
    _modp_ddf,
    _pattern,
    _sieve_degrees,
    rational_roots,
)

DEFAULT_DEGREE_CAP = 48

_degree_cap = DEFAULT_DEGREE_CAP


def set_degree_cap(cap: int) -> None:
    """Set the degree cap (process-wide, set at startup); it must be at
    least 1."""
    global _degree_cap
    cap = int(cap)
    if cap < 1:
        raise ValueError(f"the degree cap must be at least 1, not {cap}")
    _degree_cap = cap


def degree_cap() -> int:
    return _degree_cap


def check_degree(n: int, context: str) -> None:
    """Raise DegreeCapExceeded when degree n is past the cap."""
    if n > _degree_cap:
        raise DegreeCapExceeded(n, _degree_cap, context)


# Recombination candidates tried per polynomial before giving up.  Below
# the default cap there are at most 48 modular factors, whose subsets of up
# to half their number are about 1.6 * 10^14, so the budget is what bounds
# the worst case.  Recombination skips the degrees the sieve rules out:
# random products up to degree 40 and the Swinnerton-Dyer polynomials each
# needed fewer than two thousand candidates.
RECOMBINATION_BUDGET = 200_000


class Eisenstein(enum.Enum):
    IRREDUCIBLE_CERTIFIED = "irreducible-certified"
    INCONCLUSIVE = "inconclusive"


def _eisenstein_int(coeffs: list[int], q: int) -> bool:
    if len(coeffs) < 2:
        return False
    if coeffs[-1] % q == 0:
        return False
    if any(c % q != 0 for c in coeffs[:-1]):
        return False
    return coeffs[0] % (q * q) != 0


def eisenstein(p: Poly, q: int, try_reversal: bool = False) -> Eisenstein:
    """Eisenstein's criterion at the prime q, optionally on the reversal
    T^deg * p(1/T).  The reversal applies only when p(0) != 0, since it
    must preserve degree and irreducibility."""
    if not is_probable_prime(q):
        raise ValueError(f"{q} is not prime")
    coeffs = p.int_coeffs()
    if _eisenstein_int(coeffs, q):
        return Eisenstein.IRREDUCIBLE_CERTIFIED
    if try_reversal and coeffs and coeffs[0] != 0:
        if _eisenstein_int(list(reversed(coeffs)), q):
            return Eisenstein.IRREDUCIBLE_CERTIFIED
    return Eisenstein.INCONCLUSIVE


def _eisenstein_witness(coeffs: list[int]) -> Optional[int]:
    """A prime at which the integer polynomial with these coefficients,
    constant first, or its reversal is Eisenstein; None when none is found.
    A witness divides the gcd g of the non-leading coefficients, so the
    small primes dividing g are tried, and the part of g coprime to them
    when it is prime: finding the primes of a composite part would mean
    factoring it.  A reversal whose leading coefficient is 0 is Eisenstein
    nowhere."""
    for cs in (coeffs, coeffs[::-1]):
        g = math.gcd(*cs[:-1])
        if g < 2:
            continue
        rest = coprime_part(g, math.prod(SMALL_PRIMES))
        candidates = [q for q in SMALL_PRIMES if g % q == 0]
        if is_probable_prime(rest):
            candidates.append(rest)
        for q in candidates:
            if _eisenstein_int(cs, q):
                return q
    return None


# -- the factor-degree sieve ---------------------------------------------------


def _degree_sieve(f: list[int]) -> tuple[set[int], int, DDF]:
    """Degrees in 2..n-2 that a proper rational factor of the integer
    polynomial f of degree n could have, as constrained by factor-degree
    patterns modulo up to four usable primes (`polys._sieve_degrees`), with
    the usable prime of fewest modular factors and its distinct-degree
    factorization.  f must be squarefree, so that only finitely many primes
    are unusable, and have no rational root, so that no factor has degree 1
    or n-1.  The sieve stops at the first usable prime after which no
    degree survives: an empty set proves irreducibility.  Primes are tried
    in ascending order while neither has happened."""
    n = len(f) - 1
    read: list[tuple[int, int, DDF]] = []  # (factor count, q, ddf) per usable prime

    def patterns():
        for q in primes():
            ddf = _modp_ddf(f, q)
            if ddf is not None:
                pattern = _pattern(ddf)
                read.append((len(pattern), q, ddf))
                yield q, pattern

    allowed, _ = _sieve_degrees(patterns(), set(range(2, n - 1)), 4)
    _, q, ddf = min(read, key=lambda r: r[0])
    return allowed, q, ddf


# -- Zassenhaus: Hensel lifting and recombination ------------------------------


class FactorSearchBudget(DegreeCapExceeded):
    """Recombination of modular factors would exceed its candidate budget."""

    def __init__(self, budget: int, context: str = ""):
        self.needed = budget
        self.cap = budget
        self.context = context
        msg = f"recombination search budget of {budget} candidates exhausted"
        if context:
            msg += f" ({context})"
        CakelabError.__init__(self, msg)


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo some m0 with m0 | m | m0^2,
    h monic, to the same four equations modulo m with g and h unchanged
    modulo m0 (von zur Gathen & Gerhard, Algorithm 15.10)."""
    e = _fp_sub(f, _fp_mul(g, h, m), m)
    q, r = _fp_divmod(_fp_mul(s, e, m), h, m)
    g = _fp_add(g, _fp_add(_fp_mul(t, e, m), _fp_mul(q, g, m), m), m)
    h = _fp_add(h, r, m)
    b = _fp_sub(_fp_add(_fp_mul(s, g, m), _fp_mul(t, h, m), m), [1], m)
    c, d = _fp_divmod(_fp_mul(s, b, m), h, m)
    s = _fp_sub(s, d, m)
    t = _fp_sub(t, _fp_add(_fp_mul(t, b, m), _fp_mul(c, g, m), m), m)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic lifts modulo p^k of the monic, pairwise coprime factors with
    f = lc(f) * prod(factors) modulo p, in the same order; lc(f) must be
    a unit modulo p.  The factors are split in halves, each product pair
    is lifted quadratically, then each half recursively."""
    m = p**k
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _fp_mul(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _fp_mul(h, u, p)
    s, t = _fp_xgcd(g, h, p)
    mod = p
    while mod < m:
        mod = min(mod * mod, m)
        g, h, s, t = _hensel_step(f, g, h, s, t, mod)
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _subsets(r: int, s: int):
    """Index subsets of size s from range(r); when 2s = r, only those
    holding 0, since the others are complements of these."""
    if 2 * s == r:
        return ((0, *c) for c in itertools.combinations(range(1, r), s - 1))
    return itertools.combinations(range(r), s)


def _recombine(f: list[int], lifted: list[list[int]], m: int, allowed: set[int]) -> list[list[int]]:
    """Irreducible factors of the primitive f, whose monic modular factors
    `lifted` are known modulo m > 2 * |lc(f)| * B, B bounding the
    coefficients of every factor of f.  A factor of f is lc(f) times the
    product of a subset of `lifted`, read in the symmetric range; subsets
    are tried by increasing size, and only when their degree is in
    `allowed`.  f(0) must be nonzero and lc(f) positive."""
    out = []
    s = 1
    tried = 0
    while 2 * s <= len(lifted):
        lc = f[-1]
        for subset in _subsets(len(lifted), s):
            if sum(len(lifted[i]) - 1 for i in subset) not in allowed:
                continue
            tried += 1
            if tried > RECOMBINATION_BUDGET:
                raise FactorSearchBudget(
                    RECOMBINATION_BUDGET, f"degree-{len(f) - 1} recombination"
                )
            # the constant term of a factor divides lc(f) * f(0)
            c0 = lc
            for i in subset:
                c0 = c0 * lifted[i][0] % m
            if c0 > m // 2:
                c0 -= m
            if c0 == 0 or lc * f[0] % c0:
                continue
            g = [lc]
            for i in subset:
                g = _fp_mul(g, lifted[i], m)
            # lc(g) = lc(f) > 0, as m > 2 * lc(f)
            g = _drop_content([c - m if c > m // 2 else c for c in g])
            quot = _exact_quotient(f, g)
            if quot is not None:
                out.append(g)
                f = quot
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    out.append(f)
    return out


def _zassenhaus(f: list[int], p: int, ddf: DDF, allowed: set[int]) -> list[list[int]]:
    """Irreducible factors of a primitive f, squarefree modulo p with f(0)
    nonzero, from its distinct-degree factorization `ddf` modulo p."""
    rng = random.Random(0)
    modular = [u for k, g in ddf for u in _fp_edf(g, k, p, rng)]
    n = len(f) - 1
    # Landau-Mignotte: a factor of degree d < n has coefficients of
    # absolute value at most 2^d * ||f||_2
    bound = (math.isqrt(sum(c * c for c in f)) + 1) << (n - 1)
    k = 1
    while p**k <= 2 * abs(f[-1]) * bound:
        k += 1
    return _recombine(f, _hensel_lift(f, modular, p, k), p**k, allowed)


@dataclass(frozen=True)
class Factorization:
    """content * prod(factor^multiplicity) reconstructs the input exactly."""

    content: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def reconstruct(self) -> Poly:
        out = Poly.constant(self.content)
        for f, m in self.factors:
            out = out * f**m
        return out

    def degrees(self) -> list[int]:
        return sorted(f.degree for f, _ in self.factors)


def _factor_squarefree(f: list[int], roots: Optional[list[Fraction]] = None) -> list[Poly]:
    """Irreducible factors of a squarefree primitive integer polynomial
    with a positive leading coefficient, primitive form.  roots are its
    rational roots when the caller has searched for them, and the search
    runs here otherwise; it runs once, as f is squarefree: each linear
    factor divides it once, and the quotient has no rational root."""
    if len(f) <= 2:
        return [Poly(f)] if len(f) == 2 else []
    out: list[Poly] = []
    for r in rational_roots(Poly(f)) if roots is None else roots:
        lin = [-r.numerator, r.denominator]
        out.append(Poly(lin))
        f = _exact_quotient(f, lin)
    if len(f) == 1:
        return out
    h = Poly(f)
    if _certify_irreducible(h):
        return out + [h]
    allowed, q, ddf = _degree_sieve(f)
    if not allowed:
        return out + [h]
    return out + [Poly(g) for g in _zassenhaus(f, q, ddf, allowed)]


def _certify_irreducible(h: Poly) -> bool:
    """Cheap certificates only; False just means no certificate found.
    Eisenstein is tried at the primes `_eisenstein_witness` finds without
    factoring.  Modular certificates come from the factor-degree sieve
    later, and Zassenhaus proves what both miss.

    h must have no rational root, as in `_factor_squarefree`, which has
    just looked: then degrees 2 and 3 are irreducible outright, and h(0)
    is nonzero."""
    return h.degree in (2, 3) or _eisenstein_witness(h.int_coeffs()) is not None


def factor_over_Q(p: Poly) -> Factorization:
    """Full factorization over the rationals into primitive irreducible
    integer polynomials with positive leading coefficients, for p within
    the degree cap."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    check_degree(p.degree, "factor_over_Q input")
    prim = p.int_coeffs()
    content = p.leading / prim[-1]
    if len(prim) == 1:
        return Factorization(content, ())
    collected: dict[Poly, int] = {}
    for sqf, mult in _int_squarefree_decomposition(prim):
        for f in _factor_squarefree(sqf):
            collected[f] = collected.get(f, 0) + mult
    factors = tuple(sorted(collected.items(), key=lambda kv: _factor_order(kv[0])))
    # self-check: the primitive factors multiply back to the primitive part
    rebuilt = [1]
    for f, m in factors:
        for _ in range(m):
            rebuilt = _int_mul(rebuilt, f.nums)
    assert rebuilt == prim
    return Factorization(content, factors)


def _factor_order(f: Poly) -> tuple:
    return f.degree, f.nums


def factor_squarefree(p: Poly, roots: list[Fraction]) -> list[Poly]:
    """The irreducible factors of p, listed as `factor_over_Q` lists
    them, for a primitive squarefree p with a positive leading coefficient
    whose rational roots the caller has found: roots, which are not
    searched for again."""
    check_degree(p.degree, "factor_over_Q input")
    return sorted(_factor_squarefree(list(p.nums), roots), key=_factor_order)


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over the rationals via the full pipeline."""
    if p.degree <= 0:
        return False
    fac = factor_over_Q(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
