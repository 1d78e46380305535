"""Factorization of rational polynomials into irreducibles.

Pipeline, cheapest certificate first: content extraction, squarefree
decomposition, rational-root extraction, Eisenstein (direct and on the
reversal), a factor-degree sieve from reductions modulo small primes
(subset sums of modular factor-degree patterns bound the degrees any
rational factor could have, often proving irreducibility outright), and
finally an exhaustive Kronecker divisor search over the surviving
degrees.  All factors are returned primitive over the integers with
positive leading coefficient, so comparisons in tests are canonical.

A degree cap (default 12) bounds what the exhaustive stage will accept;
inputs past the cap raise DegreeCapExceeded rather than running forever,
and the divisor search itself carries a candidate budget.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CakelabError, DegreeCapExceeded, ZeroPolynomialError
from .ints import divisors, factor_positive, is_probable_prime
from .polys import Poly, squarefree_decomposition, squarefree_rational_roots

DEFAULT_DEGREE_CAP = 12

# Probe primes for the modular irreducibility shortcut.  Primes up to 50
# are needed in practice: T^10 + T - 1 has no witness below 17.
PROBE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


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


# -- irreducibility modulo a prime ------------------------------------------
#
# Polynomials over F_p are plain int lists (lowest degree first), reduced
# mod p, no trailing zeros.


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        if c:
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - c * bc) % p
        a.pop()
        _fp_trim(a)
        if not a:
            break
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _fp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _fp_rem(_fp_trim(out), mod, p)


def _fp_frobenius(a: list[int], mod: list[int], p: int) -> list[int]:
    """a(x)^p mod (mod, p), by square and multiply."""
    out = [1]
    base = a[:]
    e = p
    while e:
        if e & 1:
            out = _fp_mulmod(out, base, mod, p)
        base = _fp_mulmod(base, base, mod, p)
        e >>= 1
    return out


def _fp_exact_div(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        q[len(a) - len(b)] = c
        if c:
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = (a[off + i] - c * bc) % p
        a.pop()
        _fp_trim(a)
        if not a:
            break
    assert not _fp_trim(a), "division was not exact"
    return _fp_trim(q)


def _modp_degree_pattern(h: Poly, q: int) -> list[int] | None:
    """Multiset of irreducible factor degrees of h modulo q, by
    distinct-degree splitting.  None when q is unusable (degree drops or
    the reduction is not squarefree)."""
    coeffs = [c % q for c in h.int_coeffs()]
    n = h.degree
    f = _fp_trim(coeffs)
    if len(f) - 1 != n:
        return None
    inv = pow(f[-1], -1, q)
    f = [c * inv % q for c in f]
    deriv = _fp_trim([i * c % q for i, c in enumerate(f)][1:])
    if not deriv or len(_fp_gcd(f[:], deriv[:], q)) != 1:
        return None
    pattern: list[int] = []
    work = f
    xq = [0, 1]
    k = 0
    while len(work) - 1 > 0:
        k += 1
        if 2 * k > len(work) - 1:
            pattern.append(len(work) - 1)
            break
        xq = _fp_frobenius(xq, work, q)
        diff = _fp_trim(
            [(a - b) % q for a, b in itertools.zip_longest(xq, [0, 1], fillvalue=0)]
        )
        if not diff:
            # every remaining factor has degree dividing k; since none has
            # degree below k, the remainder splits into degree-k parts
            pattern.extend([k] * ((len(work) - 1) // k))
            break
        g = _fp_gcd(work[:], diff, q)
        if len(g) > 1:
            pattern.extend([k] * ((len(g) - 1) // k))
            work = _fp_exact_div(work, g, q)
            if len(work) - 1 == 0:
                break
            xq = _fp_rem(xq, work, q)
    return pattern


def _possible_proper_degrees(h: Poly) -> set[int] | None:
    """Degrees a proper rational factor of h could have, as constrained by
    factor-degree patterns modulo several primes (subset sums).  None when
    no usable prime was found; an empty set proves irreducibility."""
    n = h.degree
    allowed: set[int] | None = None
    usable = 0
    for q in PROBE_PRIMES:
        pattern = _modp_degree_pattern(h, q)
        if pattern is None:
            continue
        sums = {0}
        for d in pattern:
            sums |= {s + d for s in sums}
        cand = {s for s in sums if 0 < s < n}
        allowed = cand if allowed is None else (allowed & cand)
        usable += 1
        if not allowed:
            return set()
        if usable >= 4:
            break
    return allowed


def modp_irreducible(p: Poly, q: int) -> bool:
    """True only if the reduction of p mod q has the same degree and is
    irreducible over F_q (which certifies irreducibility over the
    rationals).  False means the probe is inconclusive."""
    coeffs = [c % q for c in p.int_coeffs()]
    n = p.degree
    if n < 1 or len(coeffs) - 1 != n or coeffs[-1] % q == 0:
        return False
    f = _fp_trim(coeffs[:])
    if len(f) - 1 != n:
        return False
    x = [0, 1]
    # f is irreducible iff x^(q^n) == x mod f and gcd(x^(q^(n/r)) - x, f) = 1
    # for every prime r dividing n.
    powers = [x]
    cur = x
    for _ in range(n):
        cur = _fp_frobenius(cur, f, q)
        powers.append(cur)
    if _fp_trim([(a - b) % q for a, b in itertools.zip_longest(powers[n], x, fillvalue=0)]):
        return False
    for r in factor_positive(n):
        diff = [(a - b) % q for a, b in itertools.zip_longest(powers[n // r], x, fillvalue=0)]
        g = _fp_gcd(f[:], _fp_trim(diff), q)
        if len(g) != 1:
            return False
    return True


# -- Kronecker divisor search ------------------------------------------------


def _int_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _signed_divisors(n: int) -> list[int]:
    ds = divisors(n)
    return [d for a in ds for d in (a, -a)]


def _kronecker_points(coeffs: list[int], count: int) -> list[tuple[int, int]]:
    """Pick evaluation points with few divisors to keep the search small."""
    cands = [0]
    k = 1
    while len(cands) < count + 6:
        cands.extend([k, -k])
        k += 1
    scored = []
    for x in cands:
        v = _int_eval(coeffs, x)
        if v == 0:
            continue  # caller guarantees no integer roots; stay safe anyway
        scored.append((len(divisors(v)), abs(x), x, v))
    scored.sort()
    chosen = scored[:count]
    chosen.sort(key=lambda t: t[2])
    return [(t[2], t[3]) for t in chosen]


def _interpolate(points: list[int], values: list[Fraction]) -> list[Fraction]:
    """Lagrange interpolation; returns coefficients lowest degree first."""
    n = len(points)
    out = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k] -= c * points[j]
                new[k + 1] += c
            num = new
            den *= points[i] - points[j]
        w = values[i] / den
        for k, c in enumerate(num):
            out[k] += w * c
    return out


class FactorSearchBudget(DegreeCapExceeded):
    """The exhaustive divisor search would exceed its candidate budget."""

    def __init__(self, budget: int, context: str = ""):
        self.needed = budget
        self.cap = budget
        self.context = context
        msg = f"divisor search budget of {budget} candidates exhausted"
        if context:
            msg += f" ({context})"
        CakelabError.__init__(self, msg)


KRONECKER_BUDGET = 2_000_000


def _newton_coeffs_to_poly(xs: list[int], dds: list[int]) -> list[int]:
    """Expand a Newton-form interpolant with integer divided differences."""
    out = [dds[0]]
    basis = [1]
    for k in range(1, len(dds)):
        # basis *= (x - xs[k-1])
        new = [0] * (len(basis) + 1)
        for i, c in enumerate(basis):
            new[i] -= c * xs[k - 1]
            new[i + 1] += c
        basis = new
        if dds[k]:
            while len(out) < len(basis):
                out.append(0)
            for i, c in enumerate(basis):
                out[i] += dds[k] * c
    return out


def kronecker_find_factor(
    coeffs: list[int], max_degree: int, degrees=None, budget: int = KRONECKER_BUDGET
) -> list[int] | None:
    """Search for a nontrivial integer divisor by interpolation through
    divisors of integer values.  The input must be primitive and free of
    rational roots.  Candidate degrees default to 2..max_degree and can be
    pruned by the caller.

    Candidate value tuples are walked in Newton form: divided differences
    of an integer polynomial over integer points are integers, so any
    non-integral difference prunes the whole prefix.  A candidate budget
    turns pathological searches into an explicit error."""
    n = len(coeffs) - 1
    if degrees is None:
        degrees = range(2, max_degree + 1)
    visited = 0
    for d in degrees:
        pts = _kronecker_points(coeffs, d + 1)
        xs = [x for x, _ in pts]
        divisor_sets: list[list[int]] = []
        for idx, (_, v) in enumerate(pts):
            ds = _signed_divisors(v)
            if idx == 0:
                ds = [a for a in ds if a > 0]  # g and -g are the same factor
            divisor_sets.append(ds)
        # depth-first over value choices; diag[k] holds the divided
        # differences ending at the current point
        stack: list[tuple[int, list[int], int]] = [(0, [], 0)]
        while stack:
            level, diag, next_idx = stack.pop()
            if level == d + 1:
                dds = diag
                lead = dds[-1]
                if lead == 0 or coeffs[-1] % lead != 0:
                    continue
                # the running diagonal is the Newton form over the points
                # in reverse order
                cand = _newton_coeffs_to_poly(xs[::-1], dds)
                if len(cand) - 1 != d:
                    continue
                if cand[0] != 0 and coeffs[0] % cand[0] != 0:
                    continue
                if _int_divides(cand, coeffs):
                    return cand
                continue
            # re-push a resume marker for the next sibling, then the child
            if next_idx < len(divisor_sets[level]):
                stack.append((level, diag, next_idx + 1))
                v = divisor_sets[level][next_idx]
                visited += 1
                if visited > budget:
                    raise FactorSearchBudget(budget, f"degree-{d} divisor search")
                new_diag = [v]
                ok = True
                for j in range(1, level + 1):
                    num = new_diag[j - 1] - diag[j - 1]
                    den = xs[level] - xs[level - j]
                    if num % den != 0:
                        ok = False
                        break
                    new_diag.append(num // den)
                if ok:
                    stack.append((level + 1, new_diag, 0))
    return None


def _int_divides(g: list[int], f: list[int]) -> bool:
    rem = f[:]
    glc = g[-1]
    while len(rem) >= len(g):
        if rem[-1] % glc != 0:
            return False
        c = rem[-1] // glc
        off = len(rem) - len(g)
        for i, gc in enumerate(g):
            rem[off + i] -= c * gc
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return True
    return not rem


def _int_exact_div(g: list[int], f: list[int]) -> list[int]:
    q, r = divmod(Poly(f), Poly(g))
    assert r.is_zero
    return [int(c) for c in q.coeffs]


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


def _factor_squarefree(p: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree polynomial, primitive form."""
    out: list[Poly] = []
    stack = [p]
    while stack:
        h = stack.pop()
        if h.degree <= 0:
            continue
        if h.degree == 1:
            out.append(h.primitive())
            continue
        roots = squarefree_rational_roots(h)
        if roots:
            for r in roots:
                lin = Poly([-r.numerator, r.denominator])
                while lin.divides(h):
                    out.append(lin)
                    h = h.exact_div(lin)
            stack.append(h)
            continue
        if _certify_irreducible(h):
            out.append(h.primitive())
            continue
        # factor-degree sieve: patterns modulo several primes bound the
        # degrees any rational factor could have
        n = h.degree
        allowed = _possible_proper_degrees(h)
        if allowed is not None:
            search = sorted(
                d for d in allowed if 2 <= d <= n // 2 and (n - d) in allowed
            )
            if not search:
                out.append(h.primitive())
                continue
        else:
            search = list(range(2, n // 2 + 1))
        ic = h.int_coeffs()
        g = kronecker_find_factor(ic, n // 2, degrees=search)
        if g is None:
            out.append(h.primitive())
            continue
        stack.append(Poly(g))
        stack.append(Poly(_int_exact_div(g, ic)))
    return out


def _certify_irreducible(h: Poly) -> bool:
    """Cheap certificates only; False just means no certificate found.
    Modular certificates are handled by the factor-degree sieve later.

    h must have no rational root, as in `_factor_squarefree`, which has
    just looked: then degrees 2 and 3 are irreducible outright."""
    if h.degree in (2, 3):
        return True
    coeffs = h.int_coeffs()
    nonlead = 0
    for c in coeffs[:-1]:
        nonlead = math.gcd(nonlead, abs(c))
    for q in factor_positive(nonlead):
        if _eisenstein_int(coeffs, q):
            return True
    if coeffs[0] != 0:
        rev = list(reversed(coeffs))
        noncon = 0
        for c in rev[:-1]:
            noncon = math.gcd(noncon, abs(c))
        for q in factor_positive(noncon):
            if _eisenstein_int(rev, q):
                return True
    return False


def factor_over_Q(p: Poly, cap: int | None = None) -> Factorization:
    """Full factorization over the rationals into primitive irreducible
    integer polynomials with positive leading coefficients."""
    if cap is None:
        cap = DEFAULT_DEGREE_CAP
    if p.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if p.degree > cap:
        raise DegreeCapExceeded(p.degree, cap, "factor_over_Q input")
    content, prim = p.content_and_primitive()
    if prim.degree == 0:
        return Factorization(content, ())
    collected: dict[Poly, int] = {}
    for sqf, mult in squarefree_decomposition(prim):
        for f in _factor_squarefree(sqf):
            fn = f.primitive()
            collected[fn] = collected.get(fn, 0) + mult
    factors = tuple(sorted(collected.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    rebuilt = Poly.constant(1)
    for f, m in factors:
        rebuilt = rebuilt * f**m
    # self-check: the quotient must be an exact rational constant
    residue = p.exact_div(rebuilt)
    assert residue.degree == 0
    return Factorization(residue.coeff(0), factors)


def is_irreducible(p: Poly, cap: int | None = None) -> bool:
    """Irreducibility over the rationals via the full pipeline."""
    if p.degree <= 0:
        return False
    fac = factor_over_Q(p, cap)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
