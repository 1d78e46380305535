"""Brute-force oracles, independent of the library pipeline.

A divisor of an integer polynomial is found (or ruled out) by exhausting
every integer candidate inside the Mignotte coefficient box, filtered by
the necessary divisibility of values at 0, 1 and -1.  Interpolation never
enters: the search and the library's Kronecker stage share no code path.

Rational roots come from the rational root theorem: every pair of
divisors of the constant and leading coefficients is tried.  Radical
degrees come from prime exponent vectors found by trial division, with
the generator exponents enumerated modulo their indices.
"""

import itertools
import math
from fractions import Fraction
from math import comb, isqrt


def divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def eval_int(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_divmod_int(f, g):
    """Quotient and remainder over the integers, or None when the division
    leaves the integers."""
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    glc = g[-1]
    while len(rem) >= len(g) and any(rem):
        if rem[-1] % glc != 0:
            return None
        c = rem[-1] // glc
        q[len(rem) - len(g)] = c
        off = len(rem) - len(g)
        for i, gc in enumerate(g):
            rem[off + i] -= c * gc
        while rem and rem[-1] == 0:
            rem.pop()
    return (q, rem)


def mignotte_box(f, d):
    """Per-coefficient bound for degree-d divisors of f."""
    norm2 = isqrt(sum(c * c for c in f)) + 1
    lc = abs(f[-1])
    return [comb(d - 1, i) * norm2 + (comb(d - 1, i - 1) * lc if i >= 1 else 0) for i in range(d + 1)]


def find_divisor(f):
    """Smallest-degree nontrivial divisor within the Mignotte box, or None.
    Assumes f primitive with f(0) != 0."""
    n = len(f) - 1
    f0, f1, fm1 = f[0], eval_int(f, 1), eval_int(f, -1)
    lead_divs = [d for d in divisors(f[-1])]
    const_divs = divisors(f0)
    const_divs = [d for a in const_divs for d in (a, -a)]
    div1 = set(divisors(f1)) if f1 != 0 else None
    divm1 = set(divisors(fm1)) if fm1 != 0 else None
    for d in range(1, n // 2 + 1):
        box = mignotte_box(f, d)
        middle_ranges = [range(-box[i], box[i] + 1) for i in range(1, d)]
        for bd in lead_divs:
            for b0 in const_divs:
                for mid in itertools.product(*middle_ranges):
                    g = [b0, *mid, bd]
                    s = sum(g)
                    if div1 is not None and (s == 0 or abs(s) not in div1):
                        continue
                    a = sum(c if i % 2 == 0 else -c for i, c in enumerate(g))
                    if divm1 is not None and (a == 0 or abs(a) not in divm1):
                        continue
                    res = poly_divmod_int(f, g)
                    if res is not None and not res[1]:
                        return g
    return None


def oracle_factor(coeffs):
    """Full factorization into primitive irreducible integer factors with
    positive leading coefficients, as a sorted list of coefficient tuples
    with multiplicities."""
    coeffs = list(coeffs)
    assert any(coeffs), "zero polynomial"
    while coeffs[-1] == 0:
        coeffs.pop()
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    coeffs = [c // g for c in coeffs]
    factors = {}
    k = 0
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    if k:
        factors[(0, 1)] = k
    stack = [coeffs]
    while stack:
        f = stack.pop()
        if len(f) <= 1:
            continue
        if f[-1] < 0:
            f = [-c for c in f]
        if len(f) == 2:
            gg = math.gcd(abs(f[0]), abs(f[1]))
            key = tuple(c // gg for c in f)
            factors[key] = factors.get(key, 0) + 1
            continue
        div = find_divisor(f)
        if div is None:
            gg = 0
            for c in f:
                gg = math.gcd(gg, abs(c))
            key = tuple(c // gg for c in f)
            factors[key] = factors.get(key, 0) + 1
            continue
        if div[-1] < 0:
            div = [-c for c in div]
        q, _ = poly_divmod_int(f, div)
        stack.append(div)
        stack.append(q)
    return sorted(factors.items())


def rational_roots_oracle(coeffs):
    """Distinct rational roots of a nonzero integer polynomial (lowest
    degree first), ascending, by the rational root theorem: a root n/d in
    lowest terms has n | c_0 and d | c_n once zero roots are divided out,
    and (n - d) | p(1) and (n + d) | p(-1) screen the candidates."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
    deg = len(coeffs) - 1
    if deg == 0:
        return sorted(roots)
    at1, atm1 = eval_int(coeffs, 1), eval_int(coeffs, -1)
    for den in divisors(coeffs[-1]):
        for num in divisors(coeffs[0]):
            if math.gcd(num, den) != 1:
                continue
            for n in (num, -num):
                if at1 != 0 and (n == den or at1 % (n - den) != 0):
                    continue
                if atm1 != 0 and (n == -den or atm1 % (n + den) != 0):
                    continue
                if sum(c * n**i * den ** (deg - i) for i, c in enumerate(coeffs)) == 0:
                    roots.add(Fraction(n, den))
    return sorted(roots)


def prime_exponents(n):
    """{prime: exponent} of a positive integer by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def radical_degree_oracle(b, d, gens):
    """Least m | d with |b|^(m/d) in the group generated by the positive
    rationals and the |b_i|^(1/d_i) of gens = [(b_i, d_i)].  An element
    t + sum k_i v_i / d_i (t integral) of that group is rational exactly
    when its prime exponent vector is integral, and only k_i mod d_i
    matters, so every residue tuple is tried."""
    values = [abs(Fraction(b))] + [abs(Fraction(r)) for r, _ in gens]
    facs = [(prime_exponents(v.numerator), prime_exponents(v.denominator)) for v in values]
    primes = sorted({p for num, den in facs for p in (*num, *den)})
    vecs = [[num.get(p, 0) - den.get(p, 0) for p in primes] for num, den in facs]
    gen_vecs = [[Fraction(c, dg) for c in v] for v, (_, dg) in zip(vecs[1:], gens)]
    for m in range(1, d + 1):
        if d % m:
            continue
        target = [Fraction(c * m, d) for c in vecs[0]]
        for ks in itertools.product(*(range(dg) for _, dg in gens)):
            rest = [t - sum(k * v[i] for k, v in zip(ks, gen_vecs)) for i, t in enumerate(target)]
            if all(x.denominator == 1 for x in rest):
                return m
    return d


def is_perfect_power(n):
    """Is the integer n > 1 some c^k with k >= 2?  Binary search per k."""
    for k in range(2, n.bit_length() + 1):
        lo, hi = 1, 1 << (n.bit_length() // k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**k < n:
                lo = mid + 1
            else:
                hi = mid
        if lo**k == n:
            return True
    return False
