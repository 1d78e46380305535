"""Brute-force oracles, independent of the library pipeline.

A divisor of an integer polynomial is found (or ruled out) by Kronecker's
search, which interpolates through divisors of integer values; a linear
divisor is tried first over the divisors of the end coefficients, filtered
by the necessary divisibility of the values at 1 and -1.  Neither works
modulo a prime, so they share no step with the library's Zassenhaus
factoring.

Root refinement is checked against plain Fraction bisection.

Integer d-th roots are Newton's iteration from a power of two above the
root, with no seed from the top bits (`int_nth_root_oracle`).

Rational roots come from the rational root theorem: every pair of
divisors of the constant and leading coefficients is tried.  Radical
degrees come from prime exponent vectors found by trial division, with
the generator exponents enumerated modulo their indices, and a radical's
word over the generators is checked on the same vectors
(`radical_word_oracle`).

Distinct-degree factorizations mod p are checked against the eager
generator the library used before its image cache computed degrees on
demand (`fp_ddf_oracle`).

Sturm counts and isolations are checked against the rational Sturm
sequence f, f', -(f mod f'), ... in plain Fractions, evaluated by
`Poly.__call__` and recounted at every split, the library's method before
it moved to the integer primitive remainder sequence.

Eliminations (sums, products and polynomial images of conjugates) are
resultants evaluated at integer points and interpolated by Lagrange, the
library's method before it moved to power sums.  Their base is
`resultant_oracle`, the Euclidean recurrence over Fractions.  The
compositum oracle, which eliminates at degrees up to the cap, reads its
sum polynomials off power sums over Fractions instead
(`sum_polynomial_oracle`): the pairwise elimination the library ran before
every elimination moved into the atoms' algebra.

A CDF is validated by probing the density's sign in every region that
its isolated roots delimit on [0, 1], whatever the signs of its
coefficients: the library's method before it accepted a density with no
negative coefficient without isolating.

Gcds, squarefree parts and Yun's squarefree decomposition are Euclid over
Fractions, and single-atom residues are `Poly` remainders modulo the
atom's minimal polynomial with inverses by the extended Euclid: the
library's methods before both moved to integer coefficient lists.  The
integer gcd is also checked against the primitive remainder sequence
alone (`int_gcd_prs_oracle`), the library's method before it tried the
heuristic gcd first, and powers mod (f, p) against square and multiply
with a product and then a remainder per step (`fp_powmod_oracle`), the
library's method before it fused the two; the distinct-degree and root
oracles below raise to powers by that loop.

The minimal polynomial of a value of one atom's field is the irreducible
factor of its characteristic polynomial (`image_oracle`) that vanishes at
it, found by `factor_over_Q` and checked on residues: the library's
factor-and-select route before it took the characteristic polynomial's
squarefree part.  A polynomial at an algebraic point is Horner's rule
folded one field operation at a time, the library's method before it
evaluated on residues.  A polynomial at a rational point is Horner's rule
over Fractions (`fraction_horner_oracle`), the method of `Poly.__call__`
before it cleared denominators for one integer Horner.

The Cauchy root bound is the power-of-two doubling loop over Fraction
ratios (`root_bound_oracle`), the library's method before it computed the
bound on the integer form.

The factor of several candidates that vanishes at a value, and a value's
isolating interval, come from the library's separate refinement loops
before one routine pinned a value among polynomial roots: candidates are
dropped as the value's enclosure at 2^-k shrinks (`select_factor_oracle`),
and the enclosure rounded outward to the 2^-k grid is an isolating
interval once the rational Sturm chain counts one root inside it
(`isolating_interval_oracle`).

Tower step degrees come from primitive elements (`compositum_step_degrees`):
each new value joins the field's primitive element in a shifted sum
a + c*b whose sum polynomial (`sum_polynomial_oracle`) is squarefree, and
the step degree is the quotient of the sum's degree by the field's.  It is
the tower's route before it decided step degrees at degree-1 primes.

Chains of simple roots through a tower's triangular set come from the
tower's method before it read roots off the image cache of `polys`
(`ChainCacheOracle`): the simple roots mod p of each level are those of
gcd(f, x^p - x), found by scanning residues and kept where f' does not
vanish (`simple_roots_oracle`), and the chains are grown level by level
and cached per prime across steps.

A DAG's value modulo a prime and its list of atoms come from recursive
descent over the nodes (`residue_mod_oracle`, `dag_atoms_oracle`), with
inverses mod p by Fermat's little theorem, independent of the library's
one explicit-stack walk.

A sign is also decided by the library's route before refinement came
first (`saf_first_sign_oracle`): a value with a single-atom form reads a
constant form's sign, or refines with no limit once a nonconstant form
proves it nonzero; only a value with no form refines first, to 2^-128,
and then decides a zero from its operands.

An enclosure at most eps wide also comes from the library's route before
a polynomial or cut root went straight to the effort where the schedule
stops (`doubling_refine_oracle`): every node, atoms included, is refined
at each effort of the doubling schedule in turn until its enclosure is
narrow enough.  A polynomial at a dyadic point m / 2^e is also the
homogeneous integer Horner at m itself, with no reduction of the point
(`dyadic_horner_oracle`), and a rational radical's minimal polynomial is
its defining binomial made primitive (`radical_binomial_oracle`), both the
library's methods before this refinement change.

A comparison is also decided by the library's route before it refined the
two operands' own enclosures (`subtraction_sign_oracle`): the sign of
their difference, built by `_fold_sub` as a node.

The real root of a polynomial in a span comes from the library's route
before it isolated inside one dyadic cell (`full_span_real_root_oracle`):
every real root of the squarefree part is isolated over the Cauchy span,
the span's root is found among them by signs at the clipped ends, and its
index among them is its ordinal.

Polynomial arithmetic is checked against `FractionPoly`: coefficients
stored as a tuple of Fractions, with the schoolbook loops over Fractions
that `Poly` ran before it stored integer numerators over one denominator.
"""

import itertools
import math
from fractions import Fraction

from cakelab.dyadic import DyadicInterval
from cakelab import algebraic as alg
from cakelab.algebraic import AlgebraicNumber, _Add, _Binary, _Div, _Mul, _Rat, _Sub
from cakelab.errors import DegreeCapExceeded, InvalidMeasureError
from cakelab.factoring import check_degree, factor_over_Q
from cakelab.polys import (
    Poly,
    _derivative,
    _drop_content,
    _fp_divmod,
    _fp_gcd,
    _fp_mul,
    _fp_rem,
    _fp_sub,
    _horner_mod,
    _monic_mod,
    _int_squarefree,
    _neg_prem,
    horner,
    rational_roots,
    root_bound,
    squarefree_part,
    sturm_isolate,
)


def divisors(n):
    """The positive divisors of n, ascending; none for 0.  Trial division
    divides each prime out as it is found, so only the cofactor's square
    root bounds the search."""
    n = abs(n)
    if n == 0:
        return []
    divs = [1]
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            divs = [x * d**k for x in divs for k in range(e + 1)]
        d += 1
    if n > 1:
        divs += [x * n for x in divs]
    return sorted(divs)


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


def find_divisor(f):
    """Smallest-degree nontrivial divisor, or None: a linear one b0 + bd*x
    with b0 dividing f(0) and bd the leading coefficient, else one of degree
    2..n/2 by Kronecker's method (`kronecker_find_factor`), which needs f
    free of rational roots.  Assumes f primitive with f(0) != 0."""
    n = len(f) - 1
    if n < 2:
        return None
    f1, fm1 = eval_int(f, 1), eval_int(f, -1)
    const_divs = [d for a in divisors(f[0]) for d in (a, -a)]
    div1 = set(divisors(f1)) if f1 != 0 else None
    divm1 = set(divisors(fm1)) if fm1 != 0 else None
    for bd in divisors(f[-1]):
        for b0 in const_divs:
            g = [b0, bd]
            # g(1) divides f(1) and g(-1) divides f(-1)
            if div1 is not None and (b0 + bd == 0 or abs(b0 + bd) not in div1):
                continue
            if divm1 is not None and (b0 - bd == 0 or abs(b0 - bd) not in divm1):
                continue
            res = poly_divmod_int(f, g)
            if res is not None and not res[1]:
                return g
    return kronecker_find_factor(f, n // 2) if n >= 4 else None


def _kronecker_points(coeffs, count):
    """Evaluation points with few divisors, to keep the search small."""
    cands = [0]
    k = 1
    while len(cands) < count + 6:
        cands.extend([k, -k])
        k += 1
    scored = []
    for x in cands:
        v = eval_int(coeffs, x)
        if v != 0:
            scored.append((len(divisors(v)), abs(x), x, v))
    scored.sort()
    return sorted(((x, v) for _, _, x, v in scored[:count]))


def _newton_to_coeffs(xs, dds):
    """Expand a Newton-form interpolant with integer divided differences."""
    out = [dds[0]]
    basis = [1]
    for k in range(1, len(dds)):
        new = [0] * (len(basis) + 1)
        for i, c in enumerate(basis):
            new[i] -= c * xs[k - 1]
            new[i + 1] += c
        basis = new
        out.extend([0] * (len(basis) - len(out)))
        for i, c in enumerate(basis):
            out[i] += dds[k] * c
    return out


def kronecker_find_factor(coeffs, max_degree):
    """A divisor of degree 2..max_degree of a primitive integer polynomial
    free of rational roots, or None, by Kronecker's method: a degree-d
    divisor g takes at d + 1 integer points values dividing f's values
    there, and is the interpolant through them.  Value tuples are walked
    in Newton form, where the divided differences of an integer
    polynomial at integer points are integers, so a non-integral
    difference prunes the whole prefix."""
    for d in range(2, max_degree + 1):
        pts = _kronecker_points(coeffs, d + 1)
        xs = [x for x, _ in pts]
        # g and -g are the same factor: the first value is taken positive
        signs = [(1,)] + [(1, -1)] * d
        choices = [[s * a for a in divisors(v) for s in sg] for (_, v), sg in zip(pts, signs)]

        def walk(level, diag):
            if level == d + 1:
                cand = _newton_to_coeffs(xs[::-1], diag)
                while cand and cand[-1] == 0:
                    cand.pop()
                if len(cand) - 1 != d:
                    return None
                res = poly_divmod_int(coeffs, cand)
                return cand if res is not None and not res[1] else None
            for v in choices[level]:
                new = [v]
                for j in range(1, level + 1):
                    num, den = new[j - 1] - diag[j - 1], xs[level] - xs[level - j]
                    if num % den:
                        break
                    new.append(num // den)
                else:
                    found = walk(level + 1, new)
                    if found is not None:
                        return found
            return None

        found = walk(0, [])
        if found is not None:
            return found
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
    """(m, ks): the least m | d with |b|^(m/d) in the group generated by
    the positive rationals and the |b_i|^(1/d_i) of gens = [(b_i, d_i)],
    and the first residue tuple ks, 0 <= k_i < d_i, with |b|^(m/d) over
    prod |b_i|^(k_i/d_i) rational.  An element t + sum k_i v_i / d_i
    (t integral) of that group is rational exactly when its prime exponent
    vector is integral, and only k_i mod d_i matters, so every residue
    tuple is tried."""
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
                return m, ks


def radical_word_oracle(b, d, m, word, gens):
    """Is v^m = q * prod(a_i^c_i) for word = (q, cs), v and the a_i the real
    radicals b^(1/d) and b_i^(1/d_i)?  Checked on prime exponent vectors
    by trial division: that of |q| is (m/d) times |b|'s less the sum of
    c_i/d_i times |b_i|'s, and the signs agree."""
    q, cs = word
    if q == 0:
        return False
    values = [abs(Fraction(b)), abs(Fraction(q))] + [abs(Fraction(r)) for r, _ in gens]
    facs = [(prime_exponents(v.numerator), prime_exponents(v.denominator)) for v in values]
    primes = sorted({p for num, den in facs for p in (*num, *den)})
    vb, vq, *vecs = [[num.get(p, 0) - den.get(p, 0) for p in primes] for num, den in facs]
    for i, e in enumerate(vq):
        if e != Fraction(vb[i] * m, d) - sum(Fraction(c * v[i], dg) for c, v, (_, dg) in zip(cs, vecs, gens)):
            return False
    negative = (b < 0 and m % 2 == 1) != (q < 0)
    for (r, _), c in zip(gens, cs):
        negative ^= r < 0 and c % 2 == 1
    return not negative


def int_nth_root_oracle(n, d):
    """Floor of the real d-th root of n >= 0: Newton's iteration from the
    power of two above the root, the library's method before it took its
    seed from the top bits of n."""
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // d))
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


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


def root_bound_oracle(p):
    """The least power of two at least 1 + max |c_i / c_n|, by doubling."""
    if p.degree < 1:
        return Fraction(1)
    lc = abs(p.leading)
    b = 1 + max(abs(c) / lc for c in p.coeffs[:-1])
    out = Fraction(1)
    while out < b:
        out *= 2
    return out


def bisect_oracle(p, lo, hi, width):
    """Independent sign-change bisection of [lo, hi] until at most width
    wide, in plain Fractions; (mid, mid) when p vanishes at a midpoint."""
    lo, hi = Fraction(lo), Fraction(hi)
    assert p(lo) * p(hi) < 0
    neg_left = p(lo) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return mid, mid
        if (v < 0) == neg_left:
            lo = mid
        else:
            hi = mid
    return lo, hi


def resultant_oracle(f, g):
    """Resultant of two rational polynomials by the Euclidean recurrence
    over Fractions, the library's method before it moved to integer
    pseudo-remainders."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    res = Fraction(1)
    sign = 1
    while True:
        if g.degree == 0:
            return sign * res * g.leading ** f.degree
        r = f % g
        if r.is_zero:
            return Fraction(0)
        if (f.degree * g.degree) % 2 == 1:
            sign = -sign
        res *= g.leading ** (f.degree - r.degree)
        f, g = g, r


def _interpolate(points, values):
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


def elimination_oracle(kind, ma, mb):
    """Res_y(ma(y), mb(T - y)) for "add", or Res_y(ma(y), y^deg mb * mb(T / y))
    for "mul", interpolated at T = 0..deg ma * deg mb."""
    nb = mb.degree
    pts = list(range(ma.degree * nb + 1))
    vals = []
    for t in pts:
        if kind == "add":
            other = mb.compose(Poly([Fraction(t), -1]))
        else:
            other = Poly([mb.coeff(nb - j) * Fraction(t) ** (nb - j) for j in range(nb + 1)])
        vals.append(resultant_oracle(ma, other))
    return Poly(_interpolate(pts, vals))


def _power_sums(m, n):
    """Power sums p_0..p_n of the roots of m, with multiplicity, from
    Newton's identities over Fractions: with m monic, x^d + c_1 x^(d-1)
    + ... + c_d, p_k + c_1 p_(k-1) + ... + c_(k-1) p_1 + k c_k = 0
    (c_k = 0 past d)."""
    m = m.monic()
    d = m.degree
    c = [m.coeff(d - i) for i in range(d + 1)]
    ps = [Fraction(d)]
    for k in range(1, n + 1):
        s = k * c[k] if k <= d else Fraction(0)
        s += sum(c[i] * ps[k - i] for i in range(1, min(k, d + 1)))
        ps.append(-s)
    return ps


def sum_polynomial_oracle(ma, mb):
    """Monic prod (T - a - b) over the roots a of ma and b of mb, with
    multiplicity, from its power sums p_k = sum_i C(k, i) p_i(a) p_(k-i)(b)
    (Bostan, Flajolet, Salvy & Schost 2006) and Newton's identities."""
    n = ma.degree * mb.degree
    pa, pb = _power_sums(ma, n), _power_sums(mb, n)
    q = [sum(math.comb(k, i) * pa[i] * pb[k - i] for i in range(k + 1)) for k in range(n + 1)]
    c = [Fraction(1)]
    for k in range(1, n + 1):
        c.append(-(q[k] + sum(c[i] * q[k - i] for i in range(1, k))) / k)
    return Poly([c[n - j] for j in range(n + 1)])


def image_oracle(m, g):
    """Res_y(m(y), T - g(y)) for monic m, interpolated at T = 0..deg m."""
    pts = list(range(m.degree + 1))
    vals = [resultant_oracle(m, Poly.constant(t) - g) for t in pts]
    return Poly(_interpolate(pts, vals))


def sturm_chain_oracle(p):
    """Rational Sturm sequence of the squarefree part of p; chain[0] is that
    part, monic.  A non-constant last element of p's own chain is
    gcd(p, p') up to a constant: divide it out and start again."""
    f = p.monic()
    while True:
        if f.degree <= 0:
            return [f] if not f.is_zero else []
        chain = [f, f.derivative()]
        while chain[-1].degree > 0:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r)
        if chain[-1].degree == 0:
            return chain
        f = f.exact_div(chain[-1]).monic()


def _variations(chain, x):
    signs = [v > 0 for v in (q(x) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_oracle(chain, lo, hi):
    """Distinct real roots in (lo, hi] by the rational chain."""
    return _variations(chain, Fraction(lo)) - _variations(chain, Fraction(hi))


def _shrink_half_oracle(f, chain, iv):
    mid = iv.midpoint
    while f(mid) == 0:
        mid = (iv.lo + mid) / 2
    if sturm_count_oracle(chain, iv.lo, mid) == 1:
        return DyadicInterval(iv.lo, mid)
    return DyadicInterval(mid, iv.hi)


def sturm_isolate_oracle(p, span):
    """Isolation on the rational chain, recounting both ends of every split:
    span ends that are roots are pushed outward, (lo, hi] is halved until
    each part holds at most one root, and touching neighbours are halved
    apart."""
    chain = sturm_chain_oracle(p)
    f = chain[0]
    if f.degree <= 0:
        return []
    lo, hi = span.lo, span.hi
    step = max(span.width, Fraction(1)) / 2
    while f(lo) == 0:
        nlo = lo - step
        if f(nlo) != 0 and sturm_count_oracle(chain, nlo, lo) == 1:
            lo = nlo
        else:
            step /= 2
    step = max(span.width, Fraction(1)) / 2
    while f(hi) == 0:
        nhi = hi + step
        if f(nhi) != 0 and sturm_count_oracle(chain, hi, nhi) == 0:
            hi = nhi
        else:
            step /= 2
    if lo == hi:
        return []
    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = sturm_count_oracle(chain, a, b)
        if n == 1:
            out.append(DyadicInterval(a, b))
        elif n > 1:
            mid = (a + b) / 2
            while f(mid) == 0:
                mid = (a + mid) / 2
            stack.append((a, mid))
            stack.append((mid, b))
    out.sort(key=lambda iv: iv.lo)
    for i in range(len(out) - 1):
        while out[i].hi >= out[i + 1].lo:
            out[i] = _shrink_half_oracle(f, chain, out[i])
            out[i + 1] = _shrink_half_oracle(f, chain, out[i + 1])
    return out


def _refined_sign(node, k, limit=None):
    """The sign once node's enclosure at 2^-k, k doubling, excludes 0; None
    past the limit."""
    while limit is None or k <= limit:
        try:
            lo, hi = alg._interval(node, k)
        except alg._MorePrecision:
            k *= 2
            continue
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2
    return None


def doubling_refine_oracle(node, eps, b=None):
    """An enclosure of the node's value at most eps wide, refining at every
    effort of the schedule: doubling from 8 (or the cached effort) while
    4k <= b, then b, then the missing bits of a compound node."""
    if b is None:
        b = alg._log2_ceil(1 / eps)
    k = max(8, node._ivc[0])
    while True:
        try:
            lo, hi = alg._interval(node, k)
        except alg._MorePrecision:
            k *= 2
            continue
        if hi - lo <= eps:
            return lo, hi
        if 4 * k <= b:
            k *= 2
        elif k < b:
            k = b
        else:
            k += alg._log2_ceil((hi - lo) / eps) + 1


def dyadic_horner_oracle(coeffs, m, e):
    """2^(e*n) * p(m / 2^e) by homogeneous integer Horner at m over 2^e,
    n = len(coeffs) - 1."""
    acc = 0
    sh = 0
    for c in reversed(coeffs):
        acc = acc * m + (c << sh)
        sh += e
    return acc


def radical_binomial_oracle(r, d):
    """den(r) * T^d - num(r), made primitive: the minimal polynomial of an
    interned rational radical r^(1/d)."""
    r = Fraction(r)
    return Poly([-r.numerator] + [0] * (d - 1) + [r.denominator]).primitive()


def saf_first_sign_oracle(node):
    """The exact sign of a node, its single-atom form first."""
    if isinstance(node, _Rat):
        return (node.value > 0) - (node.value < 0)
    saf = alg._saf_of(node)
    if saf is not alg._SAF_UNAVAILABLE:
        atom, residue = saf
        if atom is None:
            v = residue.coeff(0)
            return (v > 0) - (v < 0)
        return _refined_sign(node, max(8, node._ivc[0]))
    s = _refined_sign(node, 8, 128)
    if s is not None:
        return s
    if isinstance(node, (_Mul, _Div)):
        s = saf_first_sign_oracle(node.a)
        return s and s * saf_first_sign_oracle(node.b)
    if alg._equal_values(node.a, node.b, negated=isinstance(node, _Add)):
        return 0
    return _refined_sign(node, max(8, node._ivc[0]))


def subtraction_sign_oracle(a, b):
    """The sign of a - b, each an AlgebraicNumber, an int or a Fraction, as
    the sign of the difference node that `_fold_sub` builds."""
    return (AlgebraicNumber.of(a) - AlgebraicNumber.of(b)).sign()


def full_span_real_root_oracle(p, lo, hi):
    """(node, key): the unique real root of p in [lo, hi], isolated over
    the whole Cauchy span.  A root of a polynomial past degree 2 that is
    no binomial comes back as a fresh atom with its isolating interval
    over the span, not interned, and key is the (coefficients, ordinal)
    the library interns it under; key is None for every other node."""
    sqf = Poly(_int_squarefree(p.int_coeffs()))
    bound = root_bound(sqf)
    all_ivs = sturm_isolate(sqf, DyadicInterval(-bound, bound))
    cs = sqf.nums
    hits = []
    for idx, iv in enumerate(all_ivs):
        a, b = max(iv.lo, lo), min(iv.hi, hi)
        if a <= b and horner(cs, a.numerator, a.denominator) * horner(cs, b.numerator, b.denominator) <= 0:
            hits.append(idx)
    if len(hits) != 1:
        raise ValueError("the span must contain exactly one root")
    roots = rational_roots(sqf)
    for r in roots:
        if lo <= r <= hi:
            return _Rat(r), None
    idx = hits[0]
    iv = all_ivs[idx]
    nonzero = [(i, c) for i, c in enumerate(cs) if c != 0]
    if len(nonzero) == 2 and nonzero[0][0] == 0:
        d = nonzero[1][0]
        root = alg._make_root(Fraction(-nonzero[0][1], nonzero[1][1]), d)
        return (root if d % 2 == 1 or iv.lo >= 0 else alg._fold_mul(alg._rat(-1), root)), None
    if sqf.degree == 2:
        return alg._quadratic_root(sqf, idx), None
    return alg._PolyRootAtom(sqf, iv.lo, iv.hi, roots), (cs, idx)


def nested_elimination_minpoly(v, known=None):
    """The minimal polynomial of the AlgebraicNumber v by nested pairwise
    elimination, the route `algebraic` took for every value mixing atoms
    before the atoms' algebra: at each field operation, the operands'
    minimal polynomials give the sum or product polynomial
    (`elimination_oracle`), whose irreducible factors (`oracle_factor`)
    name the one vanishing at the node's value (`select_factor_oracle`).
    A rational is its linear polynomial, and an atom brings its own
    minimal polynomial from the library.  known maps id(node) to the
    nodes seen so far, kept alive so that no id is reused, with their
    minimal polynomials; it is filled in."""
    known = {} if known is None else known
    node = v._node
    if id(node) in known:
        return known[id(node)][1]
    if isinstance(node, _Rat):
        m = Poly([-node.value.numerator, node.value.denominator])
    elif not isinstance(node, _Binary):
        m = v.minimal_polynomial()
    else:
        ma = nested_elimination_minpoly(AlgebraicNumber(node.a), known)
        mb = nested_elimination_minpoly(AlgebraicNumber(node.b), known)
        if isinstance(node, _Sub):
            mb = mb.negate_variable()
        elif isinstance(node, _Div):
            mb = mb.reverse()
        elim = elimination_oracle("add" if isinstance(node, (_Add, _Sub)) else "mul", ma, mb)
        cands = [Poly(list(f)) for f, _ in oracle_factor(elim.int_coeffs())]
        m = select_factor_oracle(cands, v).primitive()
    known[id(node)] = node, m
    return m


def select_factor_oracle(candidates, v):
    """The candidate vanishing at the AlgebraicNumber v, from distinct
    irreducible candidates: v's enclosure at 2^-k, k doubling from 8, keeps
    a linear candidate whose root it contains and any other with a root in
    (lo, hi], until one is left.  An irreducible candidate of degree 2 or
    more has no rational root, so its half-open count is the closed one."""
    cands = list(candidates)
    k = 8
    while len(cands) > 1:
        lo, hi = v.approx(Fraction(1, 1 << k))
        kept = []
        for f in cands:
            if f.degree == 1:
                if lo <= -f.coeff(0) / f.coeff(1) <= hi:
                    kept.append(f)
            elif sturm_count_oracle(sturm_chain_oracle(f), lo, hi) >= 1:
                kept.append(f)
        assert kept, "no candidate contains the value"
        cands = kept
        k *= 2
    return cands[0]


def isolating_interval_oracle(v):
    """An isolating interval of the irrational AlgebraicNumber v: its
    enclosure at 2^-k, k doubling from 8, rounded outward to the 2^-k grid,
    once its minimal polynomial has exactly one root inside and none at the
    ends."""
    m = v.minimal_polynomial()
    assert m.degree >= 2, "a rational value took a separate branch"
    chain = sturm_chain_oracle(m)
    k = 8
    while True:
        lo, hi = v.approx(Fraction(1, 1 << k))
        dlo = Fraction(math.floor(lo * (1 << k)), 1 << k)
        dhi = Fraction(math.ceil(hi * (1 << k)), 1 << k)
        if m(dlo) != 0 and m(dhi) != 0 and sturm_count_oracle(chain, dlo, dhi) == 1:
            return DyadicInterval(dlo, dhi)
        k *= 2


def validate_cdf_oracle(f):
    """Raise InvalidMeasureError, with the library's messages, unless f is
    a strictly increasing CDF on [0, 1]."""
    if f(Fraction(0)) != 0:
        raise InvalidMeasureError(f"f(0) = {f(Fraction(0))}, expected 0")
    if f(Fraction(1)) != 1:
        raise InvalidMeasureError(f"f(1) = {f(Fraction(1))}, expected 1")
    g = f.derivative()
    if g.is_zero:
        raise InvalidMeasureError("density is identically zero")
    ivs = sturm_isolate_oracle(g, DyadicInterval.make(0, 1))
    samples = [Fraction(0), Fraction(1)]
    bounds = sorted({iv.lo for iv in ivs} | {iv.hi for iv in ivs} | {Fraction(0), Fraction(1)})
    for lo, hi in zip(bounds, bounds[1:]):
        samples.append((lo + hi) / 2)
    for s in samples:
        if 0 <= s <= 1 and g(s) < 0:
            raise InvalidMeasureError(f"density is negative at x = {s}: not monotone")


def poly_gcd_oracle(a, b):
    """Monic gcd by Euclid over the rationals; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_part_oracle(p):
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    return p.exact_div(poly_gcd_oracle(p, p.derivative()).scale(p.leading)).monic()


def squarefree_decomposition_oracle(p):
    """Yun's algorithm on the monic p, over the rationals."""
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd_oracle(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd_oracle(b, c)
        if g.degree > 0:
            out.append((g, i))
        b2 = b.exact_div(g)
        c = c.exact_div(g) - b2.derivative()
        b = b2
        i += 1
    return out


def int_gcd_prs_oracle(a, b):
    """The primitive gcd of two integer polynomials, with a positive
    leading coefficient, [] for gcd(0, 0): the last element of the
    primitive remainder sequence, with no heuristic gcd before it."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _drop_content(a), _drop_content(b)
    while b:
        a, b = b, _neg_prem(a, b)
    return a if not a or a[-1] > 0 else [-c for c in a]


def fp_powmod_oracle(a, e, mod, p):
    """a(x)^e mod (mod, p) by square and multiply, each step a product mod
    p and then a remainder by division."""
    out = [1]
    base = a[:]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, base, p), mod, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def inverse_mod_oracle(g, m):
    """g^-1 modulo m by the extended Euclid over the rationals, for g prime
    to m."""
    r0, r1 = g, m
    s0, s1 = Poly.constant(1), Poly()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return s0.scale(1 / r0.coeff(0)) % m


def residue_oracle(expr, m):
    """The residue modulo m of an expression tree over one atom, a root of
    m: ("atom",), ("rat", q), or (op, left, right) with op one of "add",
    "sub", "mul" and "div".  Raises ZeroDivisionError on a zero divisor."""
    kind = expr[0]
    if kind == "atom":
        return Poly.x() % m
    if kind == "rat":
        return Poly.constant(expr[1])
    a, b = residue_oracle(expr[1], m), residue_oracle(expr[2], m)
    if kind == "add":
        return (a + b) % m
    if kind == "sub":
        return (a - b) % m
    if kind == "mul":
        return (a * b) % m
    if b.is_zero:
        raise ZeroDivisionError("division by an exact zero")
    return (a * inverse_mod_oracle(b, m)) % m


def minpoly_by_factoring_oracle(g, m):
    """The minimal polynomial of g(a), a a root of the irreducible m, made
    primitive: the irreducible factor f of the characteristic polynomial of
    g modulo m with f(g) = 0 modulo m."""
    for f, _ in factor_over_Q(image_oracle(m.monic(), g)).factors:
        if (f.compose(g) % m).is_zero:
            return f.primitive()
    raise AssertionError("no factor vanishes at the value")


def poly_at_fold_oracle(p, v):
    """p at the AlgebraicNumber v by Horner's rule, one folded field
    operation per step: two per coefficient, none at a rational point."""
    r = v.as_rational()
    if r is not None:
        return AlgebraicNumber(p(r))
    acc = AlgebraicNumber(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def fraction_horner_oracle(p, x):
    """p(x) at a rational x by Horner's rule over Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def residue_mod_oracle(node, p, images):
    """The DAG's value mod the prime p by recursive descent, each atom
    replaced by images[id(atom)]; None when any rational leaf's denominator
    or any divisor vanishes mod p.  A shared node is evaluated once."""
    memo = {}

    def value(n):
        if id(n) not in memo:
            if isinstance(n, _Rat):
                num, den = n.value.numerator, n.value.denominator
                v = None if den % p == 0 else num * pow(den, p - 2, p) % p
            elif isinstance(n, _Binary):
                x, y = value(n.a), value(n.b)
                if x is None or y is None:
                    v = None
                elif isinstance(n, _Add):
                    v = (x + y) % p
                elif isinstance(n, _Sub):
                    v = (x - y) % p
                elif isinstance(n, _Mul):
                    v = x * y % p
                else:
                    assert isinstance(n, _Div)
                    v = None if y == 0 else x * pow(y, p - 2, p) % p
            else:
                v = images[id(n)]
            memo[id(n)] = v
        return memo[id(n)]

    return value(node)


def dag_atoms_oracle(node):
    """The distinct atoms of a DAG in first-visit order, by recursive
    descent into binary nodes only: a root or cut atom is a leaf."""
    seen, atoms = set(), []

    def visit(n):
        if id(n) in seen:
            return
        seen.add(id(n))
        if isinstance(n, _Binary):
            visit(n.a)
            visit(n.b)
        elif not isinstance(n, _Rat):
            atoms.append(n)

    visit(node)
    return atoms


def _compositum_oracle(a, b):
    """([Q(a, b) : Q], primitive element a + c*b) for the least c >= 1 whose
    elimination polynomial is squarefree."""
    ma, mb = a.minimal_polynomial(), b.minimal_polynomial()
    check_degree(ma.degree * mb.degree, "compositum oracle")
    c = 1
    while True:
        mbc = mb if c == 1 else mb.compose(Poly([0, Fraction(1, c)])).primitive()
        elim = sum_polynomial_oracle(ma, mbc)
        if squarefree_part(elim).degree == elim.degree:
            theta = a + b * c
            return theta.minimal_polynomial().degree, theta
        c += 1


def compositum_step_degrees(values):
    """[K(v) : K] for each value v in turn, K growing from Q by each value,
    up to the first value whose compositum is past the degree cap."""
    out = []
    theta, total = None, 1
    for v in values:
        try:
            if theta is None:
                new_total, new_theta = v.minimal_polynomial().degree, v
            else:
                new_total, new_theta = _compositum_oracle(theta, v)
        except DegreeCapExceeded:
            break
        assert new_total % total == 0
        out.append(new_total // total)
        if new_total > total:
            theta, total = new_theta, new_total
    return out


def fp_ddf_oracle(f, p):
    """Distinct-degree factorization of a monic squarefree f over F_p:
    pairs (k, monic product of the irreducible factors of degree k), k
    ascending, generated one at a time.  On any monic f of positive degree
    n the first pair is (n, f) exactly when f is irreducible: otherwise f
    has an irreducible factor of degree k <= n/2, repeated factors
    included, and a pair for some k up to that one comes first."""
    work = f
    xq = [0, 1]
    k = 0
    while len(work) > 1:
        k += 1
        if 2 * k > len(work) - 1:
            yield len(work) - 1, work
            return
        xq = fp_powmod_oracle(xq, p, work, p)
        diff = _fp_sub(xq, [0, 1], p)
        if not diff:
            yield k, work
            return
        g = _fp_gcd(work, diff, p)
        if len(g) > 1:
            yield k, g
            work = _fp_divmod(work, g, p)[0]
            xq = _fp_rem(xq, work, p)


def simple_roots_oracle(cs, p):
    """The simple roots mod p, ascending, of the polynomial with
    coefficients cs (reduced, nonzero leading coefficient).  They are roots
    of g = gcd(f, x^p - x), squarefree of degree k: found directly when
    k = 1, else by scanning the residues until k of them are."""
    f = _monic_mod(cs, p)
    x = _fp_rem([0, 1], f, p)
    g = _fp_gcd(f, _fp_sub(fp_powmod_oracle(x, p, f, p), x, p), p)
    k = len(g) - 1
    if k == 0:
        return []
    if k == 1:
        roots = [-g[0] % p]
    else:
        roots = []
        for r in range(p):
            if _horner_mod(g, r, p) == 0:
                roots.append(r)
                if len(roots) == k:
                    break
    df = _derivative(f)
    return [r for r in roots if _horner_mod(df, r, p)]


class ChainCacheOracle:
    """Chains of simple roots through a triangular set, cached per prime
    as (depth, chains) and extended level by level as steps come."""

    def __init__(self):
        self.roots = {}

    def chains(self, p, tri):
        """Every chain of simple roots at p through tri, in lexicographic
        order."""
        depth, chains = self.roots.get(p, (0, [()]))
        while chains and depth < len(tri):
            rel = tri[depth]
            grown = []
            for c in chains:
                images = {id(r.atom): v for r, v in zip(tri, c)}
                cs = rel.reduce(p, images)
                if cs is not None:
                    grown.extend(c + (r,) for r in simple_roots_oracle(cs, p))
            chains = grown
            depth += 1
        self.roots[p] = (len(tri), chains)
        return chains


class FractionPoly:
    """A polynomial as its tuple of Fraction coefficients, lowest degree
    first with no trailing zero, and the Fraction algorithms of `Poly`
    before it stored integer numerators over one denominator."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return FractionPoly(out)

    def scale(self, c):
        c = Fraction(c)
        return FractionPoly([a * c for a in self.coeffs])

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = other.coeffs
        dq = len(rem) - len(dcs)
        if dq < 0:
            return FractionPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(dcs) - 1] / other.leading
            quot[k] = c
            if c:
                for i, dc in enumerate(dcs):
                    rem[k + i] -= c * dc
        return FractionPoly(quot), FractionPoly(rem[: len(dcs) - 1])

    def derivative(self):
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        return fraction_horner_oracle(self, x)

    def compose(self, inner):
        acc = FractionPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + FractionPoly([c])
        return acc

    def substitute_power(self, k):
        if not self.coeffs:
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return FractionPoly(out)

    def reverse(self):
        return FractionPoly(reversed(self.coeffs))

    def negate_variable(self):
        return FractionPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(1 / self.leading)

    def int_coeffs(self):
        if not self.coeffs:
            return []
        den = math.lcm(*[c.denominator for c in self.coeffs])
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*nums)
        return [n // g if nums[-1] > 0 else -n // g for n in nums]
