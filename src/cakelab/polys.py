"""Dense univariate polynomials over exact rationals.

Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple and has degree -1.  Everything here is exact: no
floats enter at any point.  The module also houses the Sturm machinery
(sign variations, root counting, isolation, refinement) and rational
roots by p-adic lifting, which the factorization pipeline and the
algebraic-number layer build on.

Root refinement has one bisection routine, `bisect_root`.  It works on
integers: the bracket is a pair of mantissas over a shared 2^e, and a
polynomial is evaluated at the dyadic midpoint m/2^e as the integer
2^(e*n) * p(m/2^e) (`dyadic_horner`), which has the sign of p there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .dyadic import DyadicInterval
from .errors import ZeroPolynomialError
from .ints import is_probable_prime


class Poly:
    """Immutable univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly([0] * k + [Fraction(c)])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly([a * c for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dlc = other.leading
        dcs = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(dcs) - 1] / dlc
            quot[k] = c
            if c:
                for i, dc in enumerate(dcs):
                    rem[k + i] -= c * dc
        return Poly(quot), Poly(rem[: len(dcs) - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def __pow__(self, k: int) -> "Poly":
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus and substitution --------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(c)
        return acc

    def substitute_power(self, k: int) -> "Poly":
        """Return p(T^k) by spreading coefficients; cheaper than compose."""
        if self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(out)

    def translate(self, r) -> "Poly":
        """Return p(T + r)."""
        return self.compose(Poly([Fraction(r), 1]))

    def reverse(self) -> "Poly":
        """Return T^deg * p(1/T).  Swaps each root with its reciprocal."""
        return Poly(tuple(reversed(self.coeffs)))

    def negate_variable(self) -> "Poly":
        """Return p(-T)."""
        return Poly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- normal forms ----------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Split p = content * primitive with primitive an integer polynomial
        of coprime coefficients and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        den = math.lcm(*[c.denominator for c in self.coeffs])
        nums = [int(c * den) for c in self.coeffs]
        g = 0
        for n in nums:
            g = math.gcd(g, abs(n))
        if nums[-1] < 0:
            g = -g
        prim = Poly([Fraction(n // g) for n in nums])
        return Fraction(g, den), prim

    def primitive(self) -> "Poly":
        return self.content_and_primitive()[1]

    def int_coeffs(self) -> list[int]:
        """Coefficients of the primitive integer form, lowest degree first."""
        return [int(c) for c in self.primitive().coeffs]

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def format_poly(p: Poly, var: str = "x") -> str:
    """Render in the text grammar: terms c, c*x^k, x^k, x joined by +/-."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# -- gcd and resultants ----------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    return p.exact_div(poly_gcd(p, p.derivative()).scale(p.leading)).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: return [(g_i, i)] with p = lc * prod g_i^i, g_i monic
    squarefree and pairwise coprime (factors of multiplicity i)."""
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    c = dp.exact_div(a) - b.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, c)
        if g.degree > 0:
            out.append((g, i))
        b2 = b.exact_div(g)
        c = c.exact_div(g) - b2.derivative()
        b = b2
        i += 1
    return out


def resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant of two rational polynomials via the Euclidean recurrence."""
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


# -- Sturm sequences and real roots -----------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of the squarefree part of p; chain[0] is that part, monic.

    The chain of p itself is built first.  Its last element is a multiple of
    gcd(p, p'), so when that is non-constant p had repeated roots: divide it
    out and build the chain of the squarefree part."""
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


def sign_variations(values: Sequence[Fraction]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1) if (signs[i] > 0) != (signs[i + 1] > 0))


def sturm_count(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    va = sign_variations([q(lo) for q in chain])
    vb = sign_variations([q(hi) for q in chain])
    return va - vb


def count_roots_in(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot count roots of the zero polynomial")
    chain = sturm_chain(p)
    f = chain[0]
    if f.degree <= 0:
        return 0
    n = sturm_count(chain, Fraction(lo), Fraction(hi))
    if f(lo) == 0:
        n += 1
    return n


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B], B a power of two."""
    if p.degree < 1:
        return Fraction(1)
    lc = abs(p.leading)
    m = max(abs(c) / lc for c in p.coeffs[:-1]) if p.degree >= 1 else Fraction(0)
    b = 1 + m
    out = Fraction(1)
    while out < b:
        out *= 2
    return out


def _dyadic_subdivide(p: Poly, chain: list[Poly], lo: Fraction, hi: Fraction) -> list[DyadicInterval]:
    """Isolate the roots of squarefree p inside (lo, hi], assuming the
    endpoints are not roots.  Endpoints must be dyadic."""
    out: list[DyadicInterval] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = sturm_count(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            out.append(DyadicInterval(a, b))
            continue
        mid = (a + b) / 2
        # A rational root can sit exactly on the dyadic midpoint; shift the
        # split point until it is root-free (finitely many roots).
        while p(mid) == 0:
            mid = (a + mid) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort(key=lambda iv: iv.lo)
    # make touching neighbors strictly disjoint
    for i in range(len(out) - 1):
        while out[i].hi >= out[i + 1].lo:
            out[i] = _shrink_half(p, chain, out[i])
            out[i + 1] = _shrink_half(p, chain, out[i + 1])
    return out


def _shrink_half(p: Poly, chain: list[Poly], iv: DyadicInterval) -> DyadicInterval:
    """Halve an isolating interval, keeping the root and non-root endpoints."""
    mid = iv.midpoint
    while p(mid) == 0:
        mid = (iv.lo + mid) / 2
    if sturm_count(chain, iv.lo, mid) == 1:
        return DyadicInterval(iv.lo, mid)
    return DyadicInterval(mid, iv.hi)


def sturm_isolate(p: Poly, span: DyadicInterval) -> list[DyadicInterval]:
    """Pairwise disjoint dyadic intervals, each holding exactly one real root
    of p within the span, jointly holding all of them.  Interval endpoints
    are never roots; a root sitting exactly on a span endpoint is captured
    by nudging that endpoint outward by less than the local root gap."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    chain = sturm_chain(p)
    f = chain[0]
    if f.degree <= 0:
        return []
    lo, hi = span.lo, span.hi
    step = max(span.width, Fraction(1)) / 2
    while f(lo) == 0:
        nlo = lo - step
        # extend past the boundary root without letting any other root in:
        # (nlo, lo] must contain the boundary root alone
        if f(nlo) != 0 and sturm_count(chain, nlo, lo) == 1:
            lo = nlo
        else:
            step /= 2
    step = max(span.width, Fraction(1)) / 2
    while f(hi) == 0:
        nhi = hi + step
        if f(nhi) != 0 and sturm_count(chain, hi, nhi) == 0:
            hi = nhi
        else:
            step /= 2
    if lo == hi:
        return []
    return _dyadic_subdivide(f, chain, lo, hi)


def dyadic_horner(coeffs: Sequence[int], m: int, e: int) -> int:
    """2^(e*n) * p(m / 2^e) for the integer polynomial p of the given
    coefficients (lowest degree first, n = len(coeffs) - 1), by integer
    Horner.  It has the sign of p(m / 2^e)."""
    acc = 0
    sh = 0
    for c in reversed(coeffs):
        acc = acc * m + (c << sh)
        sh += e
    return acc


def bisect_root(
    side: Callable[[int, int], int], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Halve the dyadic bracket [lo, hi] until it is at most width wide,
    keeping the sign change of a function inside it.  side(m, e) returns a
    number with the sign of the function at m / 2^e, which is negative at lo
    and positive at hi.  Returns (mid, mid) when it vanishes at a midpoint.

    The bracket is kept as integer mantissas over a shared power of two, so
    side sees the same midpoints as plain Fraction bisection would."""
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    elo, ehi = lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1
    e = max(elo, ehi)
    a, b = lo.numerator << (e - elo), hi.numerator << (e - ehi)
    # b - a is the same at every exponent: each halving doubles one end
    # and moves the other to the sum
    gap = (b - a) * width.denominator
    while gap > width.numerator << e:
        mid = a + b
        e += 1
        v = side(mid, e)
        if v == 0:
            return Fraction(mid, 1 << e), Fraction(mid, 1 << e)
        if v < 0:
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid
    return Fraction(a, 1 << e), Fraction(b, 1 << e)


def refine_root(p: Poly, iv: DyadicInterval, width: Fraction) -> DyadicInterval:
    """Shrink an isolating interval below the requested width by bisection.

    Requires a certificate that iv isolates exactly one root of p: either a
    sign change of the squarefree part or a Sturm count of one."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot refine a root of the zero polynomial")
    width = Fraction(width)
    chain = sturm_chain(p)
    f = chain[0]
    f_lo = f(iv.lo)
    if f_lo == 0 or f(iv.hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    if sturm_count(chain, iv.lo, iv.hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    cs = f.int_coeffs()
    if f_lo > 0:
        cs = [-c for c in cs]
    lo, hi = bisect_root(lambda m, e: dyadic_horner(cs, m, e), iv.lo, iv.hi, width)
    if lo == hi:
        # the root is exactly a dyadic midpoint: centre an interval on it
        quarter = iv.width / 4
        while quarter * 2 > width:
            quarter /= 2
        return DyadicInterval(lo - quarter, hi + quarter)
    return DyadicInterval(lo, hi)


def _horner_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def rational_roots(p: Poly) -> list[Fraction]:
    """All distinct rational roots, sorted ascending, by p-adic lifting
    (Loos 1983).  No integer is factored.

    Take the primitive integer form c_n x^n + ... + c_0 with c_0 != 0.  A
    rational root r makes c_n r an integer of absolute value at most
    B = |c_n| + max |c_i| (the Cauchy bound).  At the first prime q not
    dividing c_n where every root mod q is simple, each rational root
    reduces to one of those roots, found by trying every residue.  Newton
    lifting takes each to its q-adic root mod q^(2^i) until the modulus
    exceeds 2B; the symmetric residue of c_n x is then c_n r, and an exact
    integer Horner check keeps the true roots.  A multiple root mod q
    switches to the squarefree part once, after which only the finitely
    many primes dividing its discriminant are passed over."""
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has every rational root")
    coeffs = p.int_coeffs()
    roots: list[Fraction] = []
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    squarefree = False
    q = 2
    while True:
        if coeffs[-1] % q != 0:
            residues = [a for a in range(q) if _horner_mod(coeffs, a, q) == 0]
            if all(_horner_mod(deriv, a, q) != 0 for a in residues):
                break
            if not squarefree:
                coeffs = squarefree_part(Poly(coeffs)).int_coeffs()
                deriv = [i * c for i, c in enumerate(coeffs)][1:]
                squarefree = True
        q += 1
        while not is_probable_prime(q):
            q += 1
    cn = coeffs[-1]
    bound = 2 * (cn + max(abs(c) for c in coeffs[:-1]))
    for a in residues:
        m = q
        while m <= bound:
            m *= m
            a = (a - _horner_mod(coeffs, a, m) * pow(_horner_mod(deriv, a, m), -1, m)) % m
        s = cn * a % m
        if s > m // 2:
            s -= m
        r = Fraction(s, cn)
        num, den = r.numerator, r.denominator
        acc, den_pow = cn, 1
        for c in reversed(coeffs[:-1]):
            den_pow *= den
            acc = acc * num + c * den_pow
        if acc == 0:
            roots.append(r)
    return sorted(roots)
