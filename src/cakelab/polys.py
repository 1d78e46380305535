"""Dense univariate polynomials over exact rationals.

A `Poly` is integer numerators over one positive denominator coprime to
them (`Poly.nums`, `Poly.den`), lowest degree first; the zero polynomial
has no numerators, denominator 1 and degree -1.  `Poly.coeffs` is the
Fraction view of that form.  `_normal` is the one routine that brings
integers over a denominator to that form, and `_sum` the one sum of two
such pairs; `Poly`, the algebraic layer's single-atom residues and its
atoms' algebra all use them.  Each `Poly` operation normalizes once and
wraps the pair with `Poly._of`.  Arithmetic runs on the numerators, and
`_int_mul` is the one schoolbook product: `Poly` products, compositions
and the products mod m (`_fp_mul`) all call it.  No code outside this
module clears denominators; it reads `nums` and `den`.  Everything here is
exact: no floats enter at any point.  The module also houses gcds,
squarefree parts, the Sturm machinery (root counting, isolation,
refinement) and rational roots by p-adic lifting, which the factorization
pipeline and the algebraic-number layer build on.

Gcds, squarefree parts and resultants run on the primitive integer forms
(`Poly.int_coeffs`: the numerators without their content).  `_prem` is
the one integer pseudo-remainder: it scales by positive factors only and
reports their product.  The gcd is the heuristic gcd (Char, Geddes &
Gonnet 1989): one integer gcd of two values, whose digits give a
candidate that exact division accepts or rejects; after a few failed
points it is the primitive remainder sequence (Collins 1967; Brown &
Traub 1971).  Every quotient by a primitive divisor is exact over the
integers by Gauss's lemma (`_exact_quotient`, which also reports a
division that is not exact).  Squarefree parts and Yun's decomposition
take gcd(f, f') from that integer gcd.  The module also holds the one
kernel for polynomials mod m (`_fp_*`), which the factorization and the
tower's degree certificates share, and the one cache over images mod a
prime: the distinct-degree factorization of the monic image of f mod q,
or None when it is not squarefree (`_image_ddf`, bounded by
`IMAGE_CACHE_SIZE`), from which the squarefree test, the roots mod q and
the degree patterns are read.  An entry computes its degrees on demand,
so each question pays only for the degrees it reads.  One factor-degree
sieve (`_sieve_degrees`) intersects the subset sums of those patterns for
the factorization, the tower's degree certificates, the certificate
recheck and the relative sieve of root and cut-root minimal polynomials.
Powers modulo a monic f (`_fp_powmod`) multiply and reduce in one fused
step (`_fp_mulmod`), with no quotient.

Sturm sequences are built and evaluated over the integers.  `sturm_chain`
is the primitive remainder sequence: each element is a primitive integer
polynomial and a positive multiple of the rational Sturm sequence's
element, so it has the same signs everywhere.  Every sign the Sturm code
needs, at any rational point num/den, comes from one integer evaluator,
`horner`: the homogeneous den^n * p(num/den), which has the sign of
p(num/den) and is built with shifts when den is a power of two.

Root refinement has one routine, `bisect_root`: quadratic interval
refinement on the dyadic grid that bisection walks, so it ends on the
cell bisection would.  It works on integers too: points are mantissas
over the grid's final 2^e, and a polynomial is evaluated at m/2^e as
`horner` at m and 2^e, proportional to p there on one scale.  `horner`
takes such a point at its reduced form (m >> z)/2^(e-z), z the trailing
zero bits of m, and shifts the value back to that scale.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .dyadic import DyadicInterval, trailing_zeros
from .errors import ZeroPolynomialError
from .ints import primes


class Poly:
    """Immutable univariate polynomial with rational coefficients, stored
    as integer numerators `nums` over one positive denominator `den`
    coprime to them.  Poly(coeffs, den) is sum coeffs_i / den * T^i, for
    any coefficients `Fraction` accepts and a nonzero integer den; it is
    brought to that form, so equal polynomials have equal `nums` and
    `den`."""

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        nums = list(coeffs)
        if not all(type(c) is int for c in nums):
            fs = [Fraction(c) for c in nums]
            lcm = math.lcm(*[f.denominator for f in fs])
            nums = [f.numerator * (lcm // f.denominator) for f in fs]
            den *= lcm
        if not den:
            raise ZeroDivisionError("polynomial with a zero denominator")
        nums, den = _normal(nums, den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _of(pair: tuple[tuple[int, ...], int]) -> "Poly":
        """The polynomial of a pair (nums, den) already in `_normal`'s form,
        taken as it is."""
        p = object.__new__(Poly)
        object.__setattr__(p, "nums", pair[0])
        object.__setattr__(p, "den", pair[1])
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly([0] * k + [c])

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest degree first; () for zero."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Fraction:
        return self.coeff(self.degree)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._of(_sum((self.nums, self.den), (other.nums, other.den)))

    def __neg__(self) -> "Poly":
        return Poly._of((tuple([-c for c in self.nums]), self.den))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly._of(_sum((self.nums, self.den), (other.nums, other.den), -1))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._of(_normal(_int_mul(self.nums, other.nums), self.den * other.den))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly._of(_normal([x * c.numerator for x in self.nums], self.den * c.denominator))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """On the numerators a of self and b of other: s*a = q*b + r, with
        r and s from `_prem` and q the exact quotient of s*a - r by b."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r, s = _prem(self.nums, other.nums)
        q = _exact_quotient(_int_sub([s * c for c in self.nums], r), other.nums)
        s *= self.den
        return Poly._of(_normal([c * other.den for c in q], s)), Poly._of(_normal(r, s))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r, s = _prem(self.nums, other.nums)
        return Poly._of(_normal(r, s * self.den))

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
        if k < 0:
            raise ValueError(f"a polynomial has no negative power, got {k}")
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
        return Poly._of(_normal([i * c for i, c in enumerate(self.nums)][1:], self.den))

    def __call__(self, x) -> Fraction:
        """p(x) at a rational x: one integer `horner` on the numerators and
        one Fraction."""
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if not self.nums:
            return Fraction(0)
        return Fraction(horner(self.nums, x.numerator, x.denominator), self.den * x.denominator**self.degree)

    def compose(self, inner: "Poly") -> "Poly":
        """p(inner), by Horner on the numerators: acc / s * N / d + c is
        (acc * N + c * s * d) / (s * d) for inner = N / d."""
        acc: list[int] = []
        s = 1
        for c in reversed(self.nums):
            acc = _int_mul(acc, inner.nums) or [0]
            s *= inner.den
            acc[0] += c * s
        return Poly._of(_normal(acc, s * self.den))

    def substitute_power(self, k: int) -> "Poly":
        """Return p(T^k) by spreading coefficients; cheaper than compose."""
        if self.is_zero:
            return self
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.nums):
            out[i * k] = c
        return Poly._of((tuple(out), self.den))

    def reverse(self) -> "Poly":
        """Return T^deg * p(1/T).  Swaps each root with its reciprocal."""
        return Poly._of(_normal(self.nums[::-1], self.den))

    def negate_variable(self) -> "Poly":
        """Return p(-T)."""
        return Poly._of((tuple([c if i % 2 == 0 else -c for i, c in enumerate(self.nums)]), self.den))

    # -- normal forms ----------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return Poly._of(_normal(self.nums, self.nums[-1]))

    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Split p = content * primitive with primitive an integer polynomial
        of coprime coefficients and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        cs = self.int_coeffs()
        return self.leading / cs[-1], Poly(cs)

    def primitive(self) -> "Poly":
        return self.content_and_primitive()[1]

    def int_coeffs(self) -> list[int]:
        """Coefficients of the primitive integer form, lowest degree first:
        coprime, with a positive leading coefficient; [] for zero."""
        if not self.nums:
            return []
        g = math.gcd(*self.nums)
        if self.nums[-1] < 0:
            g = -g
        return [c // g for c in self.nums]

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _normal(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The one normal form of integers over a denominator, which `Poly`,
    single-atom residues and the atoms' algebra share: the same values
    nums_i / den, for a nonzero den, as a tuple with no trailing zero over
    a positive denominator coprime to its content; ((), 1) for zero."""
    if nums and not nums[-1]:
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


def _sum(a: tuple, b: tuple, sign: int = 1) -> tuple[tuple[int, ...], int]:
    """a + b, or a - b for sign -1, of two pairs (nums, den) in `_normal`'s
    form, in that form: the numerators cross-multiplied by the cofactors of
    the denominators' gcd."""
    (x, s), (y, t) = a, b
    g = math.gcd(s, t)
    u, v = t // g, sign * (s // g)
    return _normal([p * u + q * v for p, q in itertools.zip_longest(x, y, fillvalue=0)], s * u)


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


# -- integer polynomials -----------------------------------------------------
#
# Lists of int coefficients, lowest degree first, with no trailing zeros; []
# is zero.  A rational polynomial enters by `Poly.nums` or, primitive, by
# `Poly.int_coeffs`.  Divisors
# here are primitive, so by Gauss's lemma a division that is exact over the
# rationals is exact over the integers too.


def _drop_content(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients, signs kept; [] for []."""
    g = math.gcd(*a)
    return a if g <= 1 else [c // g for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials, by schoolbook: the
    package's one product loop."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _prem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(r, s) with s > 0, deg r < deg b and s*a - r a multiple of b: the
    pseudo-remainder of a by b and its scale.

    Each step cancels the top coefficient t of the remainder, first scaling
    the remainder by the positive factor |lc(b)| / gcd(lc(b), t).  So s is
    their product and no sign has to be tracked."""
    r = list(a)
    n = len(b)
    lb = b[-1]
    s = 1
    for k in range(len(r) - n, -1, -1):
        t = r.pop()
        if t:
            g = math.gcd(t, lb)
            u, v = lb // g, t // g
            if u < 0:
                u, v = -u, -v
            if u != 1:
                r = [u * c for c in r]
                s *= u
            for i in range(n - 1):
                r[k + i] -= v * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r, s


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """A primitive positive multiple of -(a mod b); [] when b divides a."""
    r, _ = _prem(a, b)
    return _drop_content([-c for c in r])


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """The integer polynomial a / b for nonzero b, or None when b does not
    divide a over the integers."""
    r = list(a)
    n = len(b)
    if len(r) < n:
        return None if r else []
    lb = b[-1]
    q = [0] * (len(r) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c, t = divmod(r.pop(), lb)
        if t:
            return None
        q[k] = c
        if c:
            for i in range(n - 1):
                r[k + i] -= c * b[i]
    return None if any(r) else q


# Evaluation points the heuristic gcd tries before the remainder sequence.
HEUGCD_POINTS = 6


def _heuristic_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """The primitive gcd of two nonzero primitive integer polynomials, with
    a positive leading coefficient, by the heuristic gcd (Char, Geddes &
    Gonnet 1989); None when HEUGCD_POINTS evaluation points all fail.

    At an integer xi > 2 * min(|a|, |b|) + 2 (max norms), h = gcd(a(xi),
    b(xi)) is one integer gcd, and the candidate G is the primitive part of
    the polynomial whose coefficients are the balanced xi-adic digits of h.
    G is accepted only when it divides both a and b, and then it is the
    gcd g: g = G * c with c(xi) dividing G's content, which is at most xi/2,
    while a nonconstant c, whose roots lie below 1 + min(|a|, |b|) < xi/2
    by Cauchy's bound, has |c(xi)| > xi/2."""
    # a start well above the bound makes a spurious common factor of the
    # two values, which spoils the digits, rarer
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(HEUGCD_POINTS):
        h = math.gcd(horner(a, xi, 1), horner(b, xi, 1))
        half = xi // 2
        digits = []
        while h:
            d = h % xi
            if d > half:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _drop_content(digits)
        if g[-1] < 0:
            g = [-c for c in g]
        # a constant divides both, so it needs no trial division
        if len(g) == 1 or (_exact_quotient(a, g) is not None and _exact_quotient(b, g) is not None):
            return g
        xi = xi * 73794 // 27011  # an irregular growth factor, about e
    return None


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials, with a positive leading
    coefficient; [] for gcd(0, 0).  The heuristic gcd (`_heuristic_gcd`)
    answers almost always; when it does not, the gcd is the last element of
    the primitive remainder sequence (Collins 1967; Brown & Traub 1971)."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _drop_content(a), _drop_content(b)
    if b:
        g = _heuristic_gcd(a, b)
        if g is not None:
            return g
    while b:
        a, b = b, _neg_prem(a, b)
    return a if not a or a[-1] > 0 else [-c for c in a]


def _int_squarefree(f: list[int]) -> list[int]:
    """The squarefree part f / gcd(f, f') of a primitive integer polynomial
    of positive degree: primitive, with the sign of f's leading coefficient.
    A constant gcd(f, f') returns f itself, with no division."""
    g = _int_gcd(f, _derivative(f))
    return f if len(g) == 1 else _exact_quotient(f, g)


# -- gcd and resultants ----------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals; gcd(0, 0) = 0.
    The integer gcd of the primitive forms, made monic once at the end."""
    return Poly(_int_gcd(a.int_coeffs(), b.int_coeffs())).monic()


def squarefree_part(p: Poly) -> Poly:
    """The monic product of the distinct irreducible factors of p; a
    constant gives 1 and zero gives zero.  p / gcd(p, p') over the integers."""
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    return Poly(_int_squarefree(p.int_coeffs())).monic()


def _int_squarefree_decomposition(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive integer polynomial f of positive
    degree with a positive leading coefficient: [(g_i, i)], g_i primitive
    with positive leading coefficients, of the factors of multiplicity i.

    b and c start as f / gcd(f, f') and f' / gcd(f, f'), and every step
    divides both exactly by a primitive gcd, so they stay integer and keep
    one common rational scale, the one Yun's identities need."""
    df = _derivative(f)
    a = _int_gcd(f, df)
    if len(a) == 1:
        return [(f, 1)]  # squarefree
    b = _exact_quotient(f, a)
    c = _int_sub(_exact_quotient(df, a), _derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        g = _int_gcd(b, c)
        if len(g) > 1:
            out.append((g, i))
        b2 = _exact_quotient(b, g)
        c = _int_sub(_exact_quotient(c, g), _derivative(b2))
        b = b2
        i += 1
    return out


def resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant of two rational polynomials, by the Euclidean recurrence
    on the primitive integer forms.  With s*a = q*b + r (`_prem`),
    res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * res(b, r) / s^deg b,
    and a content c taken out of r, or of an input, comes out as
    c^(degree of the other)."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    a, b = f.int_coeffs(), g.int_coeffs()
    acc = (f.leading / a[-1]) ** g.degree * (g.leading / b[-1]) ** f.degree
    while len(b) > 1:
        r, s = _prem(a, b)
        if not r:
            return Fraction(0)
        n, m, k = len(a) - 1, len(b) - 1, len(r) - 1
        c = math.gcd(*r)
        acc *= Fraction(b[-1] ** (n - k) * c**m, s**m)
        if n * m % 2:
            acc = -acc
        a, b = b, [x // c for x in r]
    return acc * b[0] ** (len(a) - 1)


# -- Sturm sequences and real roots -----------------------------------------


def sturm_chain(p: Poly) -> list[list[int]]:
    """Sturm sequence of the squarefree part of p, over the integers.

    Each element is a list of integer coefficients, lowest degree first,
    primitive, and a positive multiple of the matching element of the
    rational sequence f, f', -(f mod f'), ...: the primitive remainder
    sequence (Collins 1967; Brown & Traub 1971).  So both have the same
    signs at every point.  chain[0] is the squarefree part of p, with a
    positive leading coefficient; [] for the zero polynomial.

    The chain of p itself is built first.  Its last element is a multiple of
    gcd(p, p'), so when that is non-constant p had repeated roots: divide it
    out and build the chain of the squarefree part."""
    if p.is_zero:
        return []
    f = p.int_coeffs()
    while True:
        if len(f) == 1:
            return [f]
        chain = [f, _drop_content(_derivative(f))]
        while len(chain[-1]) > 1:
            r = _neg_prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(r)
        if len(chain[-1]) == 1:
            return chain
        f = _exact_quotient(f, chain[-1])
        if f[-1] < 0:
            f = [-c for c in f]


def sturm_point(chain: list[list[int]], x: Fraction) -> tuple[int, int]:
    """(sign of chain[0] at x, number of sign variations of the chain at x),
    by one integer Horner per element.  Zeros are skipped in the count."""
    num, den = x.numerator, x.denominator
    last = horner(chain[0], num, den)
    sign = (last > 0) - (last < 0)
    count = 0
    for i in range(1, len(chain)):
        v = horner(chain[i], num, den)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return sign, count


def count_roots_in(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot count roots of the zero polynomial")
    chain = sturm_chain(p)
    if len(chain[0]) <= 1:
        return 0
    s_lo, v_lo = sturm_point(chain, Fraction(lo))
    n = v_lo - sturm_point(chain, Fraction(hi))[1]
    if s_lo == 0:
        n += 1
    return n


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B], B the least power of
    two at least 1 + max |c_i| / |c_n|, computed on the integer form."""
    if p.degree < 1:
        return Fraction(1)
    cs = p.int_coeffs()
    lc = cs[-1]
    k = -(-(lc + max(abs(c) for c in cs[:-1])) // lc)
    return Fraction(1 << (k - 1).bit_length())


# `sturm_point` of one chain as a function of the point, memoized
_Probe = Callable[[Fraction], tuple[int, int]]


def _probe(chain: list[list[int]]) -> _Probe:
    """`sturm_point` of the chain, computed once per point."""
    # keyed by numerator and denominator: hashing a Fraction is slower
    seen: dict[tuple[int, int], tuple[int, int]] = {}

    def at(x: Fraction) -> tuple[int, int]:
        key = (x.numerator, x.denominator)
        v = seen.get(key)
        if v is None:
            v = seen[key] = sturm_point(chain, x)
        return v

    return at


def _variations_at_minus_infinity(chain: list[list[int]]) -> int:
    """The sign variations of the chain at -oo, where each element has the
    sign of its leading coefficient, flipped at odd degree: less those at
    x, the number of roots of chain[0] at or below x."""
    signs = [(c[-1] > 0) == (len(c) % 2 == 1) for c in chain]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _dyadic_subdivide(at: _Probe, lo: Fraction, hi: Fraction) -> list[DyadicInterval]:
    """Isolate the roots of the squarefree chain[0] inside (lo, hi],
    assuming the endpoints are not roots.  Endpoints must be dyadic.  at(x)
    is `sturm_point` of the chain at x, computed once per point."""
    out: list[DyadicInterval] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = at(a)[1] - at(b)[1]
        if n == 0:
            continue
        if n == 1:
            out.append(DyadicInterval(a, b))
            continue
        mid = (a + b) / 2
        # A rational root can sit exactly on the dyadic midpoint; shift the
        # split point until it is root-free (finitely many roots).
        while at(mid)[0] == 0:
            mid = (a + mid) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort(key=lambda iv: iv.lo)
    # make touching neighbors strictly disjoint
    for i in range(len(out) - 1):
        while out[i].hi >= out[i + 1].lo:
            out[i] = _shrink_half(at, out[i])
            out[i + 1] = _shrink_half(at, out[i + 1])
    return out


def _shrink_half(at: _Probe, iv: DyadicInterval) -> DyadicInterval:
    """Halve an isolating interval, keeping the root and non-root endpoints."""
    mid = iv.midpoint
    while at(mid)[0] == 0:
        mid = (iv.lo + mid) / 2
    if at(iv.lo)[1] - at(mid)[1] == 1:
        return DyadicInterval(iv.lo, mid)
    return DyadicInterval(mid, iv.hi)


def sturm_isolate(p: Poly, span: DyadicInterval) -> list[DyadicInterval]:
    """Pairwise disjoint dyadic intervals, each holding exactly one real root
    of p within the span, jointly holding all of them.  Interval endpoints
    are never roots; a root sitting exactly on a span endpoint is captured
    by nudging that endpoint outward by less than the local root gap.  The
    chain is evaluated once at each point the isolation visits."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    chain = sturm_chain(p)
    if len(chain[0]) <= 1:
        return []
    at = _probe(chain)
    lo, hi = span.lo, span.hi
    step = max(span.width, Fraction(1)) / 2
    while at(lo)[0] == 0:
        nlo = lo - step
        # extend past the boundary root without letting any other root in:
        # (nlo, lo] must contain the boundary root alone
        if at(nlo)[0] != 0 and at(nlo)[1] - at(lo)[1] == 1:
            lo = nlo
        else:
            step /= 2
    step = max(span.width, Fraction(1)) / 2
    while at(hi)[0] == 0:
        nhi = hi + step
        if at(nhi)[0] != 0 and at(hi)[1] - at(nhi)[1] == 0:
            hi = nhi
        else:
            step /= 2
    if lo == hi:
        return []
    return _dyadic_subdivide(at, lo, hi)


def horner(coeffs: Sequence[int], num: int, den: int) -> int:
    """den^n * p(num / den) for the integer polynomial p of the given
    coefficients (lowest degree first, n = len(coeffs) - 1) and den > 0, by
    homogeneous integer Horner.  It has the sign of p(num / den).

    A power of two den = 2^e scales by shifts, at the reduced point: with
    z trailing zero bits in num (z = e for num = 0, and never more than e),
    num / 2^e = (num >> z) / 2^(e - z), and the value there, on the smaller
    scale 2^((e - z) n), is shifted back by z n bits.  A grid point that
    bisection reaches early, such as a bracket's midpoint, costs what a
    point of its own coarse grid costs."""
    acc = 0
    if den & (den - 1):
        scale = 1
        for c in reversed(coeffs):
            acc = acc * num + c * scale
            scale *= den
        return acc
    e = den.bit_length() - 1
    z = 0
    if e and not num & 1 and len(coeffs) > 1:
        z = trailing_zeros(num, e)
        num >>= z
        e -= z
    sh = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << sh)
        sh += e
    return acc << (z * (len(coeffs) - 1))


def bisect_root(
    side: Callable[[int, int], int], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink the dyadic bracket [lo, hi] of the one sign change of a
    function f to the cell at most width wide that halving it would end on,
    by quadratic interval refinement (Abbott 2006).

    side(m, e) returns a number (an integer or a Fraction) with the exact
    sign of f at m / 2^e, negative at lo and positive at hi.  Its magnitude
    is proportional to f there, on one scale within a call: every call
    passes the same e.  It is never called at lo or hi.  Returns (g, g)
    when f vanishes at a point g that halving would test.

    Halving L times, L the least count that brings [lo, hi] to at most
    width, walks a grid of 2^L equal cells; e is the exponent of that grid.
    A cell with both end values known is split into N = 2^s parts, and the
    secant through those values picks the part next to its estimate.  When
    the signs at that part's ends bracket the root, the part becomes the
    cell and N squares; otherwise the cell is halved once and N falls to its
    square root, but not below 4.  A cell is also halved while an end value
    is unknown.  Parts are never narrower than the final cell, so every
    point tested is a grid point and the result is exactly the cell (or
    grid-point root) that halving finds, whatever width an earlier call
    refined the bracket to.  The early probes of a fine grid are points of
    coarse ones, m with many trailing zero bits, which a side that
    evaluates at the reduced point (`horner`) takes at their own coarse
    cost: one call straight to a fine width costs about what the last of
    a series of doubling widths would."""
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    elo, ehi = lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1
    e = max(elo, ehi)
    a, b = lo.numerator << (e - elo), hi.numerator << (e - ehi)
    # halving keeps b - a and raises e, until (b - a) / 2^e <= width
    ratio = -(-(b - a) * width.denominator // (width.numerator << e))
    levels = max(ratio - 1, 0).bit_length()
    e += levels
    a, b = a << levels, b << levels
    values: dict[int, int] = {}

    def f(m: int) -> int:
        v = values.get(m)
        if v is None:
            v = values[m] = side(m, e)
        return v

    s = 2
    while levels:
        t = min(s, levels)
        if t > 1 and a in values and b in values:
            fa, fb = values[a], values[b]
            part = (b - a) >> t
            # the grid point nearest the secant root a + (b - a) fa / (fa - fb)
            g = a + part * ((-fa * (2 << t) + fb - fa) // (2 * (fb - fa)))
            fg = f(g)
            if fg == 0:
                break
            h = g + part if fg < 0 else g - part
            fh = f(h)
            if fh == 0:
                g = h
                break
            if (fh < 0) != (fg < 0):
                a, b = min(g, h), max(g, h)
                levels -= t
                s *= 2
                continue
            s = max(s // 2, 2)
        g = (a + b) >> 1
        fg = f(g)
        if fg == 0:
            break
        if fg < 0:
            a = g
        else:
            b = g
        levels -= 1
    else:
        return Fraction(a, 1 << e), Fraction(b, 1 << e)
    # broken off: f vanishes at the grid point g
    return Fraction(g, 1 << e), Fraction(g, 1 << e)


def refine_root(p: Poly, iv: DyadicInterval, width: Fraction) -> DyadicInterval:
    """Shrink an isolating interval below the requested width, to the cell
    bisection would end on (`bisect_root`).

    Requires a certificate that iv isolates exactly one root of p: either a
    sign change of the squarefree part or a Sturm count of one."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot refine a root of the zero polynomial")
    width = Fraction(width)
    chain = sturm_chain(p)
    s_lo, v_lo = sturm_point(chain, iv.lo)
    s_hi, v_hi = sturm_point(chain, iv.hi)
    if s_lo == 0 or s_hi == 0:
        raise ValueError("interval endpoints must not be roots")
    if v_lo - v_hi != 1:
        raise ValueError("interval does not isolate exactly one root")
    cs = chain[0] if s_lo < 0 else [-c for c in chain[0]]
    lo, hi = bisect_root(lambda m, e: horner(cs, m, 1 << e), iv.lo, iv.hi, width)
    if lo == hi:
        # the root is exactly a grid point: centre an interval on it
        quarter = iv.width / 4
        while quarter * 2 > width:
            quarter /= 2
        return DyadicInterval(lo - quarter, hi + quarter)
    return DyadicInterval(lo, hi)


# -- polynomials modulo m ------------------------------------------------------
#
# Plain int lists (lowest degree first), reduced mod m, no trailing zeros:
# the one mod-m kernel of the package.  m is a prime p for squarefree
# certificates, modular factorization and tower degree certificates, and
# p^k for Hensel lifting; division needs only an invertible leading
# coefficient.


def _horner_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _monic_mod(cs: list[int], p: int) -> list[int]:
    inv = pow(cs[-1], -1, p)
    return [c * inv % p for c in cs]


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_add(a: list[int], b: list[int], m: int) -> list[int]:
    return _fp_trim([(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _fp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _fp_trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _fp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _fp_trim([c % m for c in _int_mul(a, b)])


def _fp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    a = a[:]
    inv = pow(b[-1], -1, m)
    n = len(b)
    q = [0] * max(len(a) - n + 1, 0)
    while len(a) >= n:
        c = a[-1] * inv % m
        if c:
            off = len(a) - n
            q[off] = c
            for i, y in enumerate(b, off):
                a[i] = (a[i] - c * y) % m
        a.pop()
        _fp_trim(a)
    return _fp_trim(q), a


def _fp_rem(a: list[int], b: list[int], m: int) -> list[int]:
    """a mod (b, m): `_fp_divmod`'s loop with no quotient kept."""
    a = a[:]
    inv = pow(b[-1], -1, m)
    n = len(b)
    low = b[:-1]
    while len(a) >= n:
        c = a.pop() * inv % m
        if c:
            for i, y in enumerate(low, len(a) - n + 1):
                a[i] = (a[i] - c * y) % m
        _fp_trim(a)
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _fp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _fp_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 over F_p, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _fp_mulmod(a: list[int], b: list[int], f: list[int], m: int) -> list[int]:
    """a * b mod (f, m) for a monic f of degree n, in one fused step: the
    schoolbook product goes into one list, its coefficients of degree n and
    up fold back through f from the top, each reduced mod m as it is
    folded, and the rest are reduced once at the end.  No quotient is
    kept."""
    n = len(f) - 1
    low = f[:-1]
    prod = _int_mul(a, b)
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod.pop() % m
        if c:
            for i, y in enumerate(low, k - n):
                prod[i] -= c * y
    return _fp_trim([c % m for c in prod])


def _fp_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a(x)^e mod (mod, p) for a monic modulus of positive degree, by
    square and multiply with the fused step `_fp_mulmod`."""
    assert len(mod) > 1 and mod[-1] == 1, "the modulus must be monic"
    out = [1]
    base = _fp_mulmod(a, [1], mod, p)
    while e:
        if e & 1:
            out = _fp_mulmod(out, base, mod, p)
        e >>= 1
        if e:
            base = _fp_mulmod(base, base, mod, p)
    return out


def _fp_edf(g: Sequence[int], k: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of g, a monic product of distinct
    irreducibles of degree k over F_p (Cantor-Zassenhaus), as new lists.
    A random a splits g by gcd(g, a^((p^k-1)/2) - 1), or for p = 2 by the
    gcd with the trace a + a^2 + ... + a^(2^(k-1)), each factor landing on
    either side with probability about 1/2."""
    g = list(g)
    n = len(g) - 1
    assert g[-1] == 1, "the product must be monic"
    if n == k:
        return [g]
    while True:
        a = _fp_trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            b = t = a
            for _ in range(k - 1):
                t = _fp_mulmod(t, t, g, 2)
                b = _fp_sub(b, t, 2)  # subtraction is addition mod 2
        else:
            b = _fp_sub(_fp_powmod(a, (p**k - 1) // 2, g, p), [1], p)
        d = _fp_gcd(g, b, p)
        if 1 < len(d) < len(g):
            return _fp_edf(d, k, p, rng) + _fp_edf(_fp_divmod(g, d, p)[0], k, p, rng)


# -- images modulo a prime ----------------------------------------------------
#
# Integer polynomials with one monic image mod q share every result below:
# a player's cut polynomials F - c differ only in their constant term, so
# modulo q they take at most q images.  One cache holds them: for each
# (image as a tuple, q), up to IMAGE_CACHE_SIZE entries, None when the
# image is not squarefree, and otherwise an `_ImageDDF` that computes the
# distinct-degree factorization one degree at a time, only as far as a
# question reads it.  The rational-root search and the tower's root chains
# read degree 1, and the degree sieves of the factorization and the tower
# all of it.  The relative sieve of a root's or cut root's minimal
# polynomial (`algebraic._relatively_irreducible`) reads both: the roots r
# mod q of the radicand's or target's minimal polynomial, and every degree
# of the images F - r, which a cut root shares with the cut polynomials
# F - c of its CDF.  Every value an entry returns is a tuple, so no caller
# can change it.

IMAGE_CACHE_SIZE = 2048

# a distinct-degree factorization: pairs (k, monic product of the degree-k
# irreducible factors), k ascending
DDF = tuple[tuple[int, tuple[int, ...]], ...]


class _ImageDDF:
    """The distinct-degree factorization of a monic squarefree f over F_q,
    extended one degree k at a time as far as it is read.  Its state is one
    tuple (k, parts, work, xq), replaced whole after each degree: parts
    holds the pairs of degree at most k, work is the product of the
    irreducible factors of degree above k and xq is x^(q^k) mod work.  A
    time limit that interrupts a degree midway leaves the state of the
    degree before, so a cached entry never holds a half-done degree."""

    __slots__ = ("q", "_state")

    def __init__(self, f: tuple[int, ...], q: int):
        self.q = q
        self._state: tuple[int, DDF, tuple[int, ...], tuple[int, ...]] = (0, (), f, (0, 1))

    def _extend(self) -> None:
        k, parts, work, xq = self._state
        q = self.q
        n = len(work) - 1
        k += 1
        if 2 * k > n:
            # every factor left has degree k or more, so work is irreducible
            self._state = (n, parts + ((n, work),), (1,), ())
            return
        w = list(work)
        x = _fp_powmod(list(xq), q, w, q)
        diff = _fp_sub(x, [0, 1], q)
        if not diff:
            # every factor left has a degree dividing k and none below k
            self._state = (k, parts + ((k, work),), (1,), ())
            return
        g = _fp_gcd(w, diff, q)
        if len(g) > 1:
            parts += ((k, tuple(g)),)
            w = _fp_divmod(w, g, q)[0]
            x = _fp_rem(x, w, q)
        self._state = (k, parts, tuple(w), tuple(x))

    def parts(self, upto: int | None = None) -> DDF:
        """The pairs (k, monic product of the degree-k irreducible factors),
        k ascending: those with k <= upto, or all of them."""
        while len(self._state[2]) > 1 and (upto is None or self._state[0] < upto):
            self._extend()
        parts = self._state[1]
        return parts if upto is None else tuple(part for part in parts if part[0] <= upto)


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _image_ddf(f: tuple[int, ...], q: int) -> _ImageDDF | None:
    """The distinct-degree factorization of the monic image f over F_q, not
    yet extended to any degree; None when f is not squarefree: f' is zero
    or shares a factor with f."""
    df = _fp_trim([i * c % q for i, c in enumerate(f)][1:])
    if not df or len(_fp_gcd(list(f), df, q)) > 1:
        return None
    return _ImageDDF(f, q)


def _modp_image(f: list[int], q: int) -> _ImageDDF | None:
    """The cached distinct-degree factorization modulo q of the integer
    polynomial f, made monic.  None when q is unusable: q divides the
    leading coefficient or the reduction is not squarefree."""
    if f[-1] % q == 0:
        return None
    return _image_ddf(tuple(_monic_mod(f, q)), q)


def _modp_ddf(f: list[int], q: int) -> DDF | None:
    """Every part of the distinct-degree factorization modulo q of f
    (`_modp_image`); None when q is unusable."""
    image = _modp_image(f, q)
    return None if image is None else image.parts()


def _modp_roots(f: list[int], q: int) -> tuple[int, ...] | None:
    """The roots mod q of the integer polynomial f, ascending, all simple:
    the roots of the degree-1 part of its distinct-degree factorization.
    Below q = 512 they are found by trying residues until all are, past it
    by splitting that part (`_fp_edf`): a scan costs up to q evaluations,
    a split a few powers mod the part, and the scan measured faster up to
    q of about 500 for two to six roots.  None when q is unusable
    (`_modp_image`)."""
    image = _modp_image(f, q)
    if image is None:
        return None
    linear = image.parts(1)
    if not linear:
        return ()
    g = linear[0][1]
    n = len(g) - 1
    if n == 1:
        return (-g[0] % q,)
    if q > 512:
        return tuple(sorted(-h[0] % q for h in _fp_edf(g, 1, q, random.Random(0))))
    return tuple(itertools.islice((a for a in range(q) if _horner_mod(g, a, q) == 0), n))


def _pattern(ddf: DDF) -> tuple[int, ...]:
    """The degrees of the irreducible factors of a distinct-degree
    factorization, ascending."""
    return tuple(k for k, g in ddf for _ in range((len(g) - 1) // k))


def _sieve_degrees(
    patterns: Iterable[tuple[object, tuple[int, ...]]], degrees: set[int], budget: int | None = None
) -> tuple[set[int], list[tuple[object, tuple[int, ...]]]]:
    """Musser's factor-degree sieve ("On the efficiency of a polynomial
    irreducibility test", J. ACM 25, 1978).  patterns is a stream of
    (key, pattern): the factor-degree patterns (`_pattern`) of squarefree
    images, of full degree, of one polynomial over a field at primes where
    the field embeds in the p-adic numbers.  A factor over the field keeps
    its degree over the p-adic numbers, where by Hensel's lemma it is a
    product of lifts of irreducible factors of the image, so its degree is
    a subset sum of every pattern.  The sieve keeps the degrees of the set
    that are, and stops once none is left or after budget patterns.  It
    returns the degrees left, empty when the polynomial has no factor of
    any degree asked about, and the witnesses (key, pattern) of the
    patterns that removed a degree, which alone leave the same set."""
    witnesses: list[tuple[object, tuple[int, ...]]] = []
    if not degrees:
        return degrees, witnesses
    for read, (key, pattern) in enumerate(patterns, 1):
        sums = 1  # bit s is set when s is a subset sum
        for k in pattern:
            sums |= sums << k
        left = {d for d in degrees if sums >> d & 1}
        if left != degrees:
            degrees = left
            witnesses.append((key, pattern))
        if not degrees or read == budget:
            break
    return degrees, witnesses


# -- rational roots ------------------------------------------------------------


def rational_roots(p: Poly) -> list[Fraction]:
    """All distinct rational roots of p, sorted ascending, by p-adic
    lifting (Loos 1983).  No integer is factored.

    Take the primitive integer form c_n x^n + ... + c_0 with c_0 != 0.  A
    rational root r makes c_n r an integer of absolute value at most
    B = |c_n| + max |c_i| (the Cauchy bound).  At the first prime q not
    dividing c_n where p reduces to a squarefree image, each rational root
    reduces to one of its roots mod q (`_modp_roots`), all simple.  Newton
    lifting takes each to its q-adic root mod q^(2^i) until the modulus
    exceeds 2B; the symmetric residue of c_n x is then c_n r, and an exact
    integer Horner check keeps the true roots.  An image that is not
    squarefree moves on to the next prime: if p is squarefree, just the
    finitely many primes dividing its discriminant give one.  The third
    such prime also replaces p, once, by its squarefree part, so that a p
    with a repeated factor, which is not squarefree mod any prime, still
    ends; a squarefree p rarely meets three, and its squarefree part is p
    itself."""
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
    misses = 0
    for q in primes():
        if coeffs[-1] % q != 0:
            residues = _modp_roots(coeffs, q)
            if residues is not None:
                break
            misses += 1
            if misses == 3:
                coeffs = _int_squarefree(coeffs)
    deriv = _derivative(coeffs)
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
        if horner(coeffs, r.numerator, r.denominator) == 0:
            roots.append(r)
    return sorted(roots)
