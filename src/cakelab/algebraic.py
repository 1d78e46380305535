"""Exact real algebraic numbers.

A value is a DAG of rational leaves, field operations, real d-th roots,
and isolated polynomial roots.  Every public answer is exact: signs are
decided by interval refinement with a symbolic fallback, and each value
can produce its minimal polynomial over the rationals together with a
dyadic isolating interval.

Key internals:

* Values that are rational functions of a single irrational "atom" are
  normalized into the number field Q[y]/(m_atom(y)).  In that form a zero
  test is a polynomial comparison and never needs refinement.  The form
  is (atom, p), p the value's residue modulo m_atom as a `Poly`, in the
  normal form that `Poly` and the atoms' algebra share (`polys._normal`),
  and everything done with it runs on integers: sums and products are
  `Poly` sums and products, a product reduced modulo the primitive
  m_atom by an integer pseudo-remainder; the characteristic
  polynomial comes from traces (power sums); a division's inverse comes
  from the characteristic polynomial by Cayley-Hamilton, and a polynomial
  at such a value from Horner on residues.  No extended Euclid runs.
  An atom of degree 1, a cut root at a rational point, reduces every
  form built on it to a constant.
* Minimal polynomials come from one algebra.  A single-atom value's is
  the squarefree part of its characteristic polynomial in Q[y]/(m(y)) of
  its atom, a power of it since m_atom is irreducible.  A sum, product or
  quotient mixing atoms takes its characteristic polynomial in the
  algebra Q[y_1..y_k]/(m_1(y_1), ..., m_k(y_k)) (`_Algebra`) of its
  distinct atoms, or of its maximal single-atom subexpressions when they
  span fewer dimensions, of dimension D = deg m_1 ... deg m_k, when D is
  within the degree cap and no divisor is a zero divisor there; else of
  its two operands, of dimension deg m_a * deg m_b.  An atom's
  annihilator is its own: the radicand's minimal polynomial at y^d, the
  isolated root's polynomial, or the target's composed with the CDF.
  For a root or a cut root, m(F(t)) with F = t^d or the CDF, a degree
  sieve over the field Q[y]/(m) of the radicand or target first asks
  whether F(t) - y is irreducible there (`_relatively_irreducible`);
  then m(F(t)) is the minimal polynomial.  Every other case but the
  single-atom one factors the one annihilating polynomial and selects
  the factor that vanishes at the value.
* One routine, `_pin`, names a value among the roots of coprime
  squarefree polynomials: it rounds the value's enclosure at 2^-k outward
  to the 2^-k grid, k doubling from 8, until exactly one of their roots
  lies inside.  It selects the minimal polynomial among the factors and
  gives the isolating interval; two values with one minimal polynomial
  are equal when one's enclosure falls inside the other's isolating
  interval.
* A real root of a polynomial in a span takes one Sturm chain of the
  squarefree part: it counts the roots in the span and gives the root's
  ordinal, by which a quadratic root is chosen with no refining and an
  isolated root is interned.  A new isolated root is isolated in one cell
  of the root bound's span, [0, 1] for a cut at a rational target, the
  cell that isolating the whole span passes through.
* One walk, `_walk`, evaluates a DAG bottom-up with an explicit stack,
  so deep expression DAGs need no recursion.  Interval enclosures,
  single-atom forms, residues modulo a prime and atom lists are each one
  function of a node and its operands' values, and operand a is finished
  before b is entered; so is a value in its atoms' algebra.  A minimal
  polynomial still recurses once per level and raises `ExpressionTooDeep`
  past the interpreter's limit.
* The algebra's traces are power sums (Newton's identities) of roots
  scaled to algebraic integers, and each generator set is checked
  against the degree cap before any arithmetic.
* A sign refines first, for every node, from its cached effort up to
  2^-128.  Only a value that this cannot separate from 0 takes an exact
  route.  A single-atom form decides it: a constant form is its sign,
  and a nonconstant one proves it nonzero.  With no form, the node's
  operands decide a zero, never its own minimal polynomial: a product or
  quotient multiplies their signs, and a sum or difference compares its
  operands (`_equal_values`).  Refinement with no limit runs only on a
  value known to be nonzero.  A comparison runs the same loop on its two
  operands' own enclosures, which decide where the difference's would, so
  it builds a difference node only for the exact route (`_compare`).
* Root atoms over rational radicands are canonicalized and interned, so
  structurally equal radicals are pointer-equal and their differences
  fold to zero without any elimination.  Folds cancel by operand
  identity only: a node that would undo its operand's last operation,
  as (p+q)-q or (p*q)/q would, is replaced by the p that operand holds.
  Rational coefficients merge, c*(d*p) = (cd)*p.
* The tower reads the DAG through the walk: `_dag_atoms` lists the atoms
  a value is built from, and `_residue_mod` carries its field operations
  out modulo a prime, each atom replaced by a residue.

The intern tables and node caches are process-wide and unlocked: the
module is single-threaded.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import operator
from fractions import Fraction
from typing import Optional, Union

from .dyadic import DyadicInterval, trailing_zeros
from .errors import DegreeCapExceeded, ExpressionTooDeep, ZeroPolynomialError
from .factoring import check_degree, degree_cap, factor_over_Q
from .ints import SMALL_PRIMES, int_nth_root, is_probable_prime, primes
from .polys import (
    Poly,
    _drop_content,
    _dyadic_subdivide,
    _int_mul,
    _int_squarefree,
    _modp_image,
    _modp_roots,
    _normal,
    _pattern,
    _prem,
    _probe,
    _sieve_degrees,
    _sum,
    _variations_at_minus_infinity,
    bisect_root,
    horner,
    root_bound,
    rational_roots,
    sturm_chain,
    sturm_point,
)

# The counter of the run in progress, or None: it receives one tick per
# field operation performed on algebraic numbers, and a session reports it
# as mediator work.  A thread or context that did not open it sees None.
_op_counter = contextvars.ContextVar("cakelab_op_counter", default=None)


def _tick(n: int = 1) -> None:
    c = _op_counter.get()
    if c is not None:
        c[0] += n


# -- integer root helpers ----------------------------------------------------


def exact_nth_root(r: Fraction, d: int) -> Optional[Fraction]:
    """The exact rational d-th real root of r, or None if irrational."""
    if r < 0:
        if d % 2 == 0:
            return None
        s = exact_nth_root(-r, d)
        return None if s is None else -s
    pn = int_nth_root(r.numerator, d)
    pd = int_nth_root(r.denominator, d)
    if pn**d == r.numerator and pd**d == r.denominator:
        return Fraction(pn, pd)
    return None


def nth_root_bounds(r: Fraction, d: int, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of width 2^-k around the real d-th root of r."""
    if r < 0:
        lo, hi = nth_root_bounds(-r, d, k)
        return -hi, -lo
    scaled = (r.numerator << (d * k)) // r.denominator
    m = int_nth_root(scaled, d)
    return Fraction(m, 1 << k), Fraction(m + 1, 1 << k)


def _reduce_radical(r: Fraction, d: int) -> tuple[Fraction, int]:
    """Canonicalize r^(1/d), r not +-1, as s^(1/e) with e | d and s no q-th
    power for any prime q dividing e: exact q-th roots are taken while they
    exist, so e.g. the fourth root of 4 becomes the square root of 2.  With
    r = t^g and t no perfect power, s = t^(g/gcd(g, d)) and e = d/gcd(g, d).
    A q-th power other than +-1 has a numerator or denominator of at least
    2^q, so only the primes q of d below the bit length of the larger are
    tried, by trial division of d that stops there: d is never factored."""
    m, q = d, 2
    while q <= m and q < max(abs(r.numerator), r.denominator).bit_length():
        if m % q == 0:  # q is prime: m has no smaller prime left
            while m % q == 0:
                m //= q
            while d % q == 0 and (s := exact_nth_root(r, q)) is not None:
                r, d = s, d // q
        q += 1
    return r, d


# -- expression nodes --------------------------------------------------------

_SAF_UNAVAILABLE = object()


class _Node:
    __slots__ = ("_mp", "_saf", "_ivc", "_iso", "_leaves")

    def __init__(self) -> None:
        self._mp = None  # cached minpoly, or a cached DegreeCapExceeded
        self._saf = None  # cached single-atom form
        self._ivc = (-1, None)  # (effort level, enclosure), one atomic slot
        self._iso = None  # cached isolating interval
        self._leaves = None  # cached maximal single-atom subexpressions


class _Rat(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        super().__init__()
        self.value = value


class _Binary(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a: _Node, b: _Node):
        super().__init__()
        self.a = a
        self.b = b


class _Add(_Binary):
    __slots__ = ()


class _Sub(_Binary):
    __slots__ = ()


class _Mul(_Binary):
    __slots__ = ()


class _Div(_Binary):
    __slots__ = ()


class _RootAtom(_Node):
    """Real d-th root of a rational or of another value."""

    __slots__ = ("operand", "index")

    def __init__(self, operand: Union[Fraction, _Node], index: int):
        super().__init__()
        self.operand = operand
        self.index = index


class _PolyRootAtom(_Node):
    """A specific real root of a rational polynomial, tracked by bracket."""

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: Poly, lo: Fraction, hi: Fraction):
        super().__init__()
        self.poly = poly  # primitive squarefree, positive leading coefficient
        self.lo = lo
        self.hi = hi


class _CutRootAtom(_Node):
    """The unique y in [0, 1] with f(y) = c for a strictly increasing f."""

    __slots__ = ("cdf", "target", "lo", "hi")

    def __init__(self, cdf: Poly, target: _Node):
        super().__init__()
        self.cdf = cdf
        self.target = target
        self.lo = Fraction(0)
        self.hi = Fraction(1)


_ATOM_TYPES = (_RootAtom, _PolyRootAtom, _CutRootAtom)
_root_intern: dict[tuple[Fraction, int], _RootAtom] = {}
_polyroot_intern: dict[tuple[tuple[int, ...], int], _PolyRootAtom] = {}


# -- construction with folding ------------------------------------------------


def _rat(v) -> _Rat:
    return _Rat(v if isinstance(v, Fraction) else Fraction(v))


def _same(x: _Node, y) -> bool:
    """Operand identity: the same node, or two rationals of equal value; y
    may be an int or a Fraction (`_compare`)."""
    if not isinstance(y, _Node):
        return isinstance(x, _Rat) and x.value == y
    return x is y or (isinstance(x, _Rat) and isinstance(y, _Rat) and x.value == y.value)


# Besides rational arithmetic, x - x = 0 and x / x = 1, a fold cancels only
# by operand identity: it returns an operand it already holds when the new
# node undoes that operand's last operation, as (p+q)-q, (p-q)+q, (p*q)/q
# and (p/q)*q are p.  A reordered sum such as (a+b)-(b+a) is left to _sign.


def _fold_add(a: _Node, b: _Node) -> _Node:
    _tick()
    if isinstance(a, _Rat) and isinstance(b, _Rat):
        return _Rat(a.value + b.value)
    if isinstance(a, _Rat) and a.value == 0:
        return b
    if isinstance(b, _Rat) and b.value == 0:
        return a
    if isinstance(a, _Sub) and _same(a.b, b):
        return a.a
    if isinstance(b, _Sub) and _same(b.b, a):
        return b.a
    return _Add(a, b)


def _sub_fold(a, b) -> Optional[_Node]:
    """The operand that a - b folds to, or None: a for a rational zero b,
    and for a = p + q, p when b is q and q when b is p.  b may be an int or
    a Fraction (`_compare`)."""
    if isinstance(b, _Rat) and b.value == 0 or not isinstance(b, _Node) and b == 0:
        return a
    if isinstance(a, _Add):
        if _same(a.b, b):
            return a.a
        if _same(a.a, b):
            return a.b
    return None


def _fold_sub(a: _Node, b: _Node) -> _Node:
    _tick()
    if a is b:
        return _rat(0)
    if isinstance(a, _Rat) and isinstance(b, _Rat):
        return _Rat(a.value - b.value)
    return _sub_fold(a, b) or _Sub(a, b)


def _fold_mul(a: _Node, b: _Node) -> _Node:
    _tick()
    if isinstance(a, _Rat) and isinstance(b, _Rat):
        return _Rat(a.value * b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, _Rat):
            if x.value == 0:
                return _rat(0)
            if x.value == 1:
                return y
            # c*(d*p) = (cd)*p, so that p/d*d, built as (1/d)*p*d, is p
            if isinstance(y, _Mul):
                for d, p in ((y.a, y.b), (y.b, y.a)):
                    if isinstance(d, _Rat):
                        c = x.value * d.value
                        return p if c == 1 else _Mul(_Rat(c), p)
    # only _fold_div builds a _Div, after proving its divisor nonzero
    if isinstance(a, _Div) and _same(a.b, b):
        return a.a
    if isinstance(b, _Div) and _same(b.b, a):
        return b.a
    return _Mul(a, b)


def _fold_div(a: _Node, b: _Node) -> _Node:
    _tick()
    if isinstance(b, _Rat):
        if b.value == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(a, _Rat):
            return _Rat(a.value / b.value)
    elif _sign(b) == 0:
        raise ZeroDivisionError("division by an exact zero")
    # before a rational divisor becomes a multiplication by its inverse
    if isinstance(a, _Mul):
        if _same(a.b, b):
            return a.a
        if _same(a.a, b):
            return a.b
    if isinstance(b, _Rat):
        return _fold_mul(_Rat(1 / b.value), a)
    if a is b:
        return _rat(1)
    if isinstance(a, _Rat) and a.value == 0:
        return _rat(0)
    return _Div(a, b)


def _make_root(operand: Union[Fraction, _Node], d: int) -> _Node:
    if d < 2:
        raise ValueError("root index must be at least 2")
    if isinstance(operand, _Rat):
        operand = operand.value
    if isinstance(operand, Fraction):
        if operand < 0 and d % 2 == 0:
            raise ValueError("even root of a negative value")
        exact = exact_nth_root(operand, d)
        if exact is not None:
            return _Rat(exact)
        r, dd = _reduce_radical(operand, d)
        if dd == 1:
            return _Rat(r)
        key = (r, dd)
        atom = _root_intern.get(key)
        if atom is None:
            atom = _RootAtom(r, dd)
            _root_intern[key] = atom
        return atom
    s = _sign(operand)
    if s == 0:
        return _rat(0)
    if s < 0 and d % 2 == 0:
        raise ValueError("even root of a negative value")
    rv = _rational_value(operand)
    if rv is not None:
        return _make_root(rv, d)
    return _RootAtom(operand, d)


def _make_real_root(p: Poly, lo: Fraction, hi: Fraction) -> _Node:
    """The unique real root of p inside [lo, hi], folded and interned.

    One Sturm chain of p's squarefree part counts its roots in [lo, hi]
    and, read at -oo, gives the root's ordinal among all its real roots:
    the choice of a quadratic's or a binomial's root, and the intern key.
    A new atom's bracket comes from isolating inside one cell of the
    Cauchy span [-B, B], found by halving the span while [lo, hi] lies in
    one half and the midpoint is no root: [0, 1] for a cut.  Isolating
    the whole span, which splits off-centre only at a midpoint that is a
    root, passes through that cell and isolates inside it alike, so its
    bracket is this one or a cell of the same halving grid around it, and
    `bisect_root` refines both to the same cell at every width no wider
    than this bracket.  Enclosures are at most 2^-8 wide, so when [lo, hi]
    is at least that wide, as a cut's [0, 1] is, every enclosure is the
    full span's."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot take a root of the zero polynomial")
    sqf = Poly(_int_squarefree(p.int_coeffs()))
    chain = sturm_chain(sqf)
    at = _probe(chain)
    (s_lo, v_lo), (_, v_hi) = at(lo), at(hi)
    if lo > hi or v_lo - v_hi + (s_lo == 0) != 1:
        raise ValueError("the span must contain exactly one root")
    for r in rational_roots(sqf):
        if lo <= r <= hi:
            return _Rat(r)
    # lo is no root: the roots below it come before this one
    ordinal = _variations_at_minus_infinity(chain) - v_lo
    cs = sqf.nums
    nonzero = [(i, c) for i, c in enumerate(cs) if c != 0]
    if len(nonzero) == 2 and nonzero[0][0] == 0:
        # binomial c*T^d + e: the root is a pure radical, the larger of
        # two for even d when it is the positive one
        d = nonzero[1][0]
        radicand = Fraction(-nonzero[0][1], nonzero[1][1])
        if d % 2 == 1 or ordinal == 1:
            return _make_root(radicand, d)
        return _fold_mul(_rat(-1), _make_root(radicand, d))
    if sqf.degree == 2:
        return _quadratic_root(sqf, ordinal)
    key = (cs, ordinal)
    atom = _polyroot_intern.get(key)
    if atom is None:
        b = root_bound(sqf)
        a = -b
        while True:
            mid = (a + b) / 2
            if not horner(cs, mid.numerator, mid.denominator):
                break
            if hi <= mid:
                b = mid
            elif lo >= mid:
                a = mid
            else:
                break
        # lo is no root, and neither is a: the roots in (a, lo) come first
        iv = _dyadic_subdivide(at, a, b)[at(a)[1] - v_lo]
        atom = _PolyRootAtom(sqf, iv.lo, iv.hi)
        _polyroot_intern[key] = atom
    return atom


def _quadratic_root(sqf: Poly, ordinal: int) -> _Node:
    """The smaller (ordinal 0) or larger (ordinal 1) real root of the
    irreducible quadratic sqf.  Quadratic roots canonicalize to
    r0 + r1 * sqrt(D), so values from different quadratics share one
    interned atom per D and stay inside the radical machinery.  D is the
    discriminant with its square part taken out by trial division over the
    small primes and an exact square test of the cofactor; no large integer
    is factored.  D is squarefree unless a prime above the small ones
    divides the discriminant more than once without the cofactor being a
    square.  The ordinal sets the sign of r1, so nothing is refined.  The
    two folds of the conjugate are charged too: `bss_op_count` counts four
    ticks for every quadratic root."""
    a0, a1, a2 = sqf.nums
    disc = a1 * a1 - 4 * a2 * a0
    assert disc > 0
    square, squarefree = 1, 1
    for prime in SMALL_PRIMES:
        e = 0
        while disc % prime == 0:
            disc //= prime
            e += 1
        square *= prime ** (e // 2)
        squarefree *= prime ** (e % 2)
    r = int_nth_root(disc, 2)
    if r * r == disc:
        square *= r
    else:
        squarefree *= disc
    root = _make_root(Fraction(squarefree), 2)  # interned
    base = Fraction(-a1, 2 * a2)
    scale = Fraction(square, 2 * a2)
    if (ordinal == 1) != (scale > 0):
        scale = -scale
    _tick(2)
    return _fold_add(_rat(base), _fold_mul(_rat(scale), root))


def _make_cut_root(cdf: Poly, target: _Node) -> _Node:
    rv = _rational_value(target)
    if rv is not None:
        return _make_real_root(cdf - Poly.constant(rv), Fraction(0), Fraction(1))
    return _CutRootAtom(cdf, target)


# -- one walk over the DAG ----------------------------------------------------


def _walk(node: _Node, cached, compute, enter_roots: bool = False):
    """The node's value under one bottom-up evaluation of its DAG.

    The walk is post-order with an explicit stack, so deep DAGs need no
    recursion.  cached(n) is n's value when already known, else None;
    compute(n, *operand values) computes it and records it where cached
    reads it.  A binary node's operands are a and b; with enter_roots, a
    root atom over a value has that value as its operand; every other node
    is a leaf.  Operand a is finished, and its value taken, before b is
    entered, as a recursive descent would: so atoms are visited in one
    fixed order, and a node combines the values its operands had when they
    finished, even if finishing a later operand changed an earlier one's."""
    stack: list[tuple[_Node, bool]] = [(node, False)]
    done: list = []  # values of finished operands
    while stack:
        n, ready = stack.pop()
        if ready:
            if isinstance(n, _Binary):
                y = done.pop()
                done.append(compute(n, done.pop(), y))
            else:
                done.append(compute(n, done.pop()))
            continue
        v = cached(n)
        if v is not None:
            done.append(v)
        elif isinstance(n, _Binary):
            stack += ((n, True), (n.b, False), (n.a, False))
        elif enter_roots and isinstance(n, _RootAtom) and not isinstance(n.operand, Fraction):
            stack += ((n, True), (n.operand, False))
        else:
            done.append(compute(n))
    return done[-1]


# -- interval evaluation -------------------------------------------------------


class _MorePrecision(Exception):
    pass


def _iv_mul(x, y):
    """The exact product interval, choosing the extreme products by the
    signs of the ends: comparing huge products costs more than forming two."""
    (x0, x1), (y0, y1) = x, y
    if x0 >= 0:
        if y0 >= 0:
            return x0 * y0, x1 * y1
        if y1 <= 0:
            return x1 * y0, x0 * y1
        return x1 * y0, x1 * y1
    if x1 <= 0:
        if y0 >= 0:
            return x0 * y1, x1 * y0
        if y1 <= 0:
            return x1 * y1, x0 * y0
        return x0 * y1, x0 * y0
    if y0 >= 0:
        return x0 * y1, x1 * y1
    if y1 <= 0:
        return x1 * y0, x0 * y0
    return min(x0 * y1, x1 * y0), max(x0 * y0, x1 * y1)


def _iv_div(x, y):
    if y[0] <= 0 <= y[1]:
        raise _MorePrecision
    ps = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    return min(ps), max(ps)


def _interval(node: _Node, k: int) -> tuple[Fraction, Fraction]:
    """An enclosure of the node's value at effort k, cached with k on each
    node the walk computes.  Atoms are refined in the walk's fixed order;
    a root atom over a value encloses it from its operand's enclosure."""
    ck, civ = node._ivc
    if ck >= k:
        return civ

    def cached(n: _Node):
        ck, civ = n._ivc
        return civ if ck >= k else None

    def compute(n: _Node, x=None, y=None):
        if isinstance(n, _Add):
            iv = (x[0] + y[0], x[1] + y[1])
        elif isinstance(n, _Sub):
            iv = (x[0] - y[1], x[1] - y[0])
        elif isinstance(n, _Mul):
            iv = _iv_mul(x, y)
        elif isinstance(n, _Div):
            iv = _iv_div(x, y)
        elif isinstance(n, _Rat):
            iv = (n.value, n.value)
        elif isinstance(n, _RootAtom):
            if x is None:
                iv = nth_root_bounds(n.operand, n.index, k)
            else:
                olo, ohi = x
                if n.index % 2 == 0:
                    olo = max(olo, Fraction(0))
                    ohi = max(ohi, Fraction(0))
                iv = (nth_root_bounds(olo, n.index, k)[0], nth_root_bounds(ohi, n.index, k)[1])
        elif isinstance(n, _PolyRootAtom):
            iv = _refine_polyroot(n, k)
        else:
            iv = _refine_cutroot(n, k)
        n._ivc = (k, iv)
        return iv

    return _walk(node, cached, compute, enter_roots=True)


def _refine_polyroot(atom: _PolyRootAtom, k: int) -> tuple[Fraction, Fraction]:
    cs = atom.poly.nums
    if horner(cs, atom.lo.numerator, atom.lo.denominator) > 0:
        cs = [-c for c in cs]

    def side(m: int, e: int) -> int:
        return horner(cs, m, 1 << e)

    # the poly has no root at a grid point: interned atoms have no rational roots
    atom.lo, atom.hi = bisect_root(side, atom.lo, atom.hi, Fraction(1, 1 << k))
    return atom.lo, atom.hi


def _refine_cutroot(atom: _CutRootAtom, k: int) -> tuple[Fraction, Fraction]:
    """The cut root's enclosure at effort k: the cell `bisect_root` ends on
    at width 2^-k, from the atom's bracket, deciding each probe's side of
    the target by the target's enclosure from effort max(k, 8), doubled
    until it separates.  A probe is taken at its reduced dyadic point, and
    compared with the target on that point's smaller scale (`side`)."""
    kc = max(k, 8)
    cs, den = atom.cdf.nums, atom.cdf.den
    n = len(cs) - 1
    centre = None
    # a target with a single-atom form is irrational (`_make_cut_root`);
    # any other is decided exactly once 2^-limit cannot separate it
    limit = 2 * max(k, 64) if _saf_of(atom.target) is _SAF_UNAVAILABLE else None

    def side(m: int, e: int) -> int:
        """cdf(x) - centre at x = m / 2^e, scaled by den * 2^(e*n) and the
        denominator of centre, the midpoint of the target's first enclosure
        in this call; but ±1 where that disagrees with the sign of
        cdf(x) - target, and 0 where they are equal.  Doubling the
        target's precision decides that sign unless they are equal, which
        only a rational target can be: past the limit, the exact sign of
        target - cdf(x) decides (`_sign`, which raises DegreeCapExceeded
        rather than refine a tie it cannot decide).

        x is taken at its reduced point m' / 2^e', m' = m >> z and
        e' = e - z for the z trailing zero bits of m (`horner`): fx and
        every comparison with the target are on the scale 2^(e'*n), and the
        value is shifted back by z*n bits to the call's one scale."""
        nonlocal kc, centre
        z = trailing_zeros(m, e)
        e -= z
        fx = horner(cs, m >> z, 1 << e)
        while True:
            tlo, thi = _interval(atom.target, kc)
            if centre is None:
                centre = (tlo + thi) / 2
            if fx * tlo.denominator < (tlo.numerator * den) << (e * n):
                sign = -1
                break
            if fx * thi.denominator > (thi.numerator * den) << (e * n):
                sign = 1
                break
            if limit is not None and kc >= limit:
                with uncounted():
                    sign = -_compare(atom.target, Fraction(fx, den << (e * n)))
                if sign == 0:
                    return 0
                break
            kc *= 2
        v = fx * centre.denominator - ((centre.numerator * den) << (e * n))
        return v << (z * n) if (v > 0) - (v < 0) == sign else sign

    atom.lo, atom.hi = bisect_root(side, atom.lo, atom.hi, Fraction(1, 1 << k))
    return atom.lo, atom.hi


def _log2_ceil(q: Fraction) -> int:
    """The least j >= 0 with 2^j >= q."""
    n, d = q.numerator, q.denominator
    j = max(0, n.bit_length() - d.bit_length())
    return j + 1 if d << j < n else j


def _refine_to(node: _Node, eps: Fraction, b: Optional[int] = None) -> tuple[Fraction, Fraction]:
    """An enclosure of the node's value at most eps wide.

    The effort reaches its target b, by default the least with 2^-b <= eps,
    once: it doubles from 8 (or the cached effort) while 4k <= b and then
    steps to b, where an atom's enclosure is at most 2^-b wide, and it
    stops at the first effort whose enclosure is at most eps wide.  A
    compound node's enclosure w scales with its operands', so when w is
    still wider than eps, the effort gains the missing ceil(log2(w/eps)) + 1
    bits instead of doubling.  An operand enclosing 0 under a division
    doubles it.

    A polynomial or cut root walks that schedule without refining
    (`_refine_root_atom`): its enclosure at any effort is known in advance
    but for a root at a grid point, so one refinement goes straight to the
    effort where the schedule stops."""
    if b is None:
        b = _log2_ceil(1 / eps)
    k = max(8, node._ivc[0])
    if isinstance(node, (_PolyRootAtom, _CutRootAtom)):
        return _refine_root_atom(node, eps, b, k)
    while True:
        try:
            lo, hi = _interval(node, k)
        except _MorePrecision:
            k *= 2
            continue
        if hi - lo <= eps:
            return lo, hi
        k = _next_effort(k, b, (hi - lo) / eps)


def _next_effort(k: int, b: int, excess: Fraction) -> int:
    """The effort after k on `_refine_to`'s schedule toward b, for an
    enclosure excess times wider than asked."""
    if 4 * k <= b:
        return 2 * k
    if k < b:
        return b
    return k + _log2_ceil(excess) + 1


def _refine_root_atom(atom: _Node, eps: Fraction, b: int, k: int) -> tuple[Fraction, Fraction]:
    """`_refine_to` for a polynomial or cut root, from effort k, in one
    refinement.

    `bisect_root` leaves the atom at effort j on the cell of halving its
    bracket at the first level at most 2^-j wide (or on a root at a point
    halving tests), whatever efforts came before, and its bracket is its
    cached enclosure.  So the width at each effort of the schedule is read
    off the bracket's width w: w / 2^L for the least L >= 0 with
    w <= 2^(L-j).  The atom is refined once, at the first effort where that
    is at most eps; its enclosure and bracket are those the schedule ends
    on.  Only a root at a grid point ends the schedule earlier, at the
    first effort whose grid holds it: the enclosure is that point at every
    later effort alike, and its cached effort is set to that first one."""
    lo, w = atom.lo, atom.hi - atom.lo
    # w = wn / 2^we, and the cell at effort j is wn / 2^(we + level(j)) wide
    wn, we = w.numerator, w.denominator.bit_length() - 1
    en, ed = eps.numerator, eps.denominator

    def level(j: int) -> int:
        return max(0, (wn - 1).bit_length() + j - we)

    efforts = [k]
    while wn * ed > en << (we + level(k)):
        k = _next_effort(k, b, Fraction(wn * ed, en << (we + level(k))))
        efforts.append(k)
    iv = _interval(atom, k)
    if iv[0] == iv[1] and wn:
        # halving at effort j tests the root g iff g is on the level's grid
        first = next(j for j in efforts if ((iv[0] - lo) * (1 << level(j)) / w).denominator == 1)
        atom._ivc = (first, iv)
    return iv


# -- power sums and residues over the integers ----------------------------------
#
# A root a of a primitive integer polynomial m of degree n with leading
# coefficient l scales to A = l*a, a root of the monic integer polynomial
# M(Y) = l^(n-1) m(Y/l): an algebraic integer.  Power sums of algebraic
# integers are integers, so Newton's identities, which tie the monic
# y^n + c_1 y^(n-1) + ... + c_n to the power sums p_k of its roots by
# p_k + c_1 p_(k-1) + ... + c_(k-1) p_1 + k c_k = 0 (c_k = 0 past n), run
# on integers with exact division: `_Algebra` takes its traces and its
# characteristic polynomials from them.


def _scaled_monic(m: list[int]) -> list[int]:
    """M(Y) = l^(n-1) m(Y / l) for the integer m of degree n >= 1 and
    leading coefficient l: its roots are l times those of m."""
    lc = m[-1]
    out = [0] * (len(m) - 1) + [1]
    pw = 1
    for i in range(len(m) - 2, -1, -1):
        out[i] = m[i] * pw
        pw *= lc
    return out


def _newton_sums(mon: list[int], n: int) -> list[int]:
    """Power sums p_0..p_n of the roots of the monic integer polynomial mon,
    with multiplicity."""
    d = len(mon) - 1
    terms = [(i, mon[d - i]) for i in range(1, d + 1) if mon[d - i]]
    ps = [d]
    for k in range(1, n + 1):
        s = 0
        for i, a in terms:
            if i < k:
                s += a * ps[k - i]
            elif i == k:
                s += k * a
        ps.append(-s)
    return ps


def _from_newton_sums(q: list[int]) -> list[int]:
    """[1, c_1, ..., c_n]: the monic integer polynomial sum c_k T^(n-k),
    n = len(q) - 1, whose roots are algebraic integers with power sums q."""
    c = [1]
    for k in range(1, len(q)):
        s = q[k]
        for i in range(1, k):
            s += c[i] * q[k - i]
        ck, r = divmod(-s, k)
        assert r == 0, "Newton's identities divide exactly on algebraic integers"
        c.append(ck)
    return c


class _Algebra:
    """The algebra Q[y_1, ..., y_k]/(m_1(y_1), ..., m_k(y_k)) of k atoms,
    each m_i a primitive integer polynomial of degree n_i >= 2 with leading
    coefficient l_i, of dimension D = n_1 ... n_k, run on integers.

    An element is (x, s) in the normal form of `Poly` (`polys._normal`),
    and elements add by `polys._sum`: the value x(Y_1, ..., Y_k) / s in the
    scaled atoms Y_i = l_i y_i, roots of the monic integer M_i
    (`_scaled_monic`), so products reduce modulo monic polynomials and
    numerators stay integer.  x is a tuple of integers in
    Kronecker layout: Y_1^e_1 ... Y_k^e_k sits at sum e_i w_i, w_1 = 1 and
    w_(i+1) = w_i (2 n_i - 1), so the product of two reduced numerators is
    one product of univariate lists that carries nothing between variables.

    The trace of Y_1^e_1 ... Y_k^e_k is the product of the power sums
    p_(e_i) of the roots of the M_i, so the traces of the first D powers of
    x are integers, and Newton's identities turn them into the
    characteristic polynomial of x, of degree D.  Evaluating each y_i at
    its atom is a ring map, so that polynomial vanishes at the value the
    element takes there; for one atom it is prod (T - g(a)) over the roots
    a of m_1, with multiplicity."""

    __slots__ = ("lcs", "weights", "dim", "traces", "rules")

    def __init__(self, ms: list[list[int]]):
        self.lcs = [m[-1] for m in ms]
        self.weights = []
        self.dim = 1
        # per variable, the last first: n_i, w_i, the radix 2 n_i - 1 (None
        # for the last variable) and the (offset, coefficient) pairs of
        # Y_i^(n_i) = -sum_j M_i[j] Y_i^j
        self.rules = []
        traces, w = [1], 1
        for i, m in enumerate(ms):
            mon, n = _scaled_monic(m), len(m) - 1
            self.weights.append(w)
            self.dim *= n
            radix = 2 * n - 1 if i < len(ms) - 1 else None
            self.rules.insert(0, (n, w, radix, [(j * w, a) for j, a in enumerate(mon[:-1]) if a]))
            # the reduced monomials of the variables so far lie below w
            row = traces + [0] * (w - len(traces))
            traces = [p * t for p in _newton_sums(mon, n - 1) for t in row]
            w *= 2 * n - 1
        self.traces = traces

    def lift(self, nums, den: int, i: int = 0) -> tuple[tuple[int, ...], int]:
        """nums(y_i) / den, for deg nums < 2 n_i - 1 unless y_i is the last
        variable: with e = deg nums, nums(y_i) = H(Y_i) / l_i^e for
        H(Y) = sum nums_j l_i^(e-j) Y^j."""
        lc, w = self.lcs[i], self.weights[i]
        e = max(len(nums) - 1, 0)
        x = [0] * (e * w + 1)
        for j, c in enumerate(nums):
            x[j * w] = c * lc ** (e - j)
        return _normal(self._reduce(x), den * lc**e)

    def mul(self, a, b) -> tuple[tuple[int, ...], int]:
        (x, s), (y, t) = a, b
        return _normal(self._reduce(_int_mul(x, y)), s * t)

    def _reduce(self, x: list[int]) -> list[int]:
        """x modulo the M_i, in place, from the last variable down: a
        monomial with e_i >= n_i sheds Y_i^(n_i) = -sum_(j < n_i) M_i[j] Y_i^j.
        Indices run down, so what a step moves lower is reduced later in
        the same pass.  The last variable's degree is unbounded: every
        index from n_k w_k up has e_k >= n_k."""
        for n, w, radix, low in self.rules:
            for idx in range(len(x) - 1, n * w - 1, -1):
                c = x[idx]
                if c and (radix is None or idx // w % radix >= n):
                    x[idx] = 0
                    base = idx - n * w
                    for off, a in low:
                        x[base + off] -= c * a
        while x and x[-1] == 0:
            x.pop()
        return x

    def _powers(self, x: list[int]) -> tuple[list[int], list[list[int]]]:
        """(c, [x^0, ..., x^D]): the characteristic polynomial
        sum c_k T^(D-k) of the numerator x, c_0 = 1, and its powers."""
        powers = [[1]]
        q = [self.dim]
        for _ in range(self.dim):
            p = self._reduce(_int_mul(x, powers[-1]))
            q.append(sum(a * b for a, b in zip(p, self.traces)))
            powers.append(p)
        return _from_newton_sums(q), powers

    def charpoly(self, a) -> list[int]:
        """The primitive integer characteristic polynomial of a = x / s:
        prod (s*T - s*conjugate) = sum_k c_k s^(D-k) T^(D-k)."""
        x, s = a
        c, _ = self._powers(x)
        n = self.dim
        return _drop_content([c[n - j] * s**j for j in range(n + 1)])

    def inverse(self, a) -> Optional[tuple[tuple[int, ...], int]]:
        """1 / a, or None when a is a zero divisor, whose characteristic
        polynomial has constant term 0.  By Cayley-Hamilton,
        x^-1 = -sum_(k<D) c_k x^(D-1-k) / c_D, so a^-1 = s * x^-1."""
        x, s = a
        c, powers = self._powers(x)
        n = self.dim
        if not c[n]:
            return None
        acc: list[int] = []
        for k in range(n):
            acc = [u + c[k] * v for u, v in itertools.zip_longest(acc, powers[n - 1 - k], fillvalue=0)]
        return _normal([-s * v for v in acc], c[n])


def _residue_horner(cs: list[int], nums, den: int, m: list[int]) -> tuple[tuple[int, ...], int]:
    """(r, s) in `_normal`'s form, deg r < deg m, with r(a) / s = sum_i cs_i
    (nums(a) / den)^i for a root a of the primitive integer m: Horner on
    residues, each step reduced by `_prem` with its scale and normalized."""
    r: tuple[int, ...] = ()
    s = 1
    for c in reversed(cs):
        # r/s * nums/den + c = (r * nums + c * s * den) / (s * den)
        r = _int_mul(r, nums)
        s *= den
        if c:
            if r:
                r[0] += c * s
            else:
                r = [c * s]
        if len(r) >= len(m):
            r, t = _prem(r, m)
            s *= t
        r, s = _normal(r, s)
    return r, s


# -- single-atom normal form ---------------------------------------------------

# an atom's own residue: y
_RESIDUE_X = Poly.x()


def _saf_of(node: _Node):
    """Single-atom form: (atom, p) with value = p(atom), where the `Poly` p
    is the value's residue modulo the atom's minimal polynomial m, of
    degree below deg m: the canonical residue in Q[y]/(m).  A constant
    residue has atom None.  Returns the sentinel when the value mixes atoms
    or the atom is past the cap.

    Forms are computed by the walk (`_walk`), where a root atom is a leaf:
    operand a is done before b, the order in which the atoms' minimal
    polynomials are first asked for."""
    saf = node._saf
    return saf if saf is not None else _walk(node, _saf_cached, _saf_step)


_saf_cached = operator.attrgetter("_saf")


def _saf_step(n: _Node, *forms):
    n._saf = _compute_saf(n, *forms)
    return n._saf


def _saf_inverse(p: Poly, m: Optional[Poly]) -> Poly:
    """The inverse of the nonzero residue p modulo the irreducible m, which
    a constant p does not need.  The algebra of the one atom inverts it
    (`_Algebra.inverse`), and Y^j = l^j y^j takes its numerator back to y."""
    if p.degree == 0:
        return Poly._of(_normal((p.den,), p.nums[0]))
    algebra = _Algebra([m.nums])
    x, s = algebra.inverse(algebra.lift(p.nums, p.den))
    lc = m.nums[-1]
    return Poly._of(_normal([c * lc**j for j, c in enumerate(x)], s))


def _compute_saf(node: _Node, fa=None, fb=None):
    """The form of one node, from the forms fa and fb of its operands."""
    if isinstance(node, _Rat):
        return (None, Poly._of(_normal((node.value.numerator,), node.value.denominator)))
    if isinstance(node, _ATOM_TYPES):
        return (node, _RESIDUE_X)
    if fa is _SAF_UNAVAILABLE or fb is _SAF_UNAVAILABLE:
        return _SAF_UNAVAILABLE
    (atom_a, pa), (atom_b, pb) = fa, fb
    if atom_a is not None and atom_b is not None and atom_a is not atom_b:
        return _SAF_UNAVAILABLE
    atom = atom_a if atom_a is not None else atom_b
    m = None
    if atom is not None:
        try:
            m = _minpoly(atom)
        except DegreeCapExceeded:
            return _SAF_UNAVAILABLE
        if m.degree == 1:
            # a rational atom, a cut root at a rational point: its residue
            # y is not reduced, and reducing both gives constants
            pa, pb = pa % m, pb % m
    if isinstance(node, _Add):
        p = pa + pb
    elif isinstance(node, _Sub):
        p = pa - pb
    else:
        if isinstance(node, _Div):
            if not pb:
                raise ZeroDivisionError("division by an exact zero")
            pb = _saf_inverse(pb, m)
        p = pa * pb
        if m is not None and p.degree >= m.degree:
            p %= m
    # a constant residue no longer depends on its atom; dropping the tag
    # lets values from different fields combine when they are rational
    return (atom if p.degree > 0 else None, p)


def _horner_node(atom: _Node, p: Poly) -> _Node:
    """A node with the single-atom form (atom, p), p not constant: the atom
    itself, or the Horner form of p(atom) built without folds.  The form is
    set on it, so no fold or elimination ever rebuilds it."""
    if p == _RESIDUE_X:
        return atom
    cs = p.coeffs
    acc: _Node = _Rat(cs[-1])
    for c in reversed(cs[:-1]):
        acc = _Mul(acc, atom)
        if c:
            acc = _Add(acc, _Rat(c))
    acc._saf = (atom, p)
    return acc


def _residue_poly_at(p: Poly, node: _Node) -> Optional[_Node]:
    """p at the node's value, by Horner on residues modulo its atom's minimal
    polynomial, when the node has a single-atom form with an atom; None
    otherwise, and None when that minimal polynomial is past the degree
    cap.  Charges the 2 * len(p.nums) ticks of a Horner scheme that folds
    one multiplication and one addition per coefficient."""
    saf = _saf_of(node)
    if saf is _SAF_UNAVAILABLE or saf[0] is None:
        return None
    atom, q = saf
    try:
        m = _minpoly(atom)
    except DegreeCapExceeded:
        return None
    r, s = _residue_horner(p.nums, q.nums, q.den, m.nums)
    _tick(2 * len(p.nums))
    if len(r) <= 1:
        return _Rat(Fraction(r[0] if r else 0, s * p.den))
    return _horner_node(atom, Poly._of(_normal(r, s * p.den)))


def _held_poly_at(p: Poly, node: _Node) -> Optional[_Node]:
    """p at the node's value when the node's defining relation gives it, or
    None: a cut root F^-1(tau) with p == F gives its target tau, and the real
    d-th root of a node w with p == T^d gives w.  These relations are the
    tower's triangular set (Lazard 1992) read as rewrite rules.  Charges the
    2 * len(p.nums) ticks of the residue route."""
    if isinstance(node, _CutRootAtom) and p == node.cdf:
        held = node.target
    elif isinstance(node, _RootAtom) and isinstance(node.operand, _Node) and p == Poly.monomial(node.index):
        held = node.operand
    else:
        return None
    _tick(2 * len(p.nums))
    return held


def _rational_value(node: _Node) -> Optional[Fraction]:
    """Exact rational value of the node, if it provably is rational.  An
    atom's single-atom form is itself, so an atom reads None at once."""
    if isinstance(node, _Rat):
        return node.value
    if isinstance(node, _ATOM_TYPES):
        return None
    saf = _saf_of(node)
    if saf is _SAF_UNAVAILABLE or saf[0] is not None:
        return None
    return saf[1].coeff(0)


# -- minimal polynomials --------------------------------------------------------


def _pin(node: _Node, polys: list[Poly]) -> tuple[int, DyadicInterval]:
    """(i, iv): polys[i] vanishes at the node's value, and the dyadic iv
    holds that value and no other root of any of the polys, which are
    squarefree and pairwise coprime, one of them vanishing there; no end
    of iv is a root of any of them.

    The node's enclosure at 2^-k, rounded outward to the 2^-k grid, gives
    iv.  An end that is a root of one of the polys steps out by one grid
    cell, so a rational value on the grid still ends.  k doubles from 8
    until the polys have exactly one root in iv together."""
    chains = [sturm_chain(f) for f in polys]

    def at(x: Fraction, step: Fraction):
        """x, or x + step when x is a root, and the chains' (sign, count)
        there."""
        pts = [sturm_point(c, x) for c in chains]
        if any(s == 0 for s, _ in pts):
            x += step
            pts = [sturm_point(c, x) for c in chains]
        return x, pts

    k = 8
    while True:
        lo, hi = _refine_to(node, Fraction(1, 1 << k))
        unit = Fraction(1, 1 << k)
        dlo, lo_pts = at(Fraction((lo.numerator << k) // lo.denominator, 1 << k), -unit)
        dhi, hi_pts = at(Fraction(-((-hi.numerator << k) // hi.denominator), 1 << k), unit)
        if all(s != 0 for s, _ in lo_pts + hi_pts):
            counts = [vl - vh for (_, vl), (_, vh) in zip(lo_pts, hi_pts)]
            assert any(counts), "no polynomial vanishes at the value"
            if sum(counts) == 1:
                return counts.index(1), DyadicInterval(dlo, dhi)
        k *= 2


def _isolating_interval(node: _Node) -> DyadicInterval:
    """The node's value pinned among the roots of its minimal polynomial;
    cached on the node."""
    if node._iso is None:
        node._iso = _pin(node, [_minpoly(node)])[1]
    return node._iso


def _select_factor(candidates: list[Poly], node: _Node) -> Poly:
    """The unique irreducible candidate vanishing at the node's value; a
    lone candidate without refining."""
    if len(candidates) == 1:
        return candidates[0]
    return candidates[_pin(node, candidates)[0]]


class _ZeroDivisor(Exception):
    pass


def _atoms_charpoly(node: _Node) -> Optional[list[int]]:
    """The characteristic polynomial of the value in the algebra of its
    generators (`_charpoly_over`).  The value is a rational function of its
    maximal subexpressions with a single-atom form (`_form_leaves`), and
    each of those a polynomial in its atom.  The generators are those
    atoms, or the subexpressions themselves when their degrees give the
    smaller dimension D: two values of degree 3 in fields of degrees 15
    and 3 span 9 dimensions, not 45.  None, before any arithmetic in the
    algebra, when a generator's minimal polynomial or D passes the degree
    cap, and None when a divisor is a zero divisor of the algebra.  The
    generators' minimal polynomials are computed in order only while the
    product of their degrees, a lower bound on D, stays within the cap."""
    leaves = _form_leaves(node)
    forms = [_saf_of(leaf) for leaf in leaves]
    atoms = list({id(f[0]): f[0] for f in forms if f[0] is not None}.values())
    best = None
    cap = degree_cap()
    compound = any(not isinstance(n, (_Rat, *_ATOM_TYPES)) for n in leaves)
    for gens in (atoms, leaves) if compound else (atoms,):
        ms, dim = [], 1
        try:
            for g in gens:
                ms.append(_minpoly(g).nums)
                dim *= len(ms[-1]) - 1
                if dim > cap:
                    break
        except DegreeCapExceeded:
            continue
        if dim <= cap and (best is None or dim < best[0]):
            best = dim, gens, ms
    if best is None:
        return None
    _, gens, ms = best
    atom_forms = None if gens is leaves else dict(zip(map(id, leaves), forms))
    try:
        return _charpoly_over(node, gens, ms, atom_forms)
    except _ZeroDivisor:
        return None


def _charpoly_over(
    node: _Node, gens: list[_Node], ms: list[list[int]], forms: Optional[dict] = None
) -> list[int]:
    """The characteristic polynomial of the value in the algebra
    Q[y_1..y_k]/(m_1(y_1), ..., m_k(y_k)) of the generators gens with
    minimal polynomials ms (`_Algebra`): a primitive integer polynomial of
    degree D, the product of their degrees.  The DAG is evaluated down to
    the nodes of forms, which maps id(leaf) to its single-atom form (g, p):
    the leaf is p(g) for the generator g, or the constant p when g is None.
    Without forms, the generators are the leaves.  A generator
    of degree 1 enters as its rational value.  Raises _ZeroDivisor when a
    divisor is a zero divisor of the algebra."""
    if forms is None:
        forms = {id(g): (g, _RESIDUE_X) for g in gens}
    algebra = _Algebra([m for m in ms if len(m) > 2])
    # a generator of degree 1 is its rational root, the others y_0, y_1, ...
    place: dict[int, Union[Fraction, int]] = {}
    variables = iter(range(len(algebra.weights)))
    for g, m in zip(gens, ms):
        place[id(g)] = Fraction(-m[0], m[1]) if len(m) == 2 else next(variables)
    values: dict[int, tuple[tuple[int, ...], int]] = {}
    for leaf, (atom, p) in forms.items():
        if atom is None:
            values[leaf] = (p.nums, p.den)
        elif isinstance(place[id(atom)], Fraction):
            q = p(place[id(atom)])
            values[leaf] = _normal((q.numerator,), q.denominator)
        else:
            values[leaf] = algebra.lift(p.nums, p.den, place[id(atom)])

    def compute(n: _Binary, x, y):
        if isinstance(n, _Add):
            v = _sum(x, y)
        elif isinstance(n, _Sub):
            v = _sum(x, y, -1)
        elif isinstance(n, _Mul):
            v = algebra.mul(x, y)
        else:
            inv = algebra.inverse(y)
            if inv is None:
                raise _ZeroDivisor
            v = algebra.mul(x, inv)
        values[id(n)] = v
        return v

    return algebra.charpoly(_walk(node, lambda n: values.get(id(n)), compute))


def _relatively_irreducible(m: Poly, f: Poly) -> bool:
    """Is F(t) - y irreducible over L = Q[y]/(m), m the irreducible minimal
    polynomial of a value v and F = f of degree k?  Then a root a of F(t) - v
    (a cut root of the CDF F at v, or a d-th root of v for F = t^d) has
    degree [L : Q] * k, and m(F(t)) is its minimal polynomial.

    Musser's factor-degree sieve (`polys._sieve_degrees`) over L: at a prime
    p dividing neither F's denominator nor its leading numerator, each
    simple root r of m mod p (`_modp_roots`, None when p divides lc(m) or m
    is not squarefree mod p) lifts to a root of m in the p-adic numbers,
    an embedding of L, so a factor of F(t) - y over L keeps its degree over
    the p-adic numbers, a subset sum of the factor-degree pattern of the
    image F(t) - r when that image is squarefree (`_modp_image`).  True once
    no degree in 1..k-1 is left; False when one is left after 16 patterns,
    or after the first 64 primes, which also ends the search when F(t) - y
    is not squarefree.  Each image F - r mod p is shared with the cut
    polynomials of the same CDF through the image cache."""
    fn, fd = f.nums, f.den

    def patterns():
        for p in itertools.islice(primes(), 64):
            if fd % p and fn[-1] % p:
                for r in _modp_roots(m.nums, p) or ():
                    image = _modp_image([fn[0] - fd * r, *fn[1:]], p)
                    if image is not None:
                        yield p, _pattern(image.parts())

    return not _sieve_degrees(patterns(), set(range(1, f.degree)), 16)[0]


def _minpoly(node: _Node) -> Poly:
    cached = node._mp
    if cached is not None:
        if isinstance(cached, DegreeCapExceeded):
            raise cached
        return cached
    try:
        result = _compute_minpoly(node)
    except DegreeCapExceeded as e:
        node._mp = e
        raise
    except RecursionError:
        # the recursion runs once per DAG level; nothing is cached on the
        # way out, so shallower nodes still get their minimal polynomials
        raise ExpressionTooDeep("expression too deep for a minimal polynomial") from None
    node._mp = result
    return result


def _compute_minpoly(node: _Node) -> Poly:
    """The minimal polynomial.  A value with a single-atom form takes the
    squarefree part of its characteristic polynomial; a root or cut root
    whose F(t) - y the relative degree sieve proves irreducible takes its
    annihilator m(F(t)) (`_relatively_irreducible`); every other node takes
    the factor of one annihilating polynomial that vanishes at the node's
    value.  Each annihilator's degree is checked against the degree cap
    before it is built."""
    if isinstance(node, _Rat):
        return Poly([-node.value.numerator, node.value.denominator])
    if isinstance(node, _RootAtom) and isinstance(node.operand, Fraction):
        # interned radicals are exponent-reduced, so no prime dividing the
        # index leaves the radicand a perfect power; the radicand is
        # positive whenever 4 divides the index.  Both parts of the binomial
        # irreducibility criterion hold, so the defining binomial is the
        # minimal polynomial, and primitive: the radicand is a reduced
        # fraction with a positive denominator.
        r = node.operand
        return Poly([-r.numerator] + [0] * (node.index - 1) + [r.denominator])
    saf = _saf_of(node)
    if saf is not _SAF_UNAVAILABLE and not isinstance(node, _ATOM_TYPES):
        atom, p = saf
        if atom is None:
            return Poly([-p.nums[0], p.den]) if p else Poly.x()
        if p == _RESIDUE_X:
            return _minpoly(atom)
        # the characteristic polynomial of a value of Q(atom) is its minimal
        # polynomial to the power [Q(atom) : Q(value)], as the atom's
        # minimal polynomial m is irreducible: no factoring is needed
        m = _minpoly(atom).nums
        n = len(m) - 1
        # the cap bounds this route as it bounds factoring: past it, the
        # value gets the diagnostic of factoring its characteristic polynomial
        check_degree(n, "factor_over_Q input")
        algebra = _Algebra([m])
        return Poly(_int_squarefree(algebra.charpoly(algebra.lift(p.nums, p.den))))
    elif isinstance(node, _RootAtom):
        m_op = _minpoly(node.operand)
        check_degree(m_op.degree * node.index, "root adjunction")
        annihilator = m_op.substitute_power(node.index)
        if _relatively_irreducible(m_op, Poly.monomial(node.index)):
            return annihilator.primitive()
    elif isinstance(node, _PolyRootAtom):
        annihilator = node.poly
    elif isinstance(node, _CutRootAtom):
        m_c = _minpoly(node.target)
        check_degree(m_c.degree * node.cdf.degree, "cut-root elimination")
        annihilator = m_c.compose(node.cdf)
        if _relatively_irreducible(m_c, node.cdf):
            return annihilator.primitive()
    else:
        f = _atoms_charpoly(node)
        if f is None:
            # the last generators: the node's distinct operands, each a unit
            # of the algebra as its minimal polynomial is irreducible
            ma, mb = _minpoly(node.a), _minpoly(node.b)
            kind = "add" if isinstance(node, (_Add, _Sub)) else "mul"
            check_degree(ma.degree * mb.degree, f"{kind} elimination")
            gens = [node.a] if node.a is node.b else [node.a, node.b]
            f = _charpoly_over(node, gens, [_minpoly(g).nums for g in gens])
        annihilator = Poly(f)
    fac = factor_over_Q(annihilator)
    return _select_factor([f for f, _ in fac.factors], node).primitive()


# -- signs and comparisons -------------------------------------------------------


def _sign(node: _Node) -> int:
    """The exact sign.  A rational leaf reads its numerator.  Any other
    node refines from its cached effort (`_refined_sign`), and only a value
    that 2^-128 cannot separate from 0 takes the exact route.  So a value
    that refinement separates from 0 never builds its single-atom form, nor
    a minimal polynomial for it."""
    if isinstance(node, _Rat):
        n = node.value.numerator
        return (n > 0) - (n < 0)
    return _refined_sign(node, 0, max(8, node._ivc[0]))


def _compare(a, b) -> int:
    """sign(a - b) for a and b each a node, an int or a Fraction, charged
    the one tick of the subtraction it replaces, and building no
    difference node unless the exact route needs one.

    First come the folds `_fold_sub` would apply: a is b, two rationals
    (compared by integer cross-multiplication), and an operand the
    difference folds to (`_sub_fold`), whose sign it is.  Any other pair
    refines the operands' own enclosures from effort 8, where an
    operand cached at a higher effort gives its cached enclosure, as an
    operand of a fresh difference node would (`_refined_sign`).  Each step
    of refinement leaves every node the enclosure the difference node's
    walk would have left, so later enclosures, and all output, are those
    that the sign of a - b as a node would give."""
    _tick()
    if a is b:
        return 0
    if isinstance(a, _Rat):
        a = a.value
    if isinstance(b, _Rat):
        b = b.value
    if not isinstance(a, _Node) and not isinstance(b, _Node):
        d = a.numerator * b.denominator - b.numerator * a.denominator
        return (d > 0) - (d < 0)
    folded = _sub_fold(a, b)
    return _refined_sign(a, b, 8) if folded is None else _sign(folded)


def _refined_sign(a, b, k: int) -> int:
    """sign(a - b) for a node a and a node or rational b, or a rational a
    and a node b: the one refinement loop behind `_sign` (b = 0) and
    `_compare`.  The enclosures of a and b at effort k, k doubling, decide
    once they are disjoint, exactly where the enclosure of the difference
    would exclude 0; a rational is its own enclosure.  A pair that 2^-128
    cannot separate takes the exact route once (`_exact_sign`, on a or on
    an uncounted difference node), and refinement goes on only when that
    proves the difference nonzero."""
    nonzero = False
    while True:
        try:
            alo, ahi = _interval(a, k) if isinstance(a, _Node) else (a, a)
            blo, bhi = _interval(b, k) if isinstance(b, _Node) else (b, b)
        except _MorePrecision:
            pass
        else:
            if alo > bhi:
                return 1
            if ahi < blo:
                return -1
        k *= 2
        if k > 128 and not nonzero:
            if not isinstance(b, _Node) and b == 0:
                s = _exact_sign(a)
            else:
                s = _exact_sign(_Sub(*(v if isinstance(v, _Node) else _rat(v) for v in (a, b))))
            if s is not None:
                return s
            nonzero = True


def _exact_sign(node: _Node) -> Optional[int]:
    """The sign of a node that is no rational leaf, decided without
    refinement, or None when the node is proven nonzero.  A constant
    single-atom form gives its sign; a nonconstant one, a nonzero residue
    modulo an irreducible modulus, proves the value nonzero.  A node with
    no form is a binary operation, as atoms have forms, and is decided
    from its operands, never from its own minimal polynomial: a product or
    quotient multiplies their signs, and a sum or difference is zero only
    when its operands are equal, or opposite (`_equal_values`)."""
    saf = _saf_of(node)
    if saf is not _SAF_UNAVAILABLE:
        atom, p = saf
        if atom is not None:
            return None
        v = p.nums[0] if p else 0
        return (v > 0) - (v < 0)
    if isinstance(node, (_Mul, _Div)):
        s = _sign(node.a)
        return s and s * _sign(node.b)
    return 0 if _equal_values(node.a, node.b, negated=isinstance(node, _Add)) else None


def _equal_values(a: _Node, b: _Node, negated: bool = False) -> bool:
    """Whether a = b, or a = -b if negated, via shared minimal polynomial
    plus interval separation: with one minimal polynomial, b (or -b) is a
    iff its enclosure falls inside a's isolating interval, which holds no
    other root.  Never eliminates for the difference, so it stays inside
    the cap whenever both operands' minimal polynomials do."""
    ma = _minpoly(a)
    mb = _minpoly(b)
    if negated:
        mb = mb.negate_variable().primitive()
    if ma != mb:
        return False
    if ma.degree == 1:
        return True
    iso = _isolating_interval(a)
    k = 16
    while True:
        blo, bhi = _refine_to(b, Fraction(1, 1 << k))
        if negated:
            blo, bhi = -bhi, -blo
        if iso.lo <= blo and bhi <= iso.hi:
            return True
        if bhi < iso.lo or iso.hi < blo:
            return False
        k *= 2


# -- public wrapper ----------------------------------------------------------------


class AlgebraicNumber:
    """An exact real algebraic number."""

    __slots__ = ("_node",)

    def __init__(self, value):
        if isinstance(value, _Node):
            object.__setattr__(self, "_node", value)
        else:
            object.__setattr__(self, "_node", _rat(value))

    def __setattr__(self, name, v):
        raise AttributeError("AlgebraicNumber is immutable")

    # construction ---------------------------------------------------------

    @staticmethod
    def of(value) -> "AlgebraicNumber":
        if isinstance(value, AlgebraicNumber):
            return value
        return AlgebraicNumber(value)

    @staticmethod
    def real_root(p: Poly, lo, hi) -> "AlgebraicNumber":
        """The unique real root of p within [lo, hi]."""
        return AlgebraicNumber(_make_real_root(p, Fraction(lo), Fraction(hi)))

    # arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_add(self._node, AlgebraicNumber.of(other)._node))

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_sub(self._node, AlgebraicNumber.of(other)._node))

    def __rsub__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_sub(AlgebraicNumber.of(other)._node, self._node))

    def __mul__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_mul(self._node, AlgebraicNumber.of(other)._node))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_div(self._node, AlgebraicNumber.of(other)._node))

    def __rtruediv__(self, other) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_div(AlgebraicNumber.of(other)._node, self._node))

    def __neg__(self) -> "AlgebraicNumber":
        return AlgebraicNumber(_fold_mul(_rat(-1), self._node))

    def __pow__(self, k: int) -> "AlgebraicNumber":
        k = int(k)
        node = self._node
        if k > 0 and isinstance(node, _RootAtom) and k % node.index == 0:
            # (x^(1/e))^(m*e) = x^m for the real root: x itself, or the
            # rational x^m; charged the ticks of square-and-multiply
            x, m = node.operand, k // node.index
            if isinstance(x, Fraction) or m == 1:
                _tick(k.bit_length() + k.bit_count() - 1)
                return AlgebraicNumber(x**m if isinstance(x, Fraction) else x)
        out = AlgebraicNumber(1)
        base = self
        if k < 0:
            base = AlgebraicNumber(1) / base
            k = -k
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def root(self, d: int) -> "AlgebraicNumber":
        """The real d-th root: the nonnegative one for even d."""
        return AlgebraicNumber(_make_root(self._node, int(d)))

    # exact queries -----------------------------------------------------------

    def sign(self) -> int:
        return _sign(self._node)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def as_rational(self) -> Optional[Fraction]:
        return _rational_value(self._node)

    def minimal_polynomial(self) -> Poly:
        return _minpoly(self._node)

    def degree(self) -> int:
        return self.minimal_polynomial().degree

    def compare(self, other) -> int:
        """-1, 0 or 1 as self is below, equal to or above other, an
        AlgebraicNumber, an int or a Fraction (`_compare`): no difference
        node is built, and the one tick of the subtraction is charged."""
        if isinstance(other, AlgebraicNumber):
            other = other._node
        elif not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return _compare(self._node, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (AlgebraicNumber, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    __hash__ = None  # semantic equality is a decision procedure

    # enclosures ----------------------------------------------------------------

    def approx(self, eps) -> tuple[Fraction, Fraction]:
        """An enclosure [lo, hi] of this value at most eps wide, eps > 0."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError(f"approximation width must be positive, got {eps}")
        # aim at the effort 8 * 2^j that refinement by doubling reached, so
        # an atom's enclosure stays the one that schedule returned; a
        # polynomial or cut root is refined once, where the schedule stops
        b = _log2_ceil(1 / eps)
        return _refine_to(self._node, eps, 8 << _log2_ceil(Fraction(b, 8)))

    def isolating_interval(self) -> DyadicInterval:
        """A dyadic interval containing this value and no other root of its
        minimal polynomial, with no root at its ends.  Cached on the
        underlying node."""
        return _isolating_interval(self._node)

    def decimal(self, digits: int = 12) -> str:
        """Truncated decimal expansion; an ellipsis marks inexactness."""
        if digits < 0:
            raise ValueError(f"digits must be non-negative, got {digits}")
        r = self.as_rational()
        scale = 10**digits
        if r is not None:
            neg = r < 0
            rr = -r if neg else r
            whole = rr.numerator // rr.denominator
            frac = (rr - whole) * scale
            fi = frac.numerator // frac.denominator
            exact = frac == fi
            body = f"{whole}.{fi:0{digits}d}" if digits else str(whole)
            body = body.rstrip("0").rstrip(".") if exact else body
            if not body or body == "-":
                body = "0"
            return ("-" if neg and (whole or fi or not exact) else "") + body + ("" if exact else "…")
        # with no single-atom form the value may still be rational
        tie = _saf_of(self._node) is _SAF_UNAVAILABLE
        eps = Fraction(1, 10 ** (digits + 2))
        while True:
            lo, hi = _refine_to(self._node, eps)
            if lo == hi:
                # a point enclosure is the value itself, which is rational
                return AlgebraicNumber(lo).decimal(digits)
            # truncate |value| once both ends have one sign and truncate alike
            if lo >= 0 or hi <= 0:
                tlo = (abs(lo.numerator) * scale) // lo.denominator
                thi = (abs(hi.numerator) * scale) // hi.denominator
                if tlo == thi:
                    whole, fi = divmod(tlo, scale)
                    body = f"{whole}.{fi:0{digits}d}" if digits else str(whole)
                    return ("-" if hi <= 0 else "") + body + "…"
                g = Fraction(max(tlo, thi), scale) * (-1 if hi <= 0 else 1)
            else:
                g = Fraction(0)
            # the value straddles the grid line g: unless it is g, which only
            # a value with no single-atom form can be, keep tightening
            if tie:
                with uncounted():
                    if _compare(self._node, g) == 0:
                        return AlgebraicNumber(g).decimal(digits)
            eps /= 100

    def display(self, digits: int = 12) -> str:
        """Decimal approximation plus the exact minimal polynomial."""
        return f"{self.decimal(digits)} (minpoly: {self.minimal_polynomial()})"

    def __repr__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return f"AlgebraicNumber({r})"
        return f"AlgebraicNumber({self.decimal(8)})"

    def __str__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return str(r)
        return self.decimal(12)


def nth_root(value, d: int) -> AlgebraicNumber:
    """The real d-th root of a rational or algebraic value."""
    return AlgebraicNumber.of(value).root(d)


def poly_at(p: Poly, v: AlgebraicNumber) -> AlgebraicNumber:
    """Evaluate a rational polynomial at an algebraic point, exactly.  When
    the point's defining relation gives the value, that value is returned as
    the node the query already holds (`_held_poly_at`): F at its own cut root
    is the cut's target, and T^d at the real d-th root of a node is that
    node, so a piece value F(y) - F(x) is built from the query's own nodes
    and a tie on it folds by operand identity.  Otherwise it is evaluated on
    residues when the point lies in one atom's field, and else by folding
    one multiplication and one addition per coefficient.  Every route but
    the rational one charges 2 * len(p.nums) ticks."""
    r = v.as_rational()
    if r is not None:
        return AlgebraicNumber.of(p(r))
    node = _held_poly_at(p, v._node) or _residue_poly_at(p, v._node)
    if node is not None:
        return AlgebraicNumber(node)
    acc = AlgebraicNumber.of(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def sign(value) -> int:
    """Exact sign: -1, 0 or 1."""
    return AlgebraicNumber.of(value).sign()


def minimal_polynomial(value) -> Poly:
    return AlgebraicNumber.of(value).minimal_polynomial()


@contextlib.contextmanager
def count_ops(counter: Optional[list[int]]):
    """Tick the field operations done inside, in this context only, into
    counter[0]; the counter open outside is restored on exit.  A counter of
    None counts nothing."""
    token = _op_counter.set(counter)
    try:
        yield counter
    finally:
        _op_counter.reset(token)


def uncounted():
    """The field operations inside are nobody's mediator work (the tower's
    degree computations)."""
    return count_ops(None)


# -- DAG walks for the tower ---------------------------------------------------------


def _dag_atoms(node: _Node) -> list[_Node]:
    """The distinct atoms the value is built from by field operations, in
    first-visit order.  A root or cut atom is a leaf: its operand or target
    is not entered."""
    seen: dict[int, _Node] = {}  # in the order the walk finishes them

    def visit(n: _Node, *_) -> _Node:
        seen[id(n)] = n
        return n

    _walk(node, lambda n: seen.get(id(n)), visit)
    return [n for n in seen.values() if isinstance(n, _ATOM_TYPES)]


def _form_leaves(node: _Node) -> tuple[_Node, ...]:
    """The distinct maximal subexpressions of a value with no single-atom
    form that have one, in first-visit order: atoms, rationals and values
    of one atom's field, of which the value is a rational function.  Each
    node without a form caches its tuple, so asking again at every level
    of a deep DAG costs one merge per node."""

    def cached(n: _Node):
        return (n,) if _saf_of(n) is not _SAF_UNAVAILABLE else n._leaves

    def compute(n: _Node, la, lb):
        n._leaves = la + tuple(x for x in lb if x not in la)
        return n._leaves

    return _walk(node, cached, compute)


def _generating_atom(node: _Node) -> Optional[_Node]:
    """An atom a with Q(a) = Q(value): the value itself when it is an atom,
    else the atom of its single-atom form when that form is affine, when
    the atom's degree is prime (a field of prime degree has no proper
    subfield but Q), or when the value has the atom's degree over Q.
    None otherwise."""
    if isinstance(node, _ATOM_TYPES):
        return node
    saf = _saf_of(node)
    if saf is _SAF_UNAVAILABLE or saf[0] is None:
        return None
    atom, p = saf
    if p.degree == 1:
        return atom
    try:
        d = _minpoly(atom).degree
        return atom if is_probable_prime(d) or d == _minpoly(node).degree else None
    except DegreeCapExceeded:
        return None


def _residue_mod(node: _Node, p: int, images: dict[int, int]) -> Optional[int]:
    """The value modulo the prime p, with each atom replaced by its image
    images[id(atom)] in F_p: the DAG's field operations carried out in F_p.
    None when a rational leaf's denominator or a divisor vanishes mod p.
    Every atom of the DAG must have an image."""
    done: dict[int, int] = {}

    def compute(n: _Node, x=None, y=None) -> int:
        if isinstance(n, _Add):
            v = (x + y) % p
        elif isinstance(n, _Sub):
            v = (x - y) % p
        elif isinstance(n, _Mul):
            v = x * y % p
        elif isinstance(n, _Div):
            v = x * pow(y, -1, p) % p
        elif isinstance(n, _Rat):
            v = n.value.numerator * pow(n.value.denominator, -1, p) % p
        else:
            v = images[id(n)]
        done[id(n)] = v
        return v

    try:
        return _walk(node, lambda n: done.get(id(n)), compute)
    except ValueError:  # pow of a residue 0 to the power -1
        return None
