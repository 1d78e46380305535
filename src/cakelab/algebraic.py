"""Exact real algebraic numbers.

A value is a DAG of rational leaves, field operations, real d-th roots,
and isolated polynomial roots.  Every public answer is exact: signs are
decided by interval refinement with a symbolic fallback, and each value
can produce its minimal polynomial over the rationals together with a
dyadic isolating interval.

Key internals:

* Values that are rational functions of a single irrational "atom" are
  normalized into the number field Q[y]/(m_atom(y)).  In that form a zero
  test is a polynomial comparison and never needs refinement.
* Values mixing independent atoms fall back to resultant elimination,
  guarded by the degree cap; sign queries that cannot be settled
  symbolically keep refining numerically once the value is known nonzero.
* Root atoms over rational radicands are canonicalized and interned, so
  structurally equal radicals are pointer-equal and their differences
  fold to zero without any elimination.

The intern tables, node caches and the degree cap are process-wide and
unlocked: the module is single-threaded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .dyadic import DyadicInterval
from .errors import DegreeCapExceeded, ZeroPolynomialError
from .factoring import DEFAULT_DEGREE_CAP, _interpolate, factor_over_Q
from .ints import factor_positive, int_nth_root, is_probable_prime
from .polys import (
    Poly,
    bisect_root,
    dyadic_horner,
    rational_roots,
    resultant,
    root_bound,
    squarefree_part,
    sturm_chain,
    sturm_count,
    sturm_isolate,
)

_degree_cap = DEFAULT_DEGREE_CAP


def set_degree_cap(cap: int) -> None:
    """Override the factorization degree cap (process-wide, set at startup)."""
    global _degree_cap
    _degree_cap = int(cap)


def degree_cap() -> int:
    return _degree_cap


# Counters registered here receive one tick per field operation performed
# on algebraic numbers; sessions use this to report mediator work.
_op_counters: list[list[int]] = []


def _tick() -> None:
    for c in _op_counters:
        c[0] += 1


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
    """Canonicalize r^(1/d) as s^(1/e) with e | d and s no q-th power for
    any prime q dividing e: exact q-th roots are taken while they exist, so
    e.g. the fourth root of 4 becomes the square root of 2.  With r = t^g
    and t no perfect power, s = t^(g/gcd(g, d)) and e = d/gcd(g, d)."""
    for q in factor_positive(d):
        while d % q == 0:
            s = exact_nth_root(r, q)
            if s is None:
                break
            r, d = s, d // q
    return r, d


# -- expression nodes --------------------------------------------------------

_SAF_UNAVAILABLE = object()


class _Node:
    __slots__ = ("_mp", "_saf", "_ivc", "_lin", "_mono", "_iso")

    def __init__(self) -> None:
        self._mp = None  # cached minpoly, or a cached DegreeCapExceeded
        self._saf = None  # cached single-atom form
        self._ivc = (-1, None)  # (effort level, enclosure), one atomic slot
        self._iso = None  # cached isolating interval
        self._lin = None  # cached linear form over atoms, or _FORM_NONE
        self._mono = None  # cached monomial form over atoms, or _FORM_NONE


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

    __slots__ = ("poly", "ordinal", "lo", "hi")

    def __init__(self, poly: Poly, ordinal: int, lo: Fraction, hi: Fraction):
        super().__init__()
        self.poly = poly  # primitive squarefree, positive leading coefficient
        self.ordinal = ordinal  # index among all real roots, ascending
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


_root_intern: dict[tuple[Fraction, int], _RootAtom] = {}
_polyroot_intern: dict[tuple[tuple[Fraction, ...], int], _PolyRootAtom] = {}


# -- linear and monomial forms over atoms ---------------------------------------
#
# A linear form is (const, {id(atom): (atom, coeff)}) and a monomial form
# is (coeff, {id(atom): (atom, exponent)}).  They exist only when the DAG
# is literally of that shape, and let exact cancellations like (a+b)-b and
# (a*b)/b collapse structurally before any resultant is formed.

_FORM_NONE = object()


def _lin_of(node: _Node):
    cached = node._lin
    if cached is not None:
        return None if cached is _FORM_NONE else cached
    if isinstance(node, _Rat):
        form = (node.value, {})
    elif isinstance(node, (_RootAtom, _PolyRootAtom, _CutRootAtom)):
        form = (Fraction(0), {id(node): (node, Fraction(1))})
    else:
        form = None  # op nodes get forms at construction or not at all
    node._lin = form if form is not None else _FORM_NONE
    return form


def _mono_of(node: _Node):
    cached = node._mono
    if cached is not None:
        return None if cached is _FORM_NONE else cached
    if isinstance(node, _Rat):
        form = (node.value, {})
    elif isinstance(node, (_RootAtom, _PolyRootAtom, _CutRootAtom)):
        form = (Fraction(1), {id(node): (node, 1)})
    else:
        form = None
    node._mono = form if form is not None else _FORM_NONE
    return form


def _lin_combine(fa, fb, sign: int):
    const = fa[0] + sign * fb[0]
    atoms = dict(fa[1])
    for key, (atom, coeff) in fb[1].items():
        cur = atoms.get(key)
        new = (cur[1] if cur else Fraction(0)) + sign * coeff
        if new == 0:
            atoms.pop(key, None)
        else:
            atoms[key] = (atom, new)
    return (const, atoms)


def _lin_scale(form, q: Fraction):
    if q == 0:
        return (Fraction(0), {})
    return (form[0] * q, {k: (a, c * q) for k, (a, c) in form[1].items()})


def _collapse_lin(form) -> Optional[_Node]:
    const, atoms = form
    if not atoms:
        return _Rat(const)
    if const == 0 and len(atoms) == 1:
        (atom, coeff), = atoms.values()
        if coeff == 1:
            return atom
    return None


def _mono_combine(fa, fb, sign: int):
    coeff = fa[0] * fb[0] if sign > 0 else fa[0] / fb[0]
    atoms = dict(fa[1])
    for key, (atom, exp) in fb[1].items():
        cur = atoms.get(key)
        new = (cur[1] if cur else 0) + sign * exp
        if new == 0:
            atoms.pop(key, None)
        else:
            atoms[key] = (atom, new)
    return (coeff, atoms)


def _collapse_mono(form) -> Optional[_Node]:
    coeff, atoms = form
    if coeff == 0:
        return _Rat(Fraction(0))
    if not atoms:
        return _Rat(coeff)
    if coeff == 1 and len(atoms) == 1:
        (atom, exp), = atoms.values()
        if exp == 1:
            return atom
    return None


# -- construction with folding ------------------------------------------------


def _rat(v) -> _Rat:
    return _Rat(Fraction(v))


def _fold_add(a: _Node, b: _Node) -> _Node:
    _tick()
    if isinstance(a, _Rat) and isinstance(b, _Rat):
        return _Rat(a.value + b.value)
    if isinstance(a, _Rat) and a.value == 0:
        return b
    if isinstance(b, _Rat) and b.value == 0:
        return a
    fa, fb = _lin_of(a), _lin_of(b)
    form = _lin_combine(fa, fb, +1) if fa is not None and fb is not None else None
    if form is not None:
        collapsed = _collapse_lin(form)
        if collapsed is not None:
            return collapsed
    node = _Add(a, b)
    if form is not None:
        node._lin = form
    return node


def _fold_sub(a: _Node, b: _Node) -> _Node:
    _tick()
    if a is b:
        return _rat(0)
    if isinstance(a, _Rat) and isinstance(b, _Rat):
        return _Rat(a.value - b.value)
    if isinstance(b, _Rat) and b.value == 0:
        return a
    fa, fb = _lin_of(a), _lin_of(b)
    form = _lin_combine(fa, fb, -1) if fa is not None and fb is not None else None
    if form is not None:
        collapsed = _collapse_lin(form)
        if collapsed is not None:
            return collapsed
    node = _Sub(a, b)
    if form is not None:
        node._lin = form
    return node


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
    lin = None
    for x, y in ((a, b), (b, a)):
        if isinstance(x, _Rat):
            fy = _lin_of(y)
            if fy is not None:
                lin = _lin_scale(fy, x.value)
    fa, fb = _mono_of(a), _mono_of(b)
    mono = _mono_combine(fa, fb, +1) if fa is not None and fb is not None else None
    if mono is not None:
        collapsed = _collapse_mono(mono)
        if collapsed is not None:
            return collapsed
    if lin is not None:
        collapsed = _collapse_lin(lin)
        if collapsed is not None:
            return collapsed
    node = _Mul(a, b)
    if lin is not None:
        node._lin = lin
    if mono is not None:
        node._mono = mono
    return node


def _fold_div(a: _Node, b: _Node) -> _Node:
    _tick()
    if isinstance(b, _Rat):
        if b.value == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(a, _Rat):
            return _Rat(a.value / b.value)
        return _fold_mul(_Rat(1 / b.value), a)
    if _sign(b) == 0:
        raise ZeroDivisionError("division by an exact zero")
    if a is b:
        return _rat(1)
    if isinstance(a, _Rat) and a.value == 0:
        return _rat(0)
    fa, fb = _mono_of(a), _mono_of(b)
    mono = _mono_combine(fa, fb, -1) if fa is not None and fb is not None else None
    if mono is not None:
        collapsed = _collapse_mono(mono)
        if collapsed is not None:
            return collapsed
    node = _Div(a, b)
    if mono is not None:
        node._mono = mono
    return node


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
    """The unique real root of p inside [lo, hi], folded and interned."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot take a root of the zero polynomial")
    sqf = squarefree_part(p).primitive()
    bound = root_bound(sqf)
    all_ivs = sturm_isolate(sqf, DyadicInterval(-bound, bound))
    # each isolating interval holds one simple root and sqf changes sign
    # only there, so a sign test at the clipped ends places that root
    hits = []
    for idx, iv in enumerate(all_ivs):
        a, b = max(iv.lo, lo), min(iv.hi, hi)
        if a <= b and sqf(a) * sqf(b) <= 0:
            hits.append(idx)
    if len(hits) != 1:
        raise ValueError("the span must contain exactly one root")
    for r in rational_roots(sqf):
        if lo <= r <= hi:
            return _Rat(r)
    target_idx = hits[0]
    iv = all_ivs[target_idx]
    nonzero = [(i, c) for i, c in enumerate(sqf.coeffs) if c != 0]
    if len(nonzero) == 2 and nonzero[0][0] == 0:
        # binomial c*T^d + e: the root is a pure radical
        d = nonzero[1][0]
        radicand = -nonzero[0][1] / nonzero[1][1]
        if d % 2 == 1 or iv.lo >= 0:
            return _make_root(radicand, d)
        return _fold_mul(_rat(-1), _make_root(radicand, d))
    if sqf.degree == 2:
        return _quadratic_root(sqf, iv)
    key = (sqf.coeffs, target_idx)
    atom = _polyroot_intern.get(key)
    if atom is None:
        atom = _PolyRootAtom(sqf, target_idx, iv.lo, iv.hi)
        _polyroot_intern[key] = atom
    return atom


def _quadratic_root(sqf: Poly, iv: DyadicInterval) -> _Node:
    """Quadratic roots canonicalize to r0 + r1 * sqrt(D) with D squarefree,
    so values from different quadratics share one interned atom per D and
    stay inside the radical machinery."""
    a0, a1, a2 = sqf.coeff(0), sqf.coeff(1), sqf.coeff(2)
    disc = int(a1 * a1 - 4 * a2 * a0)
    assert disc > 0
    square, squarefree = 1, 1
    for prime, e in factor_positive(disc).items():
        square *= prime ** (e // 2)
        squarefree *= prime ** (e % 2)
    root = _make_root(Fraction(squarefree), 2)  # interned
    base = -a1 / (2 * a2)
    scale = Fraction(square) / (2 * a2)
    plus = _fold_add(_rat(base), _fold_mul(_rat(scale), root))
    minus = _fold_add(_rat(base), _fold_mul(_rat(-scale), root))
    k = 8
    while True:
        plo, phi = _interval(plus, k)
        mlo, mhi = _interval(minus, k)
        p_in = phi >= iv.lo and plo <= iv.hi
        m_in = mhi >= iv.lo and mlo <= iv.hi
        if p_in and not m_in:
            return plus
        if m_in and not p_in:
            return minus
        k *= 2


def _make_cut_root(cdf: Poly, target: _Node) -> _Node:
    rv = _rational_value(target)
    if rv is not None:
        return _make_real_root(cdf - Poly.constant(rv), Fraction(0), Fraction(1))
    return _CutRootAtom(cdf, target)


# -- interval evaluation -------------------------------------------------------


class _MorePrecision(Exception):
    pass


def _iv_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _iv_sub(x, y):
    return x[0] - y[1], x[1] - y[0]


def _iv_mul(x, y):
    ps = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(ps), max(ps)


def _iv_div(x, y):
    if y[0] <= 0 <= y[1]:
        raise _MorePrecision
    ps = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    return min(ps), max(ps)


def _interval(node: _Node, k: int) -> tuple[Fraction, Fraction]:
    ck, civ = node._ivc
    if ck >= k:
        return civ
    if isinstance(node, _Rat):
        iv = (node.value, node.value)
    elif isinstance(node, _Add):
        iv = _iv_add(_interval(node.a, k), _interval(node.b, k))
    elif isinstance(node, _Sub):
        iv = _iv_sub(_interval(node.a, k), _interval(node.b, k))
    elif isinstance(node, _Mul):
        iv = _iv_mul(_interval(node.a, k), _interval(node.b, k))
    elif isinstance(node, _Div):
        iv = _iv_div(_interval(node.a, k), _interval(node.b, k))
    elif isinstance(node, _RootAtom):
        if isinstance(node.operand, Fraction):
            iv = nth_root_bounds(node.operand, node.index, k)
        else:
            olo, ohi = _interval(node.operand, k)
            if node.index % 2 == 0:
                olo = max(olo, Fraction(0))
                ohi = max(ohi, Fraction(0))
            lo = nth_root_bounds(olo, node.index, k)[0]
            hi = nth_root_bounds(ohi, node.index, k)[1]
            iv = (lo, hi)
    elif isinstance(node, _PolyRootAtom):
        iv = _refine_polyroot(node, k)
    elif isinstance(node, _CutRootAtom):
        iv = _refine_cutroot(node, k)
    else:  # pragma: no cover
        raise TypeError(node)
    node._ivc = (k, iv)
    return iv


def _refine_polyroot(atom: _PolyRootAtom, k: int) -> tuple[Fraction, Fraction]:
    cs = [int(c) for c in atom.poly.coeffs]
    if atom.poly(atom.lo) > 0:
        cs = [-c for c in cs]

    def side(m: int, e: int) -> int:
        return dyadic_horner(cs, m, e)

    # the poly has no root at a midpoint: interned atoms have no rational roots
    atom.lo, atom.hi = bisect_root(side, atom.lo, atom.hi, Fraction(1, 1 << k))
    return atom.lo, atom.hi


def _refine_cutroot(atom: _CutRootAtom, k: int) -> tuple[Fraction, Fraction]:
    kc = max(k, 8)
    den = math.lcm(*[c.denominator for c in atom.cdf.coeffs])
    cs = [int(c * den) for c in atom.cdf.coeffs]
    n = len(cs) - 1

    def side(m: int, e: int) -> int:
        """Sign of cdf(x) - target at x = m / 2^e, with both sides scaled by
        den * 2^(e*n); the target is irrational by construction, so doubling
        its precision always separates the two."""
        nonlocal kc
        fx = dyadic_horner(cs, m, e)
        while True:
            tlo, thi = _interval(atom.target, kc)
            if fx * tlo.denominator < (tlo.numerator * den) << (e * n):
                return -1
            if fx * thi.denominator > (thi.numerator * den) << (e * n):
                return 1
            kc *= 2

    atom.lo, atom.hi = bisect_root(side, atom.lo, atom.hi, Fraction(1, 1 << k))
    return atom.lo, atom.hi


def _refine_to(node: _Node, eps: Fraction) -> tuple[Fraction, Fraction]:
    k = max(8, node._ivc[0])
    while True:
        try:
            lo, hi = _interval(node, k)
        except _MorePrecision:
            k *= 2
            continue
        if hi - lo <= eps:
            return lo, hi
        k *= 2


# -- single-atom normal form ---------------------------------------------------


def _ext_gcd_poly(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with s*a + t*b = g over the rationals."""
    r0, r1 = a, b
    s0, s1 = Poly.constant(1), Poly()
    t0, t1 = Poly(), Poly.constant(1)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _inv_mod(g: Poly, m: Poly) -> Poly:
    d, s, _ = _ext_gcd_poly(g, m)
    assert d.degree == 0 and not d.is_zero, "modulus must be coprime to g"
    return (s.scale(1 / d.coeff(0))) % m


def _saf_of(node: _Node):
    """Single-atom form: (atom_or_None, poly) with value = poly(atom), the
    poly reduced modulo the atom's monic minimal polynomial.  Returns the
    sentinel when the value mixes atoms or the atom is past the cap."""
    if node._saf is not None:
        return node._saf
    result = _compute_saf(node)
    node._saf = result
    return result


def _norm_saf(atom, g: Poly):
    """A constant residue no longer depends on its atom; dropping the tag
    lets values from different fields combine when they are rational."""
    if g.degree <= 0:
        return (None, g)
    return (atom, g)


def _compute_saf(node: _Node):
    if isinstance(node, _Rat):
        return (None, Poly.constant(node.value))
    if isinstance(node, (_RootAtom, _PolyRootAtom, _CutRootAtom)):
        return (node, Poly.x())
    assert isinstance(node, _Binary)
    fa = _saf_of(node.a)
    fb = _saf_of(node.b)
    if fa is _SAF_UNAVAILABLE or fb is _SAF_UNAVAILABLE:
        return _SAF_UNAVAILABLE
    atom_a, ga = _norm_saf(*fa)
    atom_b, gb = _norm_saf(*fb)
    if atom_a is not None and atom_b is not None and atom_a is not atom_b:
        return _SAF_UNAVAILABLE
    atom = atom_a if atom_a is not None else atom_b
    if atom is None:
        # both rational constants; folding normally prevents this
        va, vb = ga.coeff(0), gb.coeff(0)
        if isinstance(node, _Add):
            return (None, Poly.constant(va + vb))
        if isinstance(node, _Sub):
            return (None, Poly.constant(va - vb))
        if isinstance(node, _Mul):
            return (None, Poly.constant(va * vb))
        return (None, Poly.constant(va / vb))
    try:
        m = _minpoly(atom).monic()
    except DegreeCapExceeded:
        return _SAF_UNAVAILABLE
    if isinstance(node, _Add):
        g = (ga + gb) % m
    elif isinstance(node, _Sub):
        g = (ga - gb) % m
    elif isinstance(node, _Mul):
        g = (ga * gb) % m
    else:
        gbr = gb % m
        if gbr.is_zero:
            raise ZeroDivisionError("division by an exact zero")
        g = (ga * _inv_mod(gbr, m)) % m
    return _norm_saf(atom, g)


def _rational_value(node: _Node) -> Optional[Fraction]:
    """Exact rational value of the node, if it provably is rational."""
    if isinstance(node, _Rat):
        return node.value
    saf = _saf_of(node)
    if saf is _SAF_UNAVAILABLE:
        return None
    _, g = saf
    if g.degree <= 0:
        return g.coeff(0)
    return None


# -- minimal polynomials --------------------------------------------------------


def _select_factor(candidates: list[Poly], node: _Node) -> Poly:
    """The unique irreducible candidate vanishing at the node's value."""
    cands = []
    for f in candidates:
        if f.degree == 1:
            cands.append((f, None, -f.coeff(0) / f.coeff(1)))
        else:
            cands.append((f, sturm_chain(f), None))
    k = 8
    while True:
        lo, hi = _refine_to(node, Fraction(1, 1 << k))
        surviving = []
        for f, chain, root in cands:
            if root is not None:
                if lo <= root <= hi:
                    surviving.append((f, chain, root))
            else:
                # irreducible of degree >= 2: rational endpoints are never
                # roots, so the half-open Sturm count equals the closed one
                if sturm_count(chain, lo, hi) >= 1:
                    surviving.append((f, chain, root))
        if len(surviving) == 1:
            return surviving[0][0]
        assert surviving, "no candidate contains the value"
        cands = surviving
        k *= 2


def _image_minpoly_candidates(m: Poly, g: Poly) -> list[Poly]:
    """Factors of Res_y(m(y), T - g(y)); the image value g(root) satisfies
    one of them.  Degree of the resultant equals deg m."""
    n = m.degree
    pts = list(range(n + 1))
    vals = [resultant(m, Poly.constant(t) - g) for t in pts]
    rpoly = Poly(_interpolate(pts, vals))
    fac = factor_over_Q(rpoly, degree_cap())
    return [f for f, _ in fac.factors]


def _binary_elimination(kind: str, ma: Poly, mb: Poly) -> Poly:
    """Polynomial of degree deg ma * deg mb whose roots are all pairwise
    sums ("add") or products ("mul") of roots of ma and mb: the resultant
    in y of ma(y) against mb(T - y), or against y^deg mb * mb(T / y),
    interpolated at integer points T."""
    nb = mb.degree
    pts = list(range(ma.degree * nb + 1))
    vals = []
    for t in pts:
        if kind == "add":
            other = mb.compose(Poly([Fraction(t), -1]))
        else:  # mul
            other = Poly([mb.coeff(nb - j) * Fraction(t) ** (nb - j) for j in range(nb + 1)])
        vals.append(resultant(ma, other))
    return Poly(_interpolate(pts, vals))


def _binary_minpoly_candidates(kind: str, ma: Poly, mb: Poly) -> list[Poly]:
    dd = ma.degree * mb.degree
    cap = degree_cap()
    if dd > cap:
        raise DegreeCapExceeded(dd, cap, f"{kind} elimination")
    fac = factor_over_Q(_binary_elimination(kind, ma, mb), cap)
    return [f for f, _ in fac.factors]


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
    node._mp = result
    return result


def _compute_minpoly(node: _Node) -> Poly:
    if isinstance(node, _Rat):
        return Poly([-node.value.numerator, node.value.denominator])
    saf = _saf_of(node)
    if saf is not _SAF_UNAVAILABLE and not isinstance(
        node, (_RootAtom, _PolyRootAtom, _CutRootAtom)
    ):
        atom, g = saf
        if atom is None or g.degree <= 0:
            v = g.coeff(0)
            return Poly([-v.numerator, v.denominator])
        if g == Poly.x():
            return _minpoly(atom)
        m = _minpoly(atom).monic()
        cands = _image_minpoly_candidates(m, g)
        return _select_factor(cands, node).primitive()
    if isinstance(node, _RootAtom):
        cap = degree_cap()
        if isinstance(node.operand, Fraction):
            # interned radicals are exponent-reduced, so no prime dividing
            # the index leaves the radicand a perfect power; the radicand is
            # positive whenever 4 divides the index.  Both parts of the
            # binomial irreducibility criterion hold, so the defining
            # binomial is already the minimal polynomial.
            r = node.operand
            return Poly([-r.numerator] + [0] * (node.index - 1) + [r.denominator]).primitive()
        m_op = _minpoly(node.operand)
        dd = m_op.degree * node.index
        if dd > cap:
            raise DegreeCapExceeded(dd, cap, "root adjunction")
        fac = factor_over_Q(m_op.substitute_power(node.index), cap)
        return _select_factor([f for f, _ in fac.factors], node).primitive()
    if isinstance(node, _PolyRootAtom):
        fac = factor_over_Q(node.poly, degree_cap())
        return _select_factor([f for f, _ in fac.factors], node).primitive()
    if isinstance(node, _CutRootAtom):
        m_c = _minpoly(node.target)
        cap = degree_cap()
        dd = m_c.degree * node.cdf.degree
        if dd > cap:
            raise DegreeCapExceeded(dd, cap, "cut-root elimination")
        composed = m_c.compose(node.cdf)
        fac = factor_over_Q(composed, cap)
        return _select_factor([f for f, _ in fac.factors], node).primitive()
    assert isinstance(node, _Binary)
    ma = _minpoly(node.a)
    mb = _minpoly(node.b)
    if isinstance(node, _Add):
        cands = _binary_minpoly_candidates("add", ma, mb)
    elif isinstance(node, _Sub):
        cands = _binary_minpoly_candidates("add", ma, mb.negate_variable())
    elif isinstance(node, _Mul):
        cands = _binary_minpoly_candidates("mul", ma, mb)
    else:
        mb_inv = mb.reverse().primitive()
        cands = _binary_minpoly_candidates("mul", ma, mb_inv)
    return _select_factor(cands, node).primitive()


# -- signs and comparisons -------------------------------------------------------


def _sign(node: _Node) -> int:
    if isinstance(node, _Rat):
        v = node.value
        return (v > 0) - (v < 0)
    saf = _saf_of(node)
    if saf is not _SAF_UNAVAILABLE:
        atom, g = saf
        if g.is_zero:
            return 0
        if g.degree <= 0:
            v = g.coeff(0)
            return (v > 0) - (v < 0)
        # nonzero residue modulo an irreducible modulus: the value is not 0
        return _sign_by_refinement(node, max(8, node._ivc[0]))
    # numeric first, symbolic zero test only if 2^-128 cannot separate
    s = _sign_by_refinement(node, 8, 128)
    if s is not None:
        return s
    try:
        m = _minpoly(node)
        if m == Poly([0, 1]):
            return 0
        if m.degree == 1:
            v = -m.coeff(0) / m.coeff(1)
            return (v > 0) - (v < 0)
    except DegreeCapExceeded:
        if isinstance(node, _Sub) and _equal_values(node.a, node.b):
            return 0
    return _sign_by_refinement(node, max(8, node._ivc[0]))


def _sign_by_refinement(node: _Node, k: int, limit: Optional[int] = None) -> Optional[int]:
    """Refine from precision k, doubling it, until zero is excluded.  This
    ends only for values known to be nonzero; with a limit it returns None
    once k passes the limit."""
    while limit is None or k <= limit:
        try:
            lo, hi = _interval(node, k)
        except _MorePrecision:
            k *= 2
            continue
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2
    return None


def _equal_values(a: _Node, b: _Node) -> bool:
    """Equality via shared minimal polynomial plus interval separation.
    Never forms the resultant of the difference, so it stays inside the
    cap whenever both operands' minimal polynomials do."""
    ma = _minpoly(a)
    mb = _minpoly(b)
    if ma != mb:
        return False
    if ma.degree == 1:
        return True
    chain = sturm_chain(ma)
    k = 16
    while True:
        alo, ahi = _refine_to(a, Fraction(1, 1 << k))
        blo, bhi = _refine_to(b, Fraction(1, 1 << k))
        if ahi < blo or bhi < alo:
            return False
        lo, hi = min(alo, blo), max(ahi, bhi)
        if sturm_count(chain, lo, hi) == 1:
            return True
        k *= 2


# -- public wrapper ----------------------------------------------------------------


class AlgebraicNumber:
    """An exact real algebraic number."""

    __slots__ = ("_node",)

    def __init__(self, value):
        if isinstance(value, _Node):
            object.__setattr__(self, "_node", value)
        else:
            object.__setattr__(self, "_node", _rat(Fraction(value)))

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
        out = AlgebraicNumber(1)
        base = self
        k = int(k)
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
        return (self - AlgebraicNumber.of(other)).sign()

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
        return _refine_to(self._node, eps)

    def isolating_interval(self) -> DyadicInterval:
        """A dyadic interval containing this value and no other root of its
        minimal polynomial.  Cached on the underlying node."""
        if self._node._iso is not None:
            return self._node._iso
        iso = self._compute_isolating_interval()
        self._node._iso = iso
        return iso

    def _compute_isolating_interval(self) -> DyadicInterval:
        m = self.minimal_polynomial()
        if m.degree == 1:
            r = -m.coeff(0) / m.coeff(1)
            k = 4
            while True:
                unit = Fraction(1, 1 << k)
                lo = Fraction((r.numerator << k) // r.denominator - 1, 1 << k)
                hi = lo + 2 * unit
                if m(lo) != 0 and m(hi) != 0:
                    return DyadicInterval(lo, hi)
                k += 1
        chain = sturm_chain(m)
        k = 8
        while True:
            lo, hi = _refine_to(self._node, Fraction(1, 1 << k))
            dlo = Fraction((lo.numerator << k) // lo.denominator, 1 << k)
            dhi = Fraction(-((-hi.numerator << k) // hi.denominator), 1 << k)
            if m(dlo) != 0 and m(dhi) != 0 and sturm_count(chain, dlo, dhi) == 1:
                return DyadicInterval(dlo, dhi)
            k *= 2

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
        eps = Fraction(1, 10 ** (digits + 2))
        while True:
            lo, hi = _refine_to(self._node, eps)
            flo = (lo.numerator * scale) // lo.denominator
            fhi = (hi.numerator * scale) // hi.denominator
            if flo == fhi:
                neg = flo < 0
                mag = -flo if neg else flo
                whole, fi = divmod(mag, scale)
                return ("-" if neg else "") + f"{whole}.{fi:0{digits}d}…"
            eps /= 100  # the value straddles a grid line; keep tightening

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


def rational_radical_form(value: AlgebraicNumber) -> Optional[tuple[Fraction, int]]:
    """When the value generates exactly the field of a radical with a
    rational radicand, return (radicand, index); None otherwise.  Used by
    the tower to keep such adjunctions on the lattice route."""
    node = value._node
    saf = _saf_of(node)
    if saf is _SAF_UNAVAILABLE:
        return None
    atom, g = saf
    if (
        atom is None
        or not isinstance(atom, _RootAtom)
        or not isinstance(atom.operand, Fraction)
        or g.degree < 1
    ):
        return None
    d = atom.index
    if g.degree == 1 or is_probable_prime(d):
        # an affine image generates the whole field; so does any nonconstant
        # image when the field degree is prime (no proper subfields)
        return (atom.operand, d)
    try:
        m = _minpoly(node)
    except DegreeCapExceeded:
        return None
    if m.degree == d:
        return (atom.operand, d)
    return None


def sign(value) -> int:
    """Exact sign: -1, 0 or 1."""
    return AlgebraicNumber.of(value).sign()


def minimal_polynomial(value) -> Poly:
    return AlgebraicNumber.of(value).minimal_polynomial()


class count_ops:
    """Context manager collecting field-operation ticks into a counter."""

    def __init__(self, counter: list[int]):
        self.counter = counter

    def __enter__(self):
        _op_counters.append(self.counter)
        return self.counter

    def __exit__(self, *exc):
        _op_counters.remove(self.counter)
        return False
