import contextvars
import itertools
import math
import operator
import random
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cakelab.algebraic as alg
from cakelab import (
    AlgebraicNumber,
    DegreeCapExceeded,
    ExpressionTooDeep,
    Measure,
    Poly,
    Session,
    isolate_equitable_cutpoint,
    nth_root,
)
from cakelab.algebraic import (
    _Algebra,
    _CutRootAtom,
    _interval,
    _make_cut_root,
)
from cakelab.cake import poly_at
from cakelab.dyadic import DyadicInterval
from cakelab.polys import _normal, _sum, bisect_root, root_bound, sturm_isolate

from _oracle import (
    dag_atoms_oracle,
    doubling_refine_oracle,
    dyadic_horner_oracle,
    elimination_oracle,
    full_span_real_root_oracle,
    image_oracle,
    inverse_mod_oracle,
    isolating_interval_oracle,
    minpoly_by_factoring_oracle,
    nested_elimination_minpoly,
    oracle_factor,
    poly_at_fold_oracle,
    prime_exponents,
    radical_binomial_oracle,
    residue_mod_oracle,
    residue_oracle,
    saf_first_sign_oracle,
    select_factor_oracle,
    sturm_chain_oracle,
    subtraction_sign_oracle,
    sturm_count_oracle,
    sum_polynomial_oracle,
)
from conftest import time_limit

X = Poly.x()


def c(v):
    return Poly.constant(v)


def t_star():
    return AlgebraicNumber.real_root(X**3 + X**2 - c(1), 0, 1)


def charpoly_of(m, g):
    """Monic prod (T - g(a)) over the roots a of m: the characteristic
    polynomial of g in Q[y]/(m), by the one-atom `_Algebra` on integer
    numerators."""
    algebra = _Algebra([m.int_coeffs()])
    return Poly(algebra.charpoly(algebra.lift(g.nums, g.den))).monic()


class TestArithmetic:
    def test_sqrt2_squared(self):
        r2 = nth_root(2, 2)
        assert (r2 * r2 - 2).sign() == 0

    def test_self_quotient(self):
        fifth = nth_root(Fraction(1, 2), 5)
        assert (fifth / fifth - 1).sign() == 0

    def test_radical_matches_isolated_root(self):
        # the fifth root of 1/2 against the isolated real root of 2T^5 - 1
        fifth = nth_root(Fraction(1, 2), 5) + 0
        other = AlgebraicNumber.real_root(Poly([-1, 0, 0, 0, 0, 2]), 0, 1)
        assert (fifth - other).sign() == 0

    def test_division_by_exact_zero(self):
        zero = nth_root(2, 2) * nth_root(2, 2) - 2
        with pytest.raises(ZeroDivisionError):
            AlgebraicNumber(1) / zero
        # the zero test comes before (p*q)/q folds to p
        p = nth_root(Fraction(1, 2), 5) * t_star()
        with pytest.raises(ZeroDivisionError):
            (p * zero) / zero

    def test_field_axioms(self):
        rng = random.Random(5)
        values = [
            AlgebraicNumber(Fraction(3, 7)),
            nth_root(2, 2),
            nth_root(Fraction(1, 2), 5),
            t_star(),
            # degree 15: sums and quotients with it pass the cap unless folded
            nth_root(Fraction(1, 2), 5) * t_star(),
        ]
        for a in values:
            for b in values:
                assert ((a + b) - b - a).sign() == 0
                if b.sign() != 0:
                    assert ((a * b) / b - a).sign() == 0

    def test_rational_folding(self):
        v = AlgebraicNumber(Fraction(1, 3)) + Fraction(2, 3)
        assert v.as_rational() == 1

    @pytest.mark.parametrize("k", range(1, 13))
    def test_radical_powers_fold_at_square_and_multiply_cost(self, k):
        # (2^(1/3))^(3m) is the rational 2^m; no node is built, yet the
        # power charges the ticks of the multiplications it replaces
        r = nth_root(2, 3)
        plain = AlgebraicNumber.real_root(Poly([-3, 1, 0, 0, 0, 1]), 0, 2)
        with alg.count_ops([0]) as ticks:
            folded = r**k
        with alg.count_ops([0]) as want:
            plain**k
        assert ticks == want == [k.bit_length() + k.bit_count() - 1]
        assert folded.as_rational() == (2 ** (k // 3) if k % 3 == 0 else None)
        assert (folded - r * r ** (k - 1)).sign() == 0
        target = nth_root(2, 2) + Fraction(1, 5)
        if k > 1:
            assert (target.root(k) ** k)._node is target._node


class TestRoots:
    def test_fifth_root_of_half(self):
        v = nth_root(Fraction(1, 2), 5)
        assert str(v.minimal_polynomial()) == "2*x^5 - 1"
        assert v.degree() == 5

    def test_exact_power_collapses(self):
        v = nth_root(Fraction(1, 32), 5)
        assert v.as_rational() == Fraction(1, 2)
        assert v.degree() == 1

    def test_inverse_square_root_of_three(self):
        v = nth_root(Fraction(1, 3), 2)
        assert str(v.minimal_polynomial()) == "3*x^2 - 1"
        assert v.degree() == 2

    def test_even_root_of_negative_rejected(self):
        with pytest.raises(ValueError):
            nth_root(-2, 2)
        with pytest.raises(ValueError):
            (nth_root(2, 2) - 3).root(4)

    def test_odd_root_of_negative(self):
        v = nth_root(-8, 3)
        assert v.as_rational() == -2
        w = nth_root(-2, 3)
        assert w.sign() == -1
        assert (w**3 + 2).sign() == 0

    def test_degree_divides_index(self):
        # over a corpus of rational radicands, with equality exactly when
        # no proper power lurks inside
        cases = [
            (Fraction(2), 6, 6),
            (Fraction(4), 6, 3),   # 4^(1/6) = 2^(1/3)
            (Fraction(8), 6, 2),   # 8^(1/6) = sqrt 2
            (Fraction(64), 6, 1),
            (Fraction(27, 8), 6, 2),
            (Fraction(5, 7), 4, 4),
        ]
        for r, d, expected in cases:
            v = nth_root(r, d)
            assert v.degree() == expected
            assert d % v.degree() == 0

    def test_large_power_radicand(self):
        # 2^70 is a square beyond the 64th power: the fourth root is 2^(35/2)
        v = AlgebraicNumber.of(2**70).root(4)
        assert v.minimal_polynomial() == Poly([-(2**35), 0, 1])
        assert v.degree() == 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([Fraction(2), Fraction(6), Fraction(10), Fraction(2, 3), Fraction(5, 12)]),
        st.integers(1, 160),
        st.integers(2, 12),
    )
    def test_power_radicand_degree(self, t, g, d):
        # t is no perfect power, so (t^g)^(1/d) = t^(a/b) with a/b = g/d
        # in lowest terms has degree b
        assert nth_root(t**g, d).degree() == d // math.gcd(g, d)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(Fraction(1, 30), 30, max_denominator=30).filter(lambda t: t != 1),
        st.integers(1, 40),
        st.sampled_from([Fraction(1), Fraction(1), Fraction(3), Fraction(2, 5), Fraction(49, 12)]),
        st.sampled_from([1, -1]),
        st.integers(2, 2000),
    )
    @example(Fraction(2), 30030, Fraction(1), 1, 30030)
    @example(Fraction(3, 2), 6, Fraction(1), -1, 30030)
    @example(Fraction(2), 12, Fraction(1), 1, 2**10)
    @example(Fraction(5), 18, Fraction(1), -1, 3**6)
    @example(Fraction(7), 997, Fraction(1), 1, 997)
    @example(Fraction(2), 2018, Fraction(1), 1, 2018)
    @example(Fraction(6), 1009, Fraction(1), -1, 2018)
    def test_reduce_radical_against_prime_exponents(self, t, g, u, sign, d):
        # r = +-t^g * u = +-T^G with T no perfect power, G the gcd of the
        # prime exponents of |r|; exact q-th roots are taken for the primes
        # q of d dividing G, odd ones only when r < 0, so c = gcd(G, d) or
        # gcd(G, odd part of d), and the result is (+-T^(G/c), d/c)
        r = sign * t**g * u
        assume(abs(r) != 1)
        exps = {}
        for part, e in ((r.numerator, 1), (r.denominator, -1)):
            for q, k in prime_exponents(abs(part)).items():
                exps[q] = e * k
        big_g = math.gcd(*exps.values())
        d_odd = d
        while r < 0 and d_odd % 2 == 0:
            d_odd //= 2
        c = math.gcd(big_g, d_odd)
        root = Fraction(math.prod(Fraction(q) ** (k // c) for q, k in exps.items()))
        assert alg._reduce_radical(r, d) == (sign * root, d // c)

    def test_root_of_algebraic(self):
        v = nth_root(nth_root(2, 2), 3)  # 2^(1/6)
        assert v.degree() == 6
        assert (v**6 - 2).sign() == 0


class TestRealRootSpan:
    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicNumber.real_root(X**2 - c(2), -2, 2)

    def test_no_root_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicNumber.real_root(X**2 - c(2), 0, 1)

    def test_root_on_closed_endpoint_counts(self):
        # 1 on the lower endpoint plus sqrt(2) inside
        with pytest.raises(ValueError):
            AlgebraicNumber.real_root((X - c(1)) * (X**2 - c(2)), 1, 2)

    def test_rational_root_on_endpoint(self):
        assert AlgebraicNumber.real_root(X**2 - c(4), 2, 3).as_rational() == 2

    def test_cube_root_of_two(self):
        assert AlgebraicNumber.real_root(X**3 - c(2), 1, 2) == nth_root(2, 3)

    def test_quadratic_with_two_large_prime_factors_in_its_discriminant(self):
        # the discriminant is M61 * M89; factoring it ran Pollard rho for
        # minutes, an exact square test of the cofactor takes microseconds
        m = (2**61 - 1) * (2**89 - 1)
        v = AlgebraicNumber.real_root(X**2 - X - c(Fraction(m - 1, 4)), 0, 2**80)
        assert v.minimal_polynomial() == X**2 - X - c(Fraction(m - 1, 4))
        assert v == (1 + nth_root(m, 2)) / 2

    def test_quadratic_discriminant_square_part(self):
        # 4 * 3^2 * 53^2 * 7: 53 > 47 leaves trial division, and the cofactor
        # 53^2 * 7 is no square; the value is the same, 1 + 159 * sqrt(7)
        d = 4 * 9 * 53**2 * 7
        v = AlgebraicNumber.real_root(X**2 - c(2) * X + c(1 - Fraction(d, 4)), 0, 10**4)
        assert v == 1 + 159 * nth_root(7, 2)


class TestSign:
    def test_cubic_root_above_three_quarters(self):
        assert (t_star() - Fraction(3, 4)).sign() == 1

    def test_exact_zero(self):
        assert (nth_root(2, 2) * nth_root(2, 2) - 2).sign() == 0

    def test_fifth_root_below_one(self):
        assert (nth_root(Fraction(1, 2), 5) - 1).sign() == -1

    def test_trichotomy_and_transitivity(self):
        rng = random.Random(17)
        pool = [
            AlgebraicNumber(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
            for _ in range(4)
        ] + [nth_root(2, 2), nth_root(3, 2), t_star(), -nth_root(2, 2)]
        for a in pool:
            for b in pool:
                s = a.compare(b)
                assert s in (-1, 0, 1)
                assert s == -b.compare(a)
        for a in pool:
            for b in pool:
                for d in pool:
                    if a.compare(b) < 0 and b.compare(d) < 0:
                        assert a.compare(d) < 0

    def test_reordered_two_atom_sum_is_zero_by_equal_values(self):
        # no fold cancels a reordered sum; the elimination for the
        # difference passes the cap and _equal_values decides it
        r2, fifth = nth_root(2, 2), nth_root(Fraction(1, 2), 5)
        diff = (r2 + fifth) - (fifth + r2)
        with mock.patch.object(alg, "_equal_values", wraps=alg._equal_values) as eq:
            assert diff.sign() == 0
        assert eq.called

    def test_reordered_sum_zero_inside_products_and_quotients(self):
        # the product's elimination passes the cap and refinement alone
        # never decides a zero: its operands' signs do
        r2, r3 = nth_root(2, 2), nth_root(3, 2)
        z = (r2 + r3) - (r3 + r2)
        for v in (z * r2, z * t_star(), (z * t_star()) / r2, -(z * r2)):
            assert v.sign() == 0
        with pytest.raises(ZeroDivisionError):
            r2 / (z * r2)
        with pytest.raises(ZeroDivisionError):
            r2 / (z * t_star())
        # a sum is zero when its first operand equals the negated second
        fifth = nth_root(Fraction(1, 2), 5)
        assert ((r2 + fifth) + (0 - (fifth + r2))).sign() == 0
        assert ((r2 + fifth) + (fifth + r2)).sign() == 1

    def test_tie_leaves_the_nodes_minimal_polynomial_unset(self):
        # refinement cannot separate these zeros and neither has a
        # single-atom form; the operands decide them, so neither node's
        # own minimal polynomial is built, although the difference's is
        # within the cap
        r2, r3 = nth_root(2, 2), nth_root(3, 2)
        z = r2 * r3 - r3 * r2
        v = z * t_star()
        assert isinstance(z._node, alg._Sub) and isinstance(v._node, alg._Mul)
        assert v.sign() == 0 and z.sign() == 0
        assert z._node._mp is None and v._node._mp is None
        assert str(z.minimal_polynomial()) == "x"

    def test_deep_identity(self):
        t = t_star()
        assert (t**5 + t - 1).sign() == 0  # t^5+t-1 = (t^2-t+1)(t^3+t^2-1)

    def test_rational_coefficients_merge(self):
        # p / (3/7) is built as (7/3)*p; multiplying back merges the two
        # rationals to 1, so the difference folds to 0 with no elimination
        # (the mul elimination for it would have degree 15)
        p = nth_root(Fraction(1, 2), 5) * t_star()
        start = time.perf_counter()
        with alg.count_ops([0]) as ticks:
            back = (p / Fraction(3, 7)) * Fraction(3, 7)
        assert back._node is p._node and ticks == [3]  # one per fold call
        assert (back - p).sign() == 0
        assert time.perf_counter() - start < 1
        with alg.count_ops([0]) as ticks:
            merged = Fraction(2) * (p * Fraction(3))
        assert ticks == [2]
        assert isinstance(merged._node, alg._Mul) and merged._node.a.value == 6 and merged._node.b is p._node
        assert (-(-p))._node is p._node


_A4, _B4 = nth_root(2, 4), nth_root(3, 4)
# (a+b)(a-b) - (a^2-b^2): a zero with no single-atom form, that no fold cancels
_PLANTED_ZERO = (_A4 + _B4) * (_A4 - _B4) - (_A4 * _A4 - _B4 * _B4)
_SIGN_LEAVES = [
    _A4,
    _B4,
    nth_root(Fraction(1, 2), 5),
    -nth_root(3, 2),
    t_star(),
    AlgebraicNumber.real_root(X**3 - X - c(1), 1, 2),
    AlgebraicNumber(_make_cut_root(Poly([0, Fraction(1, 2), 0, Fraction(1, 2)]), (nth_root(2, 2) / 2)._node)),
]


@st.composite
def _sign_cases(draw):
    """Radicals, polynomial roots and cut roots, their sums, differences,
    products and quotients, values within 2^-200 of a rational, and
    planted zeros alone, reordered, or inside a product or quotient."""
    x, y = draw(st.sampled_from(_SIGN_LEAVES)), draw(st.sampled_from(_SIGN_LEAVES))
    v = _OPS[draw(st.sampled_from(sorted(_OPS)))](x, y)
    shape = draw(st.sampled_from(["plain", "near", "zero", "reordered", "times-zero", "zero-over", "plus-zero"]))
    if shape == "near":
        lo, hi = v.approx(Fraction(1, 1 << draw(st.sampled_from([4, 64, 200]))))
        return v - (lo + hi) / 2
    if shape == "zero":
        return _PLANTED_ZERO
    if shape == "reordered":
        return (x + y) - (y + x)
    if shape == "times-zero":
        return _PLANTED_ZERO * v
    if shape == "zero-over":
        return _PLANTED_ZERO / x
    if shape == "plus-zero":
        return v + _PLANTED_ZERO
    return v


class TestSignRoute:
    @settings(max_examples=60, deadline=None)
    @given(_sign_cases())
    @example(_PLANTED_ZERO)
    def test_refinement_first_agrees_with_the_form_first_route(self, v):
        assert alg._sign(v._node) == saf_first_sign_oracle(v._node)

    def test_separated_sign_builds_no_form(self):
        # the unit-range check of a cut answer: refinement decides pt - 1,
        # so neither its single-atom form nor the cut atom's minimal
        # polynomial, an elimination of degree 6, is built
        cut = AlgebraicNumber(_make_cut_root(Poly([0, Fraction(1, 3), 0, Fraction(2, 3)]), (nth_root(3, 2) / 3)._node))
        pt = cut - 1
        assert pt.sign() == -1
        assert pt._node._saf is None and cut._node._mp is None

    def test_planted_zero_inside_a_form_is_constant(self):
        # sqrt(2) * sqrt(2) - 2 has the constant form 0 and refinement
        # cannot separate it: the form decides, after 2^-128
        z = nth_root(2, 2) * nth_root(2, 2) - 2
        assert z.sign() == 0 and z._node._ivc[0] == 128


_CUT_CDFS = [X**3, c(Fraction(1, 2)) * X + c(Fraction(1, 2)) * X**2, c(Fraction(1, 2)) * X + c(Fraction(1, 2)) * X**5]
_COMPARE_LEAVES = {
    "zero": lambda leaf: 0,
    "int": lambda leaf: 1,
    "fraction": lambda leaf: Fraction(-2, 3),
    "rational node": lambda leaf: AlgebraicNumber(Fraction(1, 2)),
    "radical": lambda leaf: nth_root(2, 4),
    "other radical": lambda leaf: nth_root(3, 4),
    "negative radical": lambda leaf: -nth_root(Fraction(1, 2), 3),
    # its enclosure at 2^-8 ends at 0
    "tiny negative radical": lambda leaf: -nth_root(Fraction(3, 1 << 40), 2),
    "sqrt(2)/2": lambda leaf: nth_root(2, 2) / 2,
    "poly root": lambda leaf: t_star(),
    "quintic root": lambda leaf: AlgebraicNumber.real_root(X**5 - X - c(1), 1, 2),
    "cut at 1/3": lambda leaf: AlgebraicNumber(_make_cut_root(_CUT_CDFS[0], alg._rat(Fraction(1, 3)))),
    "quadratic cut": lambda leaf: AlgebraicNumber(_make_cut_root(_CUT_CDFS[1], alg._rat(Fraction(2, 5)))),
    "quintic cut": lambda leaf: AlgebraicNumber(_make_cut_root(_CUT_CDFS[2], alg._rat(Fraction(3, 7)))),
    "cut at sqrt(2)/2": lambda leaf: AlgebraicNumber(_make_cut_root(_CUT_CDFS[2], leaf("sqrt(2)/2")._node)),
}
_COMPARE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def _compare_cases(draw):
    """A recipe for a pair (a, b): ints, Fractions, rational nodes,
    radicals, polynomial roots and cut roots at rational and irrational
    targets; their sums, products and quotients; folded pairs p + q
    against q or p; a value against a rational within 2^-200 of it; the
    same value twice; and planted ties (a+b)(a-b) against a^2 - b^2."""
    names = sorted(_COMPARE_LEAVES)
    x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    shape = draw(st.sampled_from(["leaves", "compound", "near", "fold", "same", "tie"]))
    op = draw(st.sampled_from(sorted(_COMPARE_OPS)))
    if shape == "near":
        return shape, (x, y, op), draw(st.sampled_from([4, 64, 200])), draw(st.booleans())
    if shape == "tie":
        return shape, draw(st.sampled_from([("radical", "other radical"), ("radical", "poly root"), ("poly root", "quadratic cut")])), None, draw(st.booleans())
    return shape, (x, y, op), None, draw(st.booleans())


def _build_pair(case):
    """The pair a recipe names, built under empty intern tables, so that two
    builds share no node: each is a twin of the other's graph."""
    shape, (x, y, *op), k, swap = case
    leaves = {}

    def leaf(name):
        if name not in leaves:
            leaves[name] = _COMPARE_LEAVES[name](leaf)
        return leaves[name]

    with mock.patch.object(alg, "_root_intern", {}), mock.patch.object(alg, "_polyroot_intern", {}):
        u, v = leaf(x), leaf(y)
        if shape == "leaves":
            pair = (u, v)
        elif shape == "compound":
            if op[0] == "/" and AlgebraicNumber.of(v).sign() == 0:
                v = 3
            pair = (_COMPARE_OPS[op[0]](AlgebraicNumber.of(u), v), v)
        elif shape == "near":
            w = AlgebraicNumber.of(u) + v if op[0] in "+-" else AlgebraicNumber.of(u) * v
            lo, hi = w.approx(Fraction(1, 1 << k))
            pair = (w, (lo + hi) / 2)
        elif shape == "fold":
            s = AlgebraicNumber.of(u) + v
            pair = (s, v) if op[0] in "+*" else (s, u)
        elif shape == "same":
            w = AlgebraicNumber.of(u) * v
            pair = (w, w)
        else:
            a, b = AlgebraicNumber.of(u), AlgebraicNumber.of(v)
            pair = ((a + b) * (a - b), a * a - b * b)
    return pair[::-1] if swap else pair


def _node_states(*values):
    """Every irrational node reachable from the values, depth first, with
    its cached enclosure and, for an isolated root, its bracket.  A
    rational's enclosure is its value at every effort, so rationals carry
    no state that output could read."""
    out, seen = [], set()
    stack = [v._node for v in reversed(values) if isinstance(v, AlgebraicNumber)]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if not isinstance(n, alg._Rat):
            out.append((type(n).__name__, n._ivc, getattr(n, "lo", None), getattr(n, "hi", None)))
        if isinstance(n, alg._Binary):
            stack += (n.b, n.a)
        elif isinstance(n, alg._RootAtom) and isinstance(n.operand, alg._Node):
            stack.append(n.operand)
        elif isinstance(n, _CutRootAtom):
            stack.append(n.target)
    return out


def _operand(v):
    return v._node if isinstance(v, AlgebraicNumber) else v


def _sign_or_cap(route, a, b):
    """The route's sign of a - b, or DegreeCapExceeded for a tie past the
    cap, which refinement to 2^-128 cannot separate from a rational within
    2^-200 of it."""
    try:
        return route(a, b)
    except DegreeCapExceeded:
        return DegreeCapExceeded


class TestCompareRoute:
    @settings(max_examples=80, deadline=None)
    @given(_compare_cases())
    @example(("tie", ("radical", "other radical"), None, False))
    @example(("near", ("quintic cut", "cut at sqrt(2)/2", "*"), 200, False))
    @example(("fold", ("poly root", "fraction", "+"), None, True))
    @example(("leaves", ("int", "fraction", "+"), None, False))
    @example(("leaves", ("zero", "tiny negative radical", "+"), None, False))
    @example(("leaves", ("cut at sqrt(2)/2", "sqrt(2)/2", "+"), None, False))
    def test_agrees_with_the_subtraction_route(self, case):
        # the same sign, the same ticks, and on twin graphs the same
        # enclosures left on every node
        a, b = _build_pair(case)
        ta, tb = _build_pair(case)
        assert _node_states(a, b) == _node_states(ta, tb)
        with alg.count_ops([0]) as new_ticks:
            new = _sign_or_cap(alg._compare, _operand(a), _operand(b))
        with alg.count_ops([0]) as old_ticks:
            old = _sign_or_cap(subtraction_sign_oracle, ta, tb)
        assert new == old and new_ticks == old_ticks
        assert _node_states(a, b) == _node_states(ta, tb)
        if isinstance(a, AlgebraicNumber) and new is not DegreeCapExceeded:
            assert a.compare(b) == new and (a < b, a == b, a > b) == (new < 0, new == 0, new > 0)

    def test_separated_pair_builds_no_difference_node(self):
        # refinement decides on the operands' enclosures alone: neither a
        # fold nor the exact route runs
        cut = AlgebraicNumber(_make_cut_root(_CUT_CDFS[2], (nth_root(2, 2) / 2)._node))
        s = nth_root(2, 2) + Fraction(1, 3)
        never = AssertionError("difference node built")
        with mock.patch.object(alg, "_fold_sub", side_effect=never), mock.patch.object(alg, "_exact_sign", side_effect=never):
            assert cut.compare(1) == -1 and cut.compare(0) == 1 and cut.compare(cut) == 0
            assert s.compare(Fraction(1, 3)) == 1 and s.compare(nth_root(2, 2)) == 1  # p + q against q or p
            assert cut < s and Fraction(1, 3) < s

    def test_rationals_compare_by_cross_multiplication(self):
        with mock.patch.object(alg, "_interval", side_effect=AssertionError("refined")):
            assert alg._compare(Fraction(2, 3), 1) == -1
            assert alg._compare(alg._rat(Fraction(-7, 5)), Fraction(-7, 5)) == 0
            assert alg._sign(alg._rat(Fraction(-1, 10**40))) == -1
            assert AlgebraicNumber(Fraction(3, 4)).compare(Fraction(1, 2)) == 1

    def test_unseparated_pair_takes_the_exact_route_once(self):
        # the planted tie (a+b)(a-b) against a^2 - b^2 for a = 2^(1/4) and
        # b = 3^(1/4): refinement to 2^-128, then one exact decision on a
        # difference node of the two operands
        a, b = nth_root(2, 4), nth_root(3, 4)
        left, right = (a + b) * (a - b), a * a - b * b
        with mock.patch.object(alg, "_exact_sign", wraps=alg._exact_sign) as exact, time_limit(5):
            assert left.compare(right) == 0
        args = [call.args[0] for call in exact.call_args_list]
        assert isinstance(args[0], alg._Sub) and (args[0].a, args[0].b) == (left._node, right._node)
        assert not any(isinstance(n, alg._Sub) for n in args[1:])


_UNIT = (Fraction(0), Fraction(1))


@st.composite
def _cut_equations(draw):
    """(F, c): a strictly increasing mixture F of powers of x with F(0) = 0
    and F(1) = 1, and a rational c in (0, 1).  F - c may be quadratic or a
    binomial, or have a rational root in (0, 1) or outside [0, 1], on a
    dyadic point that isolating the Cauchy span splits at."""
    kind = draw(st.sampled_from(["mixture", "quadratic", "binomial", "rational-inside", "rational-outside"]))
    if kind == "binomial":
        f = X ** draw(st.integers(2, 6))
    elif kind == "quadratic":
        w = draw(st.fractions(0, 1, max_denominator=50))
        f = c(w) * X + c(1 - w) * X**2
    else:
        exps = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
        ws = draw(st.lists(st.integers(1, 9), min_size=len(exps), max_size=len(exps)))
        f = sum((c(Fraction(w, sum(ws))) * X**e for w, e in zip(ws, exps)), Poly())
    if kind == "rational-inside":
        cv = f(draw(st.fractions(0, 1, max_denominator=64)))
    elif kind == "rational-outside":
        q = draw(st.sampled_from([-4, -2, -1, Fraction(-1, 2), Fraction(-3, 2), Fraction(5, 4), Fraction(3, 2), 2, 3, 4]))
        cv = f(Fraction(q))
    else:
        cv = draw(st.fractions(0, 1, max_denominator=1000))
    assume(0 < cv < 1)
    return f, cv


def _same_root(p, lo, hi):
    """The real root of p in [lo, hi] by the library and by isolating the
    whole Cauchy span, against a fresh intern table: the same node, or the
    same fresh atom's intern key, and the same enclosures at 2^-4, 2^-64,
    2^-512 and at a fresh atom's bracket width w.  Enclosures are at most
    2^-8 wide, so 2^-4 asks for one at 2^-8, which the routes share only
    when w is at least that wide: a narrower span may give a bracket
    inside the full span's."""
    with mock.patch.object(alg, "_polyroot_intern", {}):
        new = alg._make_real_root(p, lo, hi)
        old, key = full_span_real_root_oracle(p, lo, hi)
        widths = [Fraction(1, 1 << k) for k in (4, 64, 512)]
        if key is None:
            assert alg._saf_of(new) == alg._saf_of(old)
        else:
            assert alg._polyroot_intern[key] is new
            w = new.hi - new.lo
            widths = [eps for eps in widths if min(eps, Fraction(1, 256)) <= w] + [w]
        for eps in widths:
            assert AlgebraicNumber(new).approx(eps) == AlgebraicNumber(old).approx(eps)


class TestRealRootRoute:
    @settings(max_examples=80, deadline=None)
    @given(_cut_equations())
    @example((c(Fraction(1, 2)) * X**2 + c(Fraction(1, 2)) * X**3, Fraction(1, 3)))
    @example((c(Fraction(3, 4)) * X**2 + c(Fraction(1, 4)) * X**3, Fraction(1, 2)))  # F - c vanishes at -1
    @example((c(Fraction(3, 4)) * X**2 + c(Fraction(1, 4)) * X**3, Fraction(5, 32)))  # and here at -1/2
    def test_cut_cell_matches_the_full_span(self, case):
        f, cv = case
        _same_root(f - c(cv), *_UNIT)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 8), Fraction(1)]),
                 max_size=2, unique=True),
        st.sampled_from([X**3 + X**2 - c(1), X**3 - c(3) * X + c(1), X**5 - X - c(Fraction(1, 4)), c(2) * X**2 - c(1)]),
    )
    def test_spans_from_isolating_the_unit_interval(self, rational_roots, g):
        # max_welfare's spans: isolating intervals over [0, 1], which ends
        # that are roots push outward and roots at midpoints shift
        p = g
        for q in rational_roots:
            p = p * (X - c(q))
        for iv in sturm_isolate(p, DyadicInterval.make(0, 1)):
            _same_root(p, iv.lo, iv.hi)


class TestMinpoly:
    def test_examples(self):
        assert str(nth_root(Fraction(1, 2), 5).minimal_polynomial()) == "2*x^5 - 1"
        assert str((nth_root(2, 2) + 0).minimal_polynomial()) == "x^2 - 2"
        assert str(t_star().minimal_polynomial()) == "x^3 + x^2 - 1"

    @settings(max_examples=150, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50, max_denominator=60), st.integers(2, 9))
    @example(Fraction(-8, 27), 3)
    @example(Fraction(-3, 4), 5)
    @example(Fraction(4, 9), 4)
    def test_rational_radical_is_its_binomial(self, r, d):
        # negative radicands at odd indices, and radicands a power reduces
        assume(r != 0 and (r > 0 or d % 2 == 1))
        with mock.patch.object(alg, "_root_intern", {}):
            node = nth_root(r, d)._node
            if isinstance(node, alg._RootAtom):
                # the interned, exponent-reduced radical, before any form
                assert node._saf is None
                assert alg._minpoly(node) == radical_binomial_oracle(node.operand, node.index)
                assert node._saf is None

    def test_straddles_zero_on_refinement(self):
        # the minimal polynomial changes sign across every refinement level
        for v in (t_star(), nth_root(Fraction(1, 2), 5), nth_root(3, 2) + nth_root(2, 2)):
            m = v.minimal_polynomial()
            for k in (8, 16, 32, 64):
                lo, hi = v.approx(Fraction(1, 2**k))
                assert m(lo) * m(hi) < 0

    def test_two_atom_sum(self):
        v = nth_root(2, 2) + nth_root(3, 2)
        assert str(v.minimal_polynomial()) == "x^4 - 10*x^2 + 1"

    def test_quotient_in_same_field(self):
        t = t_star()
        v = (t * t - 1) / t
        m = v.minimal_polynomial()
        assert m.degree <= 3
        lo, hi = v.approx(Fraction(1, 2**40))
        assert m(lo) * m(hi) < 0

    def test_rational_detection_through_mixed_atoms(self):
        v = nth_root(2, 2) + nth_root(3, 2) - nth_root(3, 2) - nth_root(2, 2)
        assert v.sign() == 0


@st.composite
def _unit_values(draw):
    """An irrational value in (0, 1): a radical (of a fraction, so its
    minimal polynomial's leading coefficient is often not 1), a sum of two
    square roots, or a cut root at a radical."""
    kind = draw(st.sampled_from(["radical", "sum", "cut root"]))
    if kind == "sum":
        a, b = draw(st.lists(st.sampled_from([2, 3, 5, 6, 7]), min_size=2, max_size=2, unique=True))
        return kind, (nth_root(a, 2) + nth_root(b, 2)) / 6
    r = draw(st.fractions(Fraction(1, 30), Fraction(29, 30), max_denominator=30))
    d = draw(st.integers(2, 3)) if kind == "radical" else 2
    assume(alg.exact_nth_root(r, d) is None)
    if kind == "radical":
        return kind, nth_root(r, d)
    return kind, AlgebraicNumber(_make_cut_root(draw(_cdfs(2)), nth_root(r, 2)._node))


@st.composite
def _cdfs(draw, max_degree):
    """sum w_i x^i with positive weights summing to 1 (a strictly increasing
    CDF on [0, 1]), often with a denominator."""
    weights = draw(st.lists(st.integers(0, 4), min_size=max_degree, max_size=max_degree))
    weights[draw(st.integers(0, max_degree - 1))] += 1
    return _mixture(weights)


def _factored_minpoly(annihilator, v):
    """The irreducible factor of the annihilator that vanishes at v, by the
    oracles: Kronecker factoring and selection by v's enclosures."""
    cands = [Poly(list(f)) for f, _ in oracle_factor(annihilator.int_coeffs())]
    return select_factor_oracle(cands, v).primitive(), len(cands)


class TestRelativeSieve:
    """A cut root F^-1(tau) or a real d-th root of an irrational value has
    the annihilator m_tau(F(t)), with F = t^d for a root.  When the degree
    sieve over Q(tau) leaves F(t) - tau no proper factor, the annihilator is
    the minimal polynomial and is not factored; else it is factored."""

    @settings(max_examples=100, deadline=None)
    @given(_unit_values(), st.sampled_from(["cut", "shifted cut", "cut at an image", "root", "root of a power"]), st.data())
    def test_matches_factoring_and_selection(self, unit, kind, data):
        # annihilators of degree at most 6, and 8 for the square root of a
        # sum: other degree-8 annihilators, reducible ones most, can take
        # Kronecker's method many seconds
        name, w = unit
        if "cut" in kind:
            cdf = data.draw(_cdfs(3))
            q = data.draw(st.fractions(0, 1, max_denominator=10))
            # the cut at F(w) is w, so F(t) - F(w) has a linear factor
            tau = {"cut": w, "shifted cut": (w + q) / 2, "cut at an image": _at(cdf, w)}[kind]
            f = cdf
            node = _make_cut_root(cdf, tau._node)
        else:
            d = data.draw(st.integers(2, 3))
            # a power's root lies in the power's field whenever w does
            tau = w if kind == "root" else (w + 1) ** d
            f = X**d
            node = tau.root(d)._node
        m = tau.minimal_polynomial()
        assume(m.degree * f.degree <= (8 if (name, kind) == ("sum", "root") else 6))
        assert isinstance(node, (alg._CutRootAtom, alg._RootAtom))
        annihilator = m.compose(f)
        expected, count = _factored_minpoly(annihilator, AlgebraicNumber(node))
        if alg._relatively_irreducible(m, f):
            assert count == 1 and expected == annihilator.primitive()
        assert alg._minpoly(node) == expected

    def test_reducible_radical_keeps_degree_one(self):
        # sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2): t^2 - (3 + 2 sqrt(2)) has a
        # linear factor over Q(sqrt(2)), so the annihilator is factored
        v = (3 + 2 * nth_root(2, 2)).root(2)
        assert not alg._relatively_irreducible(Poly([1, -6, 1]), X**2)
        assert str(v.minimal_polynomial()) == "x^2 - 2*x - 1"

    def test_reducible_cut_keeps_degree_one(self):
        # the cut of F at F(sqrt(2) - 1) is sqrt(2) - 1 itself
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        w = nth_root(2, 2) - 1
        tau = (w + w * w) / 2
        assert not alg._relatively_irreducible(tau.minimal_polynomial(), cdf)
        v = AlgebraicNumber(_make_cut_root(cdf, tau._node))
        assert str(v.minimal_polynomial()) == "x^2 + 2*x - 1"

    def test_irreducible_cut_is_not_factored(self):
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        w = nth_root(2, 2) - 1
        tau = (w + w * w) / 2 + Fraction(1, 10)
        tau.minimal_polynomial()
        v = AlgebraicNumber(_make_cut_root(cdf, tau._node))
        with mock.patch.object(alg, "factor_over_Q", side_effect=AssertionError("factored")):
            assert str(v.minimal_polynomial()) == "25*x^4 + 50*x^3 - 85*x^2 - 110*x + 71"

    @pytest.mark.parametrize("kind", ["cut-root elimination", "root adjunction"])
    def test_cap_is_checked_before_the_sieve(self, kind):
        # degree 7 * 7 = 49 passes the default cap of 48
        tau = nth_root(2, 7) / 2
        tau.minimal_polynomial()
        if kind == "root adjunction":
            node = tau.root(7)._node
        else:
            node = _make_cut_root(X**7, tau._node)
        with mock.patch.object(alg, "primes", side_effect=AssertionError("a prime was read")):
            with pytest.raises(DegreeCapExceeded) as e:
                alg._minpoly(node)
        assert (e.value.needed, e.value.cap, e.value.context) == (49, 48, kind)


@st.composite
def small_polys(draw, max_degree, monic=False):
    """lead * prod (x - r) * cofactor: the roots r come from a small range,
    so repeated and zero roots are common; lead may be negative."""
    roots = draw(st.lists(st.integers(-2, 2), max_size=max_degree))
    rest = draw(st.lists(st.integers(-5, 5), max_size=max_degree - len(roots)))
    lead = 1 if monic else draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    p = Poly(rest + [lead])
    for r in roots:
        p = p * (X - c(r))
    if p.degree == 0:
        p = p * (X - c(draw(st.integers(-2, 2))))
    return p


@st.composite
def fraction_polys(draw, max_degree):
    """lead * x^z * prod (x - r) * cofactor with Fraction roots, cofactor
    coefficients and lead: never monic by construction, often with zero or
    repeated roots."""
    zeros = draw(st.integers(0, 2))
    roots = draw(st.lists(st.fractions(-2, 2, max_denominator=3), max_size=max_degree - zeros))
    rest = draw(
        st.lists(st.fractions(-4, 4, max_denominator=5), max_size=max_degree - zeros - len(roots))
    )
    lead = draw(st.fractions(-3, 3, max_denominator=4).filter(lambda q: q not in (0, 1)))
    p = Poly(rest + [lead]) * X**zeros
    for r in roots:
        p = p * (X - c(r))
    if p.degree == 0:
        p = p * (X - c(draw(st.fractions(-2, 2, max_denominator=3))))
    return p


# degree 6 each, with zero, repeated and fractional roots and a fractional lead
_SEXTIC_A = Poly([0, 0, Fraction(-2, 3), 1, Fraction(5, 2)]) * (X - c(Fraction(1, 2))) ** 2
_SEXTIC_B = (c(Fraction(-3, 4)) * X**3 + X - c(Fraction(2, 5))) * X * (X + c(Fraction(4, 3))) ** 2


def algebra_elimination(kind, ma, mb):
    """Monic prod (T - a o b) over the pairs of roots of ma and mb, with
    multiplicity, for o = +, -, * or / ("add", "sub", "mul", "div"): the
    characteristic polynomial of y_a o y_b in their `_Algebra`.  A root of
    a linear ma or mb enters as its rational value, as the library enters
    a generator of degree 1."""
    a, b = ma.int_coeffs(), mb.int_coeffs()
    algebra = _Algebra([m for m in (a, b) if len(m) > 2])
    variables = itertools.count()
    x, y = (_normal([-m[0]], m[1]) if len(m) == 2 else algebra.lift([0, 1], 1, next(variables)) for m in (a, b))
    if kind in ("add", "sub"):
        v = _sum(x, y, 1 if kind == "add" else -1)
    else:
        v = algebra.mul(x, y if kind == "mul" else algebra.inverse(y))
    return Poly(algebra.charpoly(v)).monic()


def resultant_elimination(kind, ma, mb):
    """The same polynomial from the interpolated resultant."""
    if kind == "sub":
        kind, mb = "add", mb.negate_variable()
    elif kind == "div":
        kind, mb = "mul", mb.reverse()
    return elimination_oracle(kind, ma, mb).monic()


_KINDS = st.sampled_from(["add", "sub", "mul", "div"])


class TestPowerSumElimination:
    """The characteristic polynomial of two generators' sum, difference,
    product or quotient in their algebra, and of a value of one atom's
    field, each equals the resultant it replaced, up to a constant."""

    @settings(max_examples=30, deadline=None)
    @given(_KINDS, fraction_polys(6), fraction_polys(6))
    @example("add", _SEXTIC_A, _SEXTIC_B)
    @example("mul", _SEXTIC_A, _SEXTIC_B)
    def test_binary_on_fraction_inputs(self, kind, ma, mb):
        assume(kind != "div" or mb.coeff(0) != 0)  # y_b is a unit
        assert resultant_elimination(kind, ma, mb) == algebra_elimination(kind, ma, mb)

    @settings(max_examples=60, deadline=None)
    @given(
        fraction_polys(8),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=10),
    )
    def test_image_on_fraction_inputs(self, m, gcoeffs):
        # g of any degree, reduced modulo the non-monic m inside
        g = Poly(gcoeffs)
        assert image_oracle(m.monic(), g).monic() == charpoly_of(m, g)

    @settings(max_examples=150, deadline=None)
    @given(_KINDS, small_polys(4), small_polys(4))
    def test_binary_matches_interpolated_resultant(self, kind, ma, mb):
        assume(kind != "div" or mb.coeff(0) != 0)
        assert resultant_elimination(kind, ma, mb) == algebra_elimination(kind, ma, mb)

    @settings(max_examples=60, deadline=None)
    @given(fraction_polys(4), fraction_polys(4))
    def test_compositum_oracle_sum_matches_interpolated_resultant(self, ma, mb):
        # the tower tests' compositum reads its sum polynomials off power sums
        assert sum_polynomial_oracle(ma, mb) == elimination_oracle("add", ma, mb).monic()

    @settings(max_examples=150, deadline=None)
    @given(
        small_polys(6, monic=True),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=6),
    )
    def test_image_matches_interpolated_resultant(self, m, gcoeffs):
        g = Poly(gcoeffs[: m.degree])
        assert image_oracle(m, g).monic() == charpoly_of(m, g)

    def test_examples(self):
        # sqrt2 + sqrt3; sqrt2 * sqrt3 and sqrt2 / sqrt3, each twice; 0 * 5
        assert algebra_elimination("add", X**2 - c(2), X**2 - c(3)) == Poly([1, 0, -10, 0, 1])
        assert algebra_elimination("mul", X**2 - c(2), X**2 - c(3)) == (X**2 - c(6)) ** 2
        assert algebra_elimination("div", X**2 - c(2), X**2 - c(3)) == (X**2 - c(Fraction(2, 3))) ** 2
        assert algebra_elimination("mul", -X, c(2) * X - c(10)) == X
        # 1 + sqrt2 + sqrt2/2 as g(y) = 1 + 3/2*y over y^2 - 2; a constant g
        g = Poly([1, Fraction(3, 2)])
        assert charpoly_of(X**2 - c(2), g) == X**2 - c(2) * X - c(Fraction(7, 2))
        assert charpoly_of(X**3 - c(2), c(5)) == (X - c(5)) ** 3


class TestEnclosures:
    def test_isolating_interval(self):
        t = t_star()
        iv = t.isolating_interval()
        m = t.minimal_polynomial()
        from cakelab.polys import count_roots_in

        assert count_roots_in(m, iv.lo, iv.hi) == 1
        lo, hi = t.approx(Fraction(1, 2**30))
        assert iv.lo <= hi and lo <= iv.hi

    def test_isolating_interval_rational(self):
        iv = AlgebraicNumber(Fraction(1, 3)).isolating_interval()
        assert iv.contains(Fraction(1, 3))

    def test_decimal_rational(self):
        assert AlgebraicNumber(Fraction(1, 2)).decimal(12) == "0.5"
        assert AlgebraicNumber(Fraction(1, 3)).decimal(6) == "0.333333…"
        assert AlgebraicNumber(-2).decimal(6) == "-2"

    def test_decimal_irrational(self):
        assert t_star().decimal(9) == "0.754877666…"

    def test_display_form(self):
        assert t_star().display(9) == "0.754877666… (minpoly: x^3 + x^2 - 1)"

    def test_ordering_operators(self):
        assert nth_root(2, 2) < nth_root(3, 2)
        assert nth_root(2, 2) <= Fraction(3, 2)
        assert t_star() > Fraction(3, 4)
        assert nth_root(Fraction(1, 32), 5) == Fraction(1, 2)

    @pytest.mark.parametrize("eps", [0, Fraction(-1, 8)])
    def test_non_positive_width_rejected(self, eps):
        for v in (t_star(), nth_root(2, 2) + nth_root(3, 2), AlgebraicNumber(Fraction(1, 3))):
            with pytest.raises(ValueError, match="width must be positive"):
                v.approx(eps)

    def test_negative_digits_rejected(self):
        for v in (t_star(), AlgebraicNumber(Fraction(1, 3))):
            with pytest.raises(ValueError, match="digits must be non-negative"):
                v.decimal(-1)


# distinct irreducible polynomials, so any subset is pairwise coprime: a
# rational on the grid (1/2), one just below sqrt2 (1393/985), roots close
# together (x^3 - 3x + 1) and one with no real root
_PIN_POOL = [
    X - c(Fraction(1, 2)),
    c(3) * X - c(1),
    c(985) * X - c(1393),
    X**2 - c(2),
    c(2) * X**2 - c(1),
    X**2 - X - c(1),
    X**2 + c(1),
    X**3 - c(2),
    X**3 + X**2 - c(1),
    X**3 - c(3) * X + c(1),
    X**4 - c(10) * X**2 + c(1),
    X**5 - X - c(1),
]


def _real_roots(f):
    b = root_bound(f)
    return [AlgebraicNumber.real_root(f, iv.lo, iv.hi) for iv in sturm_isolate(f, DyadicInterval(-b, b))]


class TestPin:
    """`_pin` selects the factor of a value and its isolating interval: the
    candidate it names is the one the former selection loop kept, and its
    interval holds the value and no other root of any candidate."""

    @staticmethod
    def _check(v, cands, f):
        i, iv = alg._pin(v._node, cands)
        assert cands[i] == f == select_factor_oracle(cands, v)
        assert v.compare(iv.lo) > 0 > v.compare(iv.hi)
        assert all(g(iv.lo) != 0 and g(iv.hi) != 0 for g in cands)
        assert sum(sturm_count_oracle(sturm_chain_oracle(g), iv.lo, iv.hi) for g in cands) == 1
        return iv

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(range(len(_PIN_POOL))), min_size=1, max_size=4, unique=True),
        st.integers(0, 3),
        st.integers(0, 4),
    )
    def test_picks_the_oracles_factor(self, picks, which, ordinal):
        cands = [_PIN_POOL[j] for j in picks]
        with_roots = [f for f in cands if _real_roots(f)]
        if not with_roots:
            return
        f = with_roots[which % len(with_roots)]
        roots = _real_roots(f)
        self._check(roots[ordinal % len(roots)], cands, f)

    def test_rational_on_the_grid_steps_out(self):
        # 1/2 is its own enclosure and a grid point: both ends step out
        half = AlgebraicNumber(Fraction(1, 2))
        iv = self._check(half, [c(2) * X**2 - c(1), X - c(Fraction(1, 2))], X - c(Fraction(1, 2)))
        assert iv == DyadicInterval(Fraction(127, 256), Fraction(129, 256))
        assert half.isolating_interval() == iv

    def test_compound_value_and_lone_candidate(self):
        r2, r3 = nth_root(2, 2), nth_root(3, 2)
        m = X**4 - c(10) * X**2 + c(1)
        self._check(r2 + r3, [X - c(Fraction(22, 7)), m, X**2 - c(10)], m)
        fresh = r2 * r3 + t_star()
        assert alg._select_factor([m], fresh._node) == m
        assert fresh._node._ivc[0] == -1  # a lone candidate refines nothing

    def test_isolating_interval_matches_the_former_loop(self):
        # cut roots are not interned: each fresh atom refines from scratch
        quintic, quadratic = Poly(_QUINTIC_CDF), Poly([0, Fraction(1, 2), Fraction(1, 2)])
        for cdf, target in (
            (quintic, nth_root(2, 2) / 2),
            (quadratic, t_star() / 2),
            (quadratic, nth_root(Fraction(1, 3), 3)),
        ):
            expected = isolating_interval_oracle(AlgebraicNumber(_make_cut_root(cdf, target._node)))
            assert AlgebraicNumber(_make_cut_root(cdf, target._node)).isolating_interval() == expected

    def test_equal_values_against_conjugate_rebuilt_and_negated(self):
        # the roots 1 -+ sqrt2/10^6 of (x - 1)^2 - 2/10^12 agree to 2^-18
        lo, hi = _real_roots(Poly([1 - Fraction(2, 10**12), -2, 1]))
        rebuilt = 1 - nth_root(2, 2) * Fraction(1, 10**6)
        assert rebuilt._node is not lo._node
        assert alg._equal_values(lo._node, rebuilt._node)
        assert not alg._equal_values(lo._node, hi._node)
        assert not alg._equal_values(hi._node, rebuilt._node)
        assert alg._equal_values(lo._node, (-rebuilt)._node, negated=True)
        assert not alg._equal_values(hi._node, (-rebuilt)._node, negated=True)
        r2, r3 = nth_root(2, 2), nth_root(3, 2)
        assert alg._equal_values((r2 + r3)._node, (r3 + r2)._node)
        assert alg._equal_values((r2 + r3)._node, (-r2 - r3)._node, negated=True)
        assert not alg._equal_values((r2 + r3)._node, (r2 - r3)._node)
        assert not alg._equal_values((r2 + r3)._node, (r2 - r3)._node, negated=True)

    @pytest.mark.parametrize("lead", [1, -1])
    @pytest.mark.parametrize("ordinal", [0, 1])
    def test_quadratic_root_by_ordinal(self, lead, ordinal):
        sqf = Poly([-16, 5, 27]).scale(lead)
        with alg.count_ops([0]) as ticks:
            node = alg._quadratic_root(sqf, ordinal)
        assert node._ivc[0] == -1  # chosen without refining
        assert ticks == [4]  # its two folds and the two of its conjugate
        v = AlgebraicNumber(node)
        assert v.minimal_polynomial() == Poly([-16, 5, 27])
        assert v.compare(AlgebraicNumber(alg._quadratic_root(sqf, 1 - ordinal))) == (-1 if ordinal == 0 else 1)
        iv = sturm_isolate(sqf, DyadicInterval(Fraction(-2), Fraction(2)))[ordinal]
        assert v.compare(iv.lo) > 0 > v.compare(iv.hi)


def cut_oracle(cdf, r, a, width):
    """Plain-Fraction bisection of [0, 1] for the y with cdf(y) = a + cdf(sqrt(r)),
    enclosing sqrt(r) by integer square roots until the sign is decided."""
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fx = cdf(mid) - a
        k = 64
        while True:
            s = Fraction(math.isqrt(r.numerator * 4**k // r.denominator), 2**k)
            if fx < cdf(s):
                lo = mid
                break
            if fx > cdf(s + Fraction(1, 2**k)):
                hi = mid
                break
            k *= 2
    return lo, hi


class TestCutRootRefinement:
    @pytest.mark.parametrize(
        "cdf",
        [
            Poly([0, Fraction(1, 2), Fraction(1, 2)]),
            Poly([0, Fraction(1, 4), 0, Fraction(3, 4)]),
            Poly([0, Fraction(2, 3), 0, 0, Fraction(1, 3)]),
        ],
    )
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(3, 5)])
    def test_agrees_with_fraction_reference(self, cdf, r):
        a = Fraction(1, 10)
        v = Session([Measure.make(cdf)]).cut(0, nth_root(r, 2), a)
        assert isinstance(v._node, _CutRootAtom)
        for eps in (Fraction(1, 10**6), Fraction(1, 2**100)):
            lo, hi = v.approx(eps)
            assert hi - lo <= eps
            assert (lo, hi) == cut_oracle(cdf, r, a, hi - lo)


    def test_rational_target_without_atom_form(self):
        # sqrt2 sqrt3 - sqrt6 + 3/8 is 3/8 but has no single-atom form; the
        # CDF reaches it at 1/2, a point bisection tests, where only the
        # target's minimal polynomial can decide equality
        r2, r3, r6 = nth_root(2, 2), nth_root(3, 2), nth_root(6, 2)
        start = time.perf_counter()
        v = Session([Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]))]).cut(0, 0, r2 * r3 - r6 + Fraction(3, 8))
        assert isinstance(v._node, _CutRootAtom)
        assert v == Fraction(1, 2) and v.minimal_polynomial() == Poly([-1, 2])
        assert v.approx(Fraction(1, 1 << 40)) == (Fraction(1, 2), Fraction(1, 2))
        assert time.perf_counter() - start < 1

    def test_rational_target_past_the_cap(self):
        # both targets are 3/8 with no single-atom form, and the CDF reaches
        # 3/8 at the grid point 1/2: past the limit the cut side decides
        # target - cdf(1/2) exactly.  Over 2^(1/4) and 3^(1/4), whose
        # (a+b)(a-b) elimination needs degree 64, the atoms' algebra has
        # dimension 16 and gives the target's minimal polynomial 8x - 3
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        a, b = nth_root(2, 2), nth_root(3, 2)
        with time_limit(2):
            v = AlgebraicNumber(_make_cut_root(cdf, ((a + b) - (b + a) + Fraction(3, 8))._node))
            assert v.approx(Fraction(1, 1024)) == (Fraction(1, 2), Fraction(1, 2))
        a, b = nth_root(2, 4), nth_root(3, 4)
        t = (a + b) * (a - b) - (a * a - b * b) + Fraction(3, 8)
        with time_limit(2):
            v = AlgebraicNumber(_make_cut_root(cdf, t._node))
            assert v.approx(Fraction(1, 1024)) == (Fraction(1, 2), Fraction(1, 2))
            assert t.minimal_polynomial() == Poly([-3, 8]) and v.minimal_polynomial() == Poly([-1, 2])

    def test_rational_target_past_the_algebra_cap(self):
        # over seventh roots the atoms' algebra has dimension 49, past the
        # cap of 48, so the zero test falls back to elimination, which asks
        # for degree 49 and raises
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        a, b = nth_root(2, 7), nth_root(3, 7)
        t = (a + b) * (a - b) - (a * a - b * b) + Fraction(3, 8)
        with time_limit(2), pytest.raises(DegreeCapExceeded):
            AlgebraicNumber(_make_cut_root(cdf, t._node)).approx(Fraction(1, 1024))


def cut_bisection_reference(cdf, target, eps):
    """Cut-root refinement as plain Fraction bisection, run the way
    `approx(eps)` drives it: precisions k = 8, 16, ... until the bracket is
    at most eps wide.  At each k, [lo, hi] is halved until 2^-k wide; a
    midpoint's side is decided by cdf(mid) against the target's enclosure
    at precision kc, from max(k, 8), doubled until the two separate."""
    lo, hi, k = Fraction(0), Fraction(1), 8
    while True:
        kc = max(k, 8)
        while hi - lo > Fraction(1, 1 << k):
            mid = (lo + hi) / 2
            fx = cdf(mid)
            while True:
                tlo, thi = _interval(target, kc)
                if fx < tlo:
                    lo = mid
                    break
                if fx > thi:
                    hi = mid
                    break
                kc *= 2
        if hi - lo <= eps:
            return lo, hi
        k *= 2


class TestCutRootHistory:
    """Refining a cut root ends on bisection's enclosure, with the target
    refined to the same precision and enclosure as bisection leaves it."""

    @pytest.mark.parametrize(
        "cdf",
        [
            Poly([0, Fraction(1, 2), Fraction(1, 2)]),
            Poly([0, Fraction(1, 4), 0, Fraction(3, 4)]),
            Poly([0, Fraction(2, 3), 0, 0, Fraction(1, 3)]),
        ],
    )
    @pytest.mark.parametrize("r, d", [(Fraction(1, 2), 2), (Fraction(3, 5), 2), (Fraction(2, 7), 3)])
    def test_matches_plain_bisection_at_2_to_minus_1024(self, cdf, r, d, monkeypatch):
        eps = Fraction(1, 2**1024)
        targets = []
        for _ in range(2):
            # a fresh intern table per target gives each its own radical, so
            # neither sees the other's refinement
            monkeypatch.setattr(alg, "_root_intern", {})
            targets.append((poly_at(cdf, nth_root(r, d)) + Fraction(1, 10))._node)
        atom = _make_cut_root(cdf, targets[0])
        assert isinstance(atom, _CutRootAtom)
        assert AlgebraicNumber(atom).approx(eps) == cut_bisection_reference(cdf, targets[1], eps)
        assert targets[0]._ivc == targets[1]._ivc


class TestRefinementWork:
    def test_quintic_cutpoint_to_2_to_minus_8192(self, monkeypatch):
        # a fresh atom, so earlier tests' refinement does not shorten the run
        monkeypatch.setattr(alg, "_polyroot_intern", {})
        cp = isolate_equitable_cutpoint(Measure.make(X), Measure.make(X**5))
        cp.value.approx(Fraction(1, 2**64))
        horner = alg.horner
        calls = []

        def counted(cs, num, den):
            calls.append(den)
            return horner(cs, num, den)

        monkeypatch.setattr(alg, "horner", counted)
        lo, hi = cp.value.approx(Fraction(1, 2**8192))
        assert hi - lo <= Fraction(1, 2**8192)
        assert cp.minpoly(lo) * cp.minpoly(hi) < 0
        # bisection evaluates once per halving, 8128 times
        assert len(calls) <= 400


class TestRefinementSchedule:
    """Refinement reaches the precision asked for once, without doubling
    past it."""

    @staticmethod
    def _fresh_quintic_root(monkeypatch):
        monkeypatch.setattr(alg, "_polyroot_intern", {})
        return AlgebraicNumber.real_root(Poly([-3, 1, 0, 0, 0, 1]), 0, 2)

    def test_decimal_308_stops_near_1030_bits(self, monkeypatch):
        v = self._fresh_quintic_root(monkeypatch)
        lo, hi = parse_truncated_decimal(v.decimal(308))
        f = Poly([-3, 1, 0, 0, 0, 1])
        assert f(lo) < 0 < f(hi)
        # 10^-310 needs 1030 bits, not the 2048 that doubling from 8 reaches
        assert v._node._ivc[0] <= 1040

    def test_fresh_atom_approx_refines_once_at_the_target_effort(self, monkeypatch):
        eps = Fraction(1, 2**1024)
        reference = self._fresh_quintic_root(monkeypatch)._node
        expected = doubling_refine_oracle(reference, eps)
        v = self._fresh_quintic_root(monkeypatch)
        efforts = []

        def recorded(node, k):
            if node is v._node:
                efforts.append(k)
            return _interval(node, k)

        monkeypatch.setattr(alg, "_interval", recorded)
        # the doubling schedule visited 8, 16, ..., 1024, refining at each
        assert v.approx(eps) == expected
        assert efforts == [1024]
        assert v._node._ivc == reference._ivc

    def test_radical_sum_gains_only_the_missing_bits(self, monkeypatch):
        monkeypatch.setattr(alg, "_root_intern", {})
        v = nth_root(2, 3) + nth_root(Fraction(3, 5), 5)
        lo, hi = v.approx(Fraction(1, 2**1024))
        assert hi - lo <= Fraction(1, 2**1024)
        # each atom is 2^-1024 wide at effort 1024, the sum twice that
        assert v._node._ivc[0] == 1026

    @pytest.mark.parametrize(
        "eps, k",
        [(Fraction(1, 10**12), 64), (Fraction(3, 2**100), 128), (Fraction(5, 7), 8), (Fraction(4), 8)],
    )
    def test_approx_of_an_atom_lands_on_a_doubling_effort(self, eps, k, monkeypatch):
        # the enclosure refinement by doubling from 8 returned
        v = self._fresh_quintic_root(monkeypatch)
        lo, hi = v.approx(eps)
        assert v._node._ivc[0] == k and hi - lo == Fraction(1, 2**k)


def _mixture(weights):
    """The CDF sum w_i x^i / sum w_i, i from 1: increasing on [0, 1]."""
    total = sum(weights)
    return Poly([0] + [Fraction(w, total) for w in weights])


MIXTURE_WEIGHTS = st.lists(st.integers(0, 5), min_size=1, max_size=5).map(lambda ws: ws + [1])


def _planted_tie(g):
    """x^2 at (a+b)(a-b) - (a^2-b^2) + g^2: a rational target with no
    single-atom form, whose cut is the grid point g."""
    a, b = nth_root(2, 2), nth_root(3, 3)
    target = (a + b) * (a - b) - (a * a - b * b) + g * g
    return AlgebraicNumber(_make_cut_root(X**2, target._node))


REFINE_REQUESTS = st.one_of(
    st.integers(8, 1024).map(lambda k: ("approx", Fraction(1, 2**k))),
    st.tuples(st.integers(1, 15), st.integers(8, 1030)).map(lambda nk: ("approx", Fraction(2 * nk[0] + 1, 2 ** nk[1]))),
    st.integers(1, 300).map(lambda j: ("approx", Fraction(1, 10**j))),
    st.integers(0, 310).map(lambda d: ("decimal", d)),
    st.just(("isolating_interval",)),
)


class _Side:
    """One copy of a value: built and queried under its own empty intern
    tables, by the library's refinement or by the doubling oracle."""

    def __init__(self, build, oracle: bool):
        self.patches = {"_root_intern": {}, "_polyroot_intern": {}}
        if oracle:
            self.patches["_refine_to"] = doubling_refine_oracle
        self.value = self.run(build)

    def run(self, f, *args):
        with mock.patch.multiple(alg, **self.patches):
            return f(*args)

    def ask(self, request):
        name, *args = request
        return self.run(getattr(self.value, name), *args)

    def atoms(self):
        """(cached effort and enclosure, bracket) of the value and its atoms."""
        nodes = [self.value._node] + dag_atoms_oracle(self.value._node)
        return [(n._ivc, getattr(n, "lo", None), getattr(n, "hi", None)) for n in nodes]


class _ScaleRecorder:
    """Records every probe of a polynomial or cut root's refinement: the
    atom's integer coefficients, and (m, e, side value) per probe."""

    def __init__(self):
        self.calls = []
        self.coeffs = None

    def patches(self):
        def atom_refiner(refine, coeffs):
            def wrapped(atom, k):
                self.coeffs = coeffs(atom)
                return refine(atom, k)

            return wrapped

        def bisect(side, lo, hi, width):
            probes = []
            self.calls.append((self.coeffs, probes))

            def recorded(m, e):
                v = side(m, e)
                probes.append((m, e, v))
                return v

            return bisect_root(recorded, lo, hi, width)

        return {
            "_refine_polyroot": atom_refiner(alg._refine_polyroot, lambda a: a.poly.nums),
            "_refine_cutroot": atom_refiner(alg._refine_cutroot, lambda a: a.cdf.nums),
            "bisect_root": bisect,
        }

    def assert_one_scale_per_call(self):
        """Within one call every side value v that is not a forced sign (or
        0) is q * H(m, e) - P * 2^(e*n) for one pair of integers q and P,
        H(m, e) = 2^(e*n) * f(m / 2^e) by the unreduced Horner loop: the
        function's value on the call's one scale (P = 0 for a polynomial
        root, centre * den for a cut root)."""
        for coeffs, probes in self.calls:
            n = len(coeffs) - 1
            points = [(dyadic_horner_oracle(coeffs, m, e), e, v) for m, e, v in probes if abs(v) > 1]
            if len(points) < 2:
                continue
            (h0, e, v0), (h1, _, v1) = points[:2]
            q, r = divmod(v1 - v0, h1 - h0)
            assert r == 0 and q != 0
            offset = q * h0 - v0
            assert offset % (1 << (e * n)) == 0
            assert all(v == q * h - offset for h, _, v in points)


class TestRefinementRoute:
    """A polynomial or cut root refined straight to the effort where the
    doubling schedule stops, with probes at their reduced points, ends on
    the schedule's enclosure, decimal and isolating interval, and leaves
    every atom the cached enclosure and bracket the schedule left
    (`doubling_refine_oracle`, each side under its own intern tables).
    Every side value stays on its call's one scale."""

    @staticmethod
    def _agree(build, requests):
        oracle = _Side(build, oracle=True)
        recorder = _ScaleRecorder()
        with mock.patch.multiple(alg, **recorder.patches()):
            new = _Side(build, oracle=False)
        assert new.atoms() == oracle.atoms()
        for request in requests:
            with mock.patch.multiple(alg, **recorder.patches()):
                got = new.ask(request)
            assert got == oracle.ask(request), request
            assert new.atoms() == oracle.atoms(), request
        recorder.assert_one_scale_per_call()

    @settings(max_examples=100, deadline=None)
    @given(
        MIXTURE_WEIGHTS,
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50),
        st.sampled_from([None, Fraction(-2), Fraction(3, 2), Fraction(-1, 3), Fraction(7)]),
        st.lists(REFINE_REQUESTS, min_size=1, max_size=3),
    )
    @example([0, 0, 0, 1], Fraction(1, 3), Fraction(-2), [("approx", Fraction(1, 2**1024))])
    @example([1, 0, 0, 0, 0, 1], Fraction(1, 2), None, [("approx", Fraction(3, 2**1026)), ("decimal", 310)])
    def test_poly_roots(self, weights, c_, outside, requests):
        # the root of F - c in [0, 1], with a rational root outside it
        p = _mixture(weights) - c(c_)
        if outside is not None:
            p = p * (X - c(outside))
        self._agree(lambda: AlgebraicNumber.real_root(p, 0, 1), requests)

    @settings(max_examples=80, deadline=None)
    @given(
        MIXTURE_WEIGHTS,
        MIXTURE_WEIGHTS,
        st.sampled_from([(Fraction(1, 2), 2), (Fraction(3, 5), 2), (Fraction(2, 7), 3), (Fraction(5, 7), 2)]),
        st.fractions(min_value=Fraction(1, 20), max_value=Fraction(9, 20), max_denominator=20),
        st.lists(REFINE_REQUESTS, min_size=1, max_size=3),
    )
    @example([0, 0, 0, 0, 1], [1], (Fraction(1, 2), 2), Fraction(1, 10), [("approx", Fraction(1, 2**1024))])
    def test_cut_roots_at_irrational_targets(self, cdf_weights, f_weights, radical, a, requests):
        # f(r^(1/d)) / 2 + a lies in (0, 1) for a mixture f
        def build():
            target = poly_at(_mixture(f_weights), nth_root(*radical)) * Fraction(1, 2) + a
            return AlgebraicNumber(_make_cut_root(_mixture(cdf_weights), target._node))

        self._agree(build, requests)

    @pytest.mark.parametrize("g", [Fraction(1, 2), Fraction(3, 2**20), Fraction(5, 2**300)])
    @pytest.mark.parametrize(
        "requests",
        [
            [("approx", Fraction(1, 2**1024))],
            [("approx", Fraction(1, 2**8)), ("approx", Fraction(1, 2**64)), ("decimal", 310)],
            [("decimal", 100), ("approx", Fraction(3, 2**1026)), ("isolating_interval",)],
        ],
    )
    def test_planted_tie(self, g, requests):
        with time_limit(1):
            self._agree(lambda: _planted_tie(g), requests)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([([1], [0, 0, 0, 0, 1]), ([1], [0, 1]), ([0, 1], [1, 0, 1]), ([1, 0, 0, 1], [0, 0, 1]), ([0, 0, 1], [0, 0, 0, 0, 0, 1])]),
        st.lists(REFINE_REQUESTS, min_size=1, max_size=3),
    )
    def test_equitable_cutpoints(self, cdfs, requests):
        # mixtures x, x^5; x, x^2; x^2, (x + x^3) / 2; (x + x^4) / 2, x^3; x^3, x^6
        m1, m2 = (Measure.make(_mixture(ws)) for ws in cdfs)
        self._agree(lambda: isolate_equitable_cutpoint(m1, m2).value, requests)


def parse_truncated_decimal(s):
    """The closed interval a truncated decimal "-1.414…" denotes."""
    body = s.rstrip("…")
    v = Fraction(body)
    if body == s:
        return v, v
    ulp = Fraction(1, 10 ** len(body.partition(".")[2]))
    return (v, v + ulp) if not body.startswith("-") else (v - ulp, v)


class TestSignedDecimal:
    def test_negative_irrational_truncates(self):
        assert (-nth_root(2, 2)).decimal(3) == "-1.414…"
        assert (nth_root(2, 2) - Fraction(14143, 10000)).decimal(3) == "-0.000…"

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
        st.integers(2, 5),
        st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
        st.integers(2, 5),
        st.sampled_from([1, -1]),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.integers(0, 30),
    )
    def test_negation_mirrors_and_encloses(self, r1, d1, r2, d2, sign, shift, digits):
        v = nth_root(r1, d1) + sign * nth_root(r2, d2) + shift
        if v.sign() == 0:
            return
        pos = v if v.sign() > 0 else -v
        assert (-pos).decimal(digits) == "-" + pos.decimal(digits)
        lo, hi = parse_truncated_decimal(v.decimal(digits))
        assert lo <= v <= hi

    def test_rational_value_with_no_single_atom_form(self):
        # (a+b) - (b+a) is 0 by the operands' tie rule, but it has no
        # single-atom form, and its enclosures straddle 0 at every precision
        a, b = nth_root(2, 2), nth_root(3, 2)
        z = (a + b) - (b + a)
        with time_limit(2):
            assert z.sign() == 0
            assert (z.decimal(6), str(z), repr(z)) == ("0", "0", "AlgebraicNumber(0)")
            assert (z + Fraction(1, 4)).decimal(6) == "0.25"
            # deciding the tie at -1/4 may need an elimination past the cap
            try:
                assert (z - Fraction(1, 4)).decimal(3) == "-0.25"
            except DegreeCapExceeded:
                pass


def _horner_expr(coeffs):
    """Expression tree of the polynomial with these coefficients (lowest
    degree first) evaluated at the atom by Horner's rule."""
    expr = ("rat", Fraction(coeffs[-1]))
    for cf in reversed(coeffs[:-1]):
        expr = ("add", ("mul", expr, ("atom",)), ("rat", Fraction(cf)))
    return expr


# y^5 + y = 2/3 at the cut of the CDF (t + t^5)/2 for the amount 1/3
_QUINTIC_CDF = [0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)]
# each atom with its minimal polynomial and an expression that is exactly
# zero at it; for the quintic, eval(cut(1/3)) - 1/3
_SAF_ATOMS = {
    "sqrt2": (lambda: nth_root(2, 2), Poly([-2, 0, 1]), _horner_expr([-2, 0, 1])),
    "cbrt3": (lambda: nth_root(3, 3), Poly([-3, 0, 0, 1]), _horner_expr([-3, 0, 0, 1])),
    "quintic": (
        lambda: AlgebraicNumber.real_root(Poly(_QUINTIC_CDF) - c(Fraction(1, 3)), 0, 1),
        Poly([-2, 3, 0, 0, 0, 3]),
        ("sub", _horner_expr(_QUINTIC_CDF), ("rat", Fraction(1, 3))),
    ),
}

saf_exprs = st.recursive(
    st.one_of(
        st.just(("atom",)),
        st.just(("zero",)),
        st.tuples(st.just("rat"), st.fractions(min_value=-6, max_value=6, max_denominator=5)),
    ),
    lambda kids: st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
    max_leaves=10,
)


def _build(expr, atom, zero):
    kind = expr[0]
    if kind == "atom":
        return atom
    if kind == "zero":
        return _build(zero, atom, zero)
    if kind == "rat":
        return AlgebraicNumber(expr[1])
    a, b = _build(expr[1], atom, zero), _build(expr[2], atom, zero)
    return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.__truediv__}[kind](b)


def _expand_zero(expr, zero):
    if expr[0] == "zero":
        return zero
    if expr[0] in ("atom", "rat"):
        return expr
    return (expr[0], _expand_zero(expr[1], zero), _expand_zero(expr[2], zero))


# irreducible moduli, monic or not, as integer coefficient lists
_INVERSE_MODULI = {
    "x^2-x-1": [-1, -1, 1],
    "x^4-2": [-2, 0, 0, 0, 1],
    "2x^5-1": [-1, 0, 0, 0, 0, 2],
    "3x^5+3x-2": [-2, 3, 0, 0, 0, 3],
    "x^6-3": [-3, 0, 0, 0, 0, 0, 1],
    "9x^3-6x+2": [2, -6, 0, 9],
}


class TestSingleAtomForm:
    """The integer single-atom form against Fraction residues modulo the
    atom's minimal polynomial."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_SAF_ATOMS)), saf_exprs)
    def test_matches_fraction_residue(self, name, expr):
        make_atom, m, zero = _SAF_ATOMS[name]
        atom = make_atom()
        assert atom.minimal_polynomial() == m
        try:
            expected = residue_oracle(_expand_zero(expr, zero), m)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _build(expr, atom, zero)
            return
        value = _build(expr, atom, zero)
        form_atom, residue = alg._saf_of(value._node)
        assert residue == expected
        assert form_atom is (atom._node if expected.degree >= 1 else None)
        assert value.is_zero() == expected.is_zero
        if expected.degree <= 0:
            assert value.as_rational() == expected.coeff(0)

    def test_exact_zeros(self):
        for make_atom, m, zero in _SAF_ATOMS.values():
            value = _build(zero, make_atom(), zero)
            assert alg._saf_of(value._node) == (None, Poly())
            assert value.sign() == 0

    def test_affine_value_generates_past_the_cap(self):
        # 3 * 2^(1/53) + 1 has degree 53, past the default cap of 48: its
        # field's generator is read off its affine form, with no minimal
        # polynomial of the value
        radical = nth_root(2, 53)
        value = 3 * radical + 1
        with pytest.raises(DegreeCapExceeded):
            value.minimal_polynomial()
        atom = alg._generating_atom(value._node)
        assert atom is radical._node
        assert (atom.operand, atom.index) == (2, 53)


    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(_INVERSE_MODULI)),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.integers(1, 12),
    )
    def test_inverse_matches_extended_euclid(self, name, nums, den):
        m = Poly(_INVERSE_MODULI[name])
        residue = Poly(nums[: m.degree], den)
        if residue:
            assert alg._saf_inverse(residue, m) == inverse_mod_oracle(residue, m)

    def test_degree_one_atom_reduces_to_constants(self):
        # the cut of x^2 at a rational target with no single-atom form is
        # the atom 1/2, of minimal polynomial 2x - 1: every form built on
        # it is a constant
        atom = _planted_tie(Fraction(1, 2))
        assert atom.minimal_polynomial() == Poly([-1, 2])
        for value, want in ((atom + 1, Fraction(3, 2)), (atom * atom, Fraction(1, 4)), (1 / atom, Fraction(2))):
            assert alg._saf_of(value._node) == (None, Poly([want]))


def _cut_root_generator():
    # the y in [0, 1] with (y + y^3)/2 = sqrt(2)/4, a cut-root atom
    node = _make_cut_root(Poly([0, Fraction(1, 2), 0, Fraction(1, 2)]), (nth_root(2, 2) / 4)._node)
    assert isinstance(node, _CutRootAtom)
    return AlgebraicNumber(node)


# generators of single-atom fields: radicals, a quadratic root (whose form
# is over the interned sqrt(5)), a quintic poly-root atom and a cut root
_FIELDS = {
    "2^(1/4)": lambda: nth_root(2, 4),
    "3^(1/6)": lambda: nth_root(3, 6),
    "golden": lambda: AlgebraicNumber.real_root(X**2 - X - c(1), 1, 2),
    "quintic": _SAF_ATOMS["quintic"][0],
    "cut root": _cut_root_generator,
}


def _at(g, alpha):
    """g(alpha) by folded Horner."""
    acc = AlgebraicNumber(0)
    for cf in reversed(g.coeffs):
        acc = acc * alpha + cf
    return acc


class TestCharacteristicPolynomialRoute:
    """Minimal polynomials of single-atom values from the squarefree part of
    the characteristic polynomial, against factoring it and selecting the
    factor that vanishes at the value."""

    @staticmethod
    def _minpoly_unfactored(v):
        with mock.patch.object(alg, "factor_over_Q", side_effect=AssertionError("factored")):
            with mock.patch.object(alg, "_select_factor", side_effect=AssertionError("selected")):
                return v.minimal_polynomial()

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(_FIELDS)),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=6),
    )
    def test_matches_factor_and_select(self, name, gcoeffs):
        alpha = _FIELDS[name]()
        m = alpha.minimal_polynomial()  # the atom's own, computed before patching
        g = Poly(gcoeffs[: m.degree])
        assert self._minpoly_unfactored(_at(g, alpha)) == minpoly_by_factoring_oracle(g, m)

    def test_proper_subfields(self):
        # sqrt(2) = (2^(1/4))^2 and sqrt(3) + 1 = (3^(1/6))^3 + 1 have
        # characteristic polynomials that are a square and a cube
        for alpha, g, expected, power in (
            (nth_root(2, 4), X**2, X**2 - c(2), 2),
            (nth_root(3, 6), X**3 + c(1), X**2 - c(2) * X - c(2), 3),
        ):
            m = alpha.minimal_polynomial()
            assert m.degree == expected.degree * power
            assert charpoly_of(m, g) == expected**power
            assert self._minpoly_unfactored(_at(g, alpha)) == expected
            assert minpoly_by_factoring_oracle(g, m) == expected

    def test_field_degrees(self):
        degrees = {name: make().minimal_polynomial().degree for name, make in _FIELDS.items()}
        assert degrees == {"2^(1/4)": 4, "3^(1/6)": 6, "golden": 2, "quintic": 5, "cut root": 6}


# the atoms of the differential test: radicals, a quadratic form over the
# interned sqrt(5), polynomial roots and the cut root of (x + x^3)/2 at the
# rational target 1/3, a root of 3x^3 + 3x - 2
_ATOMS_POOL = {
    "sqrt2": lambda: nth_root(2, 2),
    "sqrt3": lambda: nth_root(3, 2),
    "cbrt2": lambda: nth_root(2, 3),
    "golden": _FIELDS["golden"],
    "(1+sqrt2)/3": lambda: (1 + nth_root(2, 2)) / 3,
    "x^3-x-1": lambda: AlgebraicNumber.real_root(X**3 - X - c(1), 1, 2),
    "x^3-3x+1": lambda: AlgebraicNumber.real_root(X**3 - c(3) * X + c(1), 0, 1),
    "cut at 1/3": lambda: AlgebraicNumber(
        _make_cut_root(Poly([0, Fraction(1, 2), 0, Fraction(1, 2)]), AlgebraicNumber(Fraction(1, 3))._node)
    ),
}
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestAtomsAlgebra:
    """Minimal polynomials of values mixing atoms from one characteristic
    polynomial in the atoms' algebra, against nested pairwise elimination."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(sorted(_ATOMS_POOL)), min_size=2, max_size=3, unique=True),
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_OPS)),
                st.integers(0, 5),
                st.integers(0, 5),
                st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_nested_elimination(self, names, steps):
        # the first step combines the first two atoms, each later one two
        # earlier values, the second shifted by a small rational; steps
        # whose elimination would pass degree 9, where the oracle's
        # factoring by Kronecker's method slows down, are skipped
        values = [_ATOMS_POOL[name]() for name in names]
        known = {}
        built = []
        for k, (op, i, j, q) in enumerate(steps):
            i, j = (0, 1) if k == 0 else (i % len(values), j % len(values))
            x, y = values[i], values[j] + q
            if nested_elimination_minpoly(x, known).degree * nested_elimination_minpoly(y, known).degree > 9:
                continue
            try:
                built.append(_OPS[op](x, y))
            except ZeroDivisionError:
                continue
            values.append(built[-1])
        for v in built:
            assert v.minimal_polynomial() == nested_elimination_minpoly(v, known)

    def test_route_is_taken(self):
        # sqrt2 + cbrt2 and (sqrt2 + sqrt3)/(1 + sqrt2*sqrt3): no single-atom
        # form, so the algebra of dimension 6 and 4 gives the annihilator
        r2, r3, c2 = nth_root(2, 2), nth_root(3, 2), nth_root(2, 3)
        for v, dim in ((r2 + c2, 6), ((r2 + r3) / (1 + r2 * r3), 4)):
            f = alg._atoms_charpoly(v._node)
            assert f is not None and len(f) - 1 == dim
            assert v.minimal_polynomial() == nested_elimination_minpoly(v)

    def test_probe_is_decided_inside_the_cap(self):
        # (a+b)(a-b) - (a^2 - b^2) + 3/8 for a = 2^(1/4), b = 3^(1/4) is 3/8:
        # the algebra has dimension 16, where the eliminations ask for 64
        a, b = nth_root(2, 4), nth_root(3, 4)
        z = (a + b) * (a - b) - (a * a - b * b)
        with time_limit(1):
            assert (z + Fraction(3, 8)).minimal_polynomial() == Poly([-3, 8])
            assert z.sign() == 0

    def test_declines(self):
        # D = 49 passes the cap of 48 for the atoms and for the operands,
        # whose cap message names the operation
        a, b = nth_root(2, 7), nth_root(3, 7)
        assert alg._atoms_charpoly((a + b)._node) is None
        with pytest.raises(DegreeCapExceeded, match=r"degree 49 .*\(add elimination\)"):
            (a + b).minimal_polynomial()
        # 2^(1/4)^2 + sqrt2 = 2*sqrt2 is a zero divisor of Q[y, z]/(y^4 - 2,
        # z^2 - 2), where y^2 + z can vanish; the operands' algebra decides
        q, r2 = nth_root(2, 4), nth_root(2, 2)
        v = nth_root(3, 2) / (q * q + r2)
        assert alg._atoms_charpoly(v._node) is None
        assert v.minimal_polynomial() == Poly([-3, 0, 8])  # sqrt3 / (2 sqrt2)

    def test_operands_decide_past_the_atoms_cap(self):
        # four quartic atoms span 256 dimensions, the operands 6^(1/4) and
        # 35^(1/4) 16; the square of their quotient has one operand twice,
        # one generator of 4 dimensions
        x = nth_root(2, 4) * nth_root(3, 4)
        y = nth_root(5, 4) * nth_root(7, 4)
        q = x / y
        assert (q * q)._node.a is (q * q)._node.b
        known = {}
        sum16 = Poly([707281, 0, 0, 0, -1240004, 0, 0, 0, -18474, 0, 0, 0, -164, 0, 0, 0, 1])
        cases = ((x + y, sum16), (x - y, sum16), (q, Poly([-6, 0, 0, 0, 35])), (q * q, Poly([-6, 0, 35])))
        for v, expected in cases:
            assert alg._atoms_charpoly(v._node) is None
            assert v.minimal_polynomial() == expected == nested_elimination_minpoly(v, known)

    def test_generator_of_degree_one(self):
        # the cut root c of (x + x^2)/2 at the target 3/8 + z, z an exact 0
        # with no single-atom form, is an atom of degree 1 with value 1/2: it
        # enters the algebra of c and sqrt5 as its rational value
        a, b = nth_root(2, 2), nth_root(3, 2)
        target = (a + b) - (b + a) + Fraction(3, 8)
        cut = AlgebraicNumber(_make_cut_root(Poly([0, Fraction(1, 2), Fraction(1, 2)]), target._node))
        assert isinstance(cut._node, _CutRootAtom) and cut.minimal_polynomial() == Poly([-1, 2])
        r5 = nth_root(5, 2)
        assert (cut + r5).minimal_polynomial() == Poly([-19, -4, 4])  # 1/2 + sqrt5
        assert (r5 / (cut + 1)).minimal_polynomial() == Poly([-20, 0, 9])  # 2 sqrt5 / 3

    def test_generators_of_smaller_dimension(self):
        # x^5 = 2^(1/3) and y^2 = 9^(1/3) lie in fields of degree 15 and 3
        # over Q: their sum spans 9 dimensions as two generators, 45 as two
        # atoms, and its minimal polynomial is the whole sum polynomial
        x, y = nth_root(2, 15), nth_root(3, 3)
        v = x**5 + y**2
        assert len(alg._atoms_charpoly(v._node)) - 1 == 9
        expected = elimination_oracle("add", X**3 - c(2), X**3 - c(9))
        assert v.minimal_polynomial() == expected.primitive()


# points of poly_at: rational, in one atom's field, and mixing two atoms
_POINTS = {
    "rational": lambda: AlgebraicNumber(Fraction(3, 7)),
    "2^(1/4)": lambda: nth_root(2, 4) / 3 + Fraction(1, 5),
    "golden": _FIELDS["golden"],
    "quintic": lambda: _FIELDS["quintic"]() * 2 - 1,
    "cut root": _cut_root_generator,
    "mixed": lambda: nth_root(2, 2) + nth_root(3, 3),
}


def _same_dag(a, b):
    """Both node trees have one shape, the same rationals and the same atoms."""
    if type(a) is not type(b):
        return False
    if isinstance(a, alg._Rat):
        return a.value == b.value
    if isinstance(a, alg._Binary):
        return _same_dag(a.a, b.a) and _same_dag(a.b, b.b)
    return a is b


class TestResiduePolyAt:
    """poly_at against folded Horner: the same value, the same single-atom
    form and the same mediator ticks."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(_POINTS)),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=8),
    )
    def test_matches_folded_horner(self, name, coeffs):
        v = _POINTS[name]()
        p = Poly(coeffs)
        # F at its own cut root is the cut's target (TestHeldPolyAt)
        assume(alg._held_poly_at(p, v._node) is None)
        with alg.count_ops([0]) as got_ticks:
            got = poly_at(p, v)
        with alg.count_ops([0]) as want_ticks:
            want = poly_at_fold_oracle(p, v)
        assert got_ticks == want_ticks == [0 if name == "rational" else 2 * len(p.coeffs)]
        form = alg._saf_of(got._node)
        assert form == alg._saf_of(want._node)
        if name == "mixed":
            assert (form is alg._SAF_UNAVAILABLE) == (p.degree >= 1)
            assert _same_dag(got._node, want._node)
        else:
            assert isinstance(got._node, alg._Rat) == (form[0] is None)
            assert got.as_rational() == want.as_rational()
            # the node's own tree, not only the form set on it, has the value
            glo, ghi = got.approx(Fraction(1, 2**40))
            wlo, whi = want.approx(Fraction(1, 2**40))
            assert glo <= whi and wlo <= ghi


@st.composite
def _held_cases(draw):
    """(node, p, held): a cut root F^-1(tau) with p = F, or the real d-th
    root of an irrational w with p = T^d, and the value tau or w that p
    takes there.  tau and w are a radical, a sum of two square roots or an
    earlier cut root (`_unit_values`), w negated for some odd d."""
    _, held = draw(_unit_values())
    if draw(st.booleans()):
        p = draw(_cdfs(3))
        node = _make_cut_root(p, held._node)
    else:
        d = draw(st.integers(2, 3))
        if d % 2 and draw(st.booleans()):
            held = -held
        p = X**d
        node = held.root(d)._node
    return node, p, held


class TestHeldPolyAt:
    """F at its own cut root is the cut's target, and T^d at the real d-th
    root of a node is that node: `poly_at` returns the node it holds, with
    the ticks of the residue route, and the residue route agrees."""

    @settings(max_examples=100, deadline=None)
    @given(_held_cases())
    def test_matches_the_residue_route(self, case):
        node, p, held = case
        assert isinstance(node, (_CutRootAtom, alg._RootAtom))
        with alg.count_ops([0]) as got_ticks:
            got = poly_at(p, AlgebraicNumber(node))
        with alg.count_ops([0]) as want_ticks:
            want = alg._residue_poly_at(p, node)
        assert got._node is held._node
        assert got_ticks == want_ticks == [2 * len(p.nums)]
        assert got.compare(AlgebraicNumber(want)) == 0

    def test_no_fold_for_another_polynomial(self):
        cdf = Poly([0, Fraction(1, 2), 0, Fraction(1, 2)])
        cut = _cut_root_generator()._node
        assert cut.cdf == cdf
        root = nth_root(2, 2) / 4 + Fraction(1, 3)
        cases = [
            (cut, c(2) * cdf),  # 2F at the cut root of F
            (cut, Poly([0, Fraction(1, 3), Fraction(2, 3)])),  # another CDF
            (root.root(3)._node, X**2),  # T^e, e != d
            (root.root(3)._node, c(2) * X**3),
            (nth_root(2, 3)._node, X**3),  # a root of a Fraction
            (AlgebraicNumber.real_root(X**5 + X - c(1), 0, 1)._node, X**5 + X - c(1)),  # a poly root
        ]
        for node, p in cases:
            with alg.count_ops([0]) as ticks:
                assert alg._held_poly_at(p, node) is None
            assert ticks == [0]
            got = poly_at(p, AlgebraicNumber(node))
            want = alg._residue_poly_at(p, node)
            assert _same_dag(got._node, want)


def _sign_a_plus_b_sqrt2(a, b):
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a + b > 0) - (a + b < 0)
    d = a * a - 2 * b * b
    return (d > 0) - (d < 0) if a > 0 else (d < 0) - (d > 0)


def _decimal_a_plus_b_sqrt2(a, b, digits):
    """Truncated decimal of the irrational a + b*sqrt(2), b != 0."""
    scale = 10**digits
    r = math.isqrt(2 * b * b * scale * scale)  # floor(|b| sqrt(2) scale)
    floor = a * scale + (r if b > 0 else -r - 1)
    negative = _sign_a_plus_b_sqrt2(a, b) < 0
    t = -floor - 1 if negative else floor
    whole, frac = divmod(t, scale)
    return ("-" if negative else "") + f"{whole}.{frac:0{digits}d}…"


def _biquadratic_minpoly(p, q, r, s):
    """The primitive prod (T - x) over the four conjugates x of
    p + q√2 + r√3 + s√6: with u = p + q√2 and w = r + s√2, u ± w√3 are the
    roots of T^2 + B T + C over Q(√2), B = -2u and C = u^2 - 3w^2, and the
    quartic is that quadratic times its conjugate under √2 -> -√2."""
    b0, b1 = -2 * p, -2 * q
    c0, c1 = p * p + 2 * q * q - 3 * r * r - 6 * s * s, 2 * p * q - 6 * r * s
    return Poly([c0 * c0 - 2 * c1 * c1, 2 * (b0 * c0 - 2 * b1 * c1), 2 * c0 + b0 * b0 - 2 * b1 * b1, 2 * b0, 1]).primitive()


class TestDeepDags:
    def test_700_deep_horner_chain(self):
        # sign and decimal walk the DAG with explicit stacks: no
        # RecursionError at a depth near the interpreter's limit
        r2 = nth_root(2, 2)
        rng = random.Random(23)
        acc, a, b = AlgebraicNumber(1), 1, 0  # acc = a + b*sqrt(2)
        for _ in range(700):
            cf = rng.randint(-9, 9)
            acc = acc * r2 + cf
            a, b = 2 * b + cf, a
        assert acc.sign() == _sign_a_plus_b_sqrt2(a, b)
        assert acc.decimal(12) == _decimal_a_plus_b_sqrt2(a, b, 12)
        assert (-acc).decimal(12) == _decimal_a_plus_b_sqrt2(-a, -b, 12)

    def test_deep_minimal_polynomial_raises_a_named_error(self):
        # the atoms' algebra of sqrt2 and sqrt3 evaluates the 700-deep chain
        # on the walk's explicit stack: no recursion, and the exact quartic
        r2, r3 = nth_root(2, 2), nth_root(3, 2)
        acc, pqrs = AlgebraicNumber(1), (1, 0, 0, 0)  # p + q√2 + r√3 + s√6
        for _ in range(700):
            acc = acc * r2 + r3
            p, q, r, s = pqrs
            pqrs = (2 * q, p, 2 * s + 1, r)
        assert acc.minimal_polynomial() == _biquadratic_minpoly(*pqrs)

    def test_deep_minimal_polynomial_past_the_algebra_cap(self):
        # over seventh roots the algebra's dimension 49 passes the cap, and
        # elimination recurses once per DAG level: past the interpreter's
        # limit it raises a CakelabError and caches nothing on the nodes it
        # unwinds
        a, b = nth_root(2, 7), nth_root(3, 7)
        acc, chain = AlgebraicNumber(1), []
        for _ in range(700):
            acc = acc * a + b
            chain.append(acc)
        with pytest.raises(ExpressionTooDeep):
            acc.minimal_polynomial()
        assert all(v._node._mp is None for v in chain)
        with pytest.raises(DegreeCapExceeded):
            chain[0].minimal_polynomial()  # a + b, an elimination of degree 49

    def test_10000_deep_chain_residue_and_atoms(self):
        # the tower's walks run on the same explicit stack as sign and
        # decimal: far past the recursion limit, no RecursionError
        r2, r3 = nth_root(2, 2)._node, nth_root(3, 2)._node
        p, images = 10007, {id(r2): 5, id(r3): 7}
        acc, v = alg._Rat(Fraction(1)), 1
        for _ in range(10_000):
            acc = alg._Add(alg._Mul(acc, r2), r3)
            v = (v * 5 + 7) % p
        assert alg._residue_mod(acc, p, images) == v
        assert alg._dag_atoms(acc) == [r2, r3]

    def test_oracles(self):
        assert _sign_a_plus_b_sqrt2(-3, 2) == -1 and _sign_a_plus_b_sqrt2(3, -2) == 1
        assert _sign_a_plus_b_sqrt2(-1, 1) == 1 and _sign_a_plus_b_sqrt2(0, 0) == 0
        assert _decimal_a_plus_b_sqrt2(0, 1, 3) == nth_root(2, 2).decimal(3) == "1.414…"
        assert _decimal_a_plus_b_sqrt2(1, -1, 3) == "-0.414…"


_UNFOLDED = {"+": alg._Add, "-": alg._Sub, "*": alg._Mul, "/": alg._Div}
_FOLDED = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestWalk:
    """The one DAG walk against recursive descent, and its operand order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_dags_match_recursive_oracles(self, data):
        # pool indices repeat, so subnodes are shared; "r" puts a root atom
        # over a node, a leaf for residues and atom lists
        p = data.draw(st.sampled_from([2, 3, 5, 7, 101]))
        atoms = [nth_root(2, 2)._node, nth_root(3, 2)._node, nth_root(5, 3)._node]
        pool = atoms[: data.draw(st.integers(2, 3))]
        rats = st.fractions(min_value=-4, max_value=4, max_denominator=14)
        pool += [alg._Rat(r) for r in data.draw(st.lists(rats, min_size=1, max_size=3))]
        steps = st.tuples(st.sampled_from("+-*/r"), st.integers(0, 99), st.integers(0, 99))
        for op, i, j in data.draw(st.lists(steps, min_size=1, max_size=16)):
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            pool.append(alg._RootAtom(a, 3) if op == "r" else _UNFOLDED[op](a, b))
        node = pool[-1]
        want = dag_atoms_oracle(node)
        assert [id(a) for a in alg._dag_atoms(node)] == [id(a) for a in want]
        images = {id(a): data.draw(st.integers(0, p - 1)) for a in want}
        assert alg._residue_mod(node, p, images) == residue_mod_oracle(node, p, images)

    def test_operand_enclosures_combine_as_finished(self, monkeypatch):
        # the cut root's target refines the atom, the parent's operand a,
        # past the effort the parent asked for; the parent still adds the
        # enclosure the atom had when it was finished
        def fresh_atom():
            monkeypatch.setattr(alg, "_polyroot_intern", {})
            return AlgebraicNumber.real_root(X**3 - X - c(1), 1, 2)._node

        atom = fresh_atom()
        target = alg._Sub(alg._Mul(atom, alg._Rat(Fraction(100))), alg._Rat(Fraction(132)))
        cut = _make_cut_root(Poly([0, Fraction(1, 2), Fraction(1, 2)]), target)
        assert isinstance(cut, _CutRootAtom)
        lo, hi = _interval(alg._Add(atom, cut), 8)
        alo, ahi = _interval(fresh_atom(), 8)
        assert atom._ivc[0] > 8 and atom._ivc[1] != (alo, ahi)
        (clo, chi) = cut._ivc[1]
        assert (lo, hi) == (alo + clo, ahi + chi)


class TestFoldSoundness:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.sampled_from("+-*/uu"), st.integers(0, 4), st.integers(0, 4)),
            min_size=2,
            max_size=10,
        ),
    )
    # zero divisors no fold cancels: ((sqrt2 + f) - (f + sqrt2)) * t* and
    # (sqrt2 + f) + (0 - (f + sqrt2))
    @example([Fraction(1)], [("+", 3, 2), ("+", 3, 4), ("-", 1, 0), ("*", 0, 4), ("/", 7, 0)])
    @example([Fraction(0)], [("+", 3, 2), ("+", 3, 4), ("-", 2, 0), ("+", 2, 0), ("/", 5, 0)])
    def test_folded_build_encloses_the_unfolded_value(self, rats, ops):
        # operands are counted back from the newest subtree; "u" undoes the
        # last operation of the i-th newest built subtree with one of its own
        # operands, the shape the folds cancel
        leaves = [nth_root(2, 2), nth_root(Fraction(1, 2), 5), t_star()]
        leaves += [AlgebraicNumber(r) for r in rats]
        folded, unfolded = list(leaves), [v._node for v in leaves]
        recipes = [None] * len(leaves)
        for op, i, j in ops:
            j = len(folded) - 1 - j % len(folded)
            if op == "u":
                built = [k for k, r in enumerate(recipes) if r is not None]
                if not built:
                    continue
                i = built[-1 - i % len(built)]
                last, x, y = recipes[i]
                op = {"+": "-", "-": "+", "*": "/", "/": "*"}[last]
                if j % 2:
                    i, j = (i, x) if last in "+*" else (y, i)
                else:
                    j = y
            else:
                i = len(folded) - 1 - i % len(folded)
            try:
                folded.append(_FOLDED[op](folded[i], folded[j]))
            except (ZeroDivisionError, DegreeCapExceeded):
                # an exact zero divisor, or one whose zero test passes the cap
                return
            unfolded.append(_UNFOLDED[op](unfolded[i], unfolded[j]))
            recipes.append((op, i, j))
        eps = Fraction(1, 1 << 64)
        for v, node in zip(folded[len(leaves):], unfolded[len(leaves):]):
            lo, hi = v.approx(eps)
            ulo, uhi = alg._refine_to(node, eps)
            assert lo <= uhi and ulo <= hi


class TestRationalCutRoot:
    @pytest.mark.degree_cap(12)
    def test_point_enclosure_prints_exactly(self):
        # z is 0 with no single-atom form, so the cut root of the target
        # 3/8 + z is 1/2, which refinement reaches as the point [1/2, 1/2]
        a, b = nth_root(2, 2), nth_root(3, 2)
        z = (a + b) - (b + a)
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        v = AlgebraicNumber(_make_cut_root(cdf, (z + Fraction(3, 8))._node))
        assert v.decimal(6) == "0.5"
        # the tower's degree of the answer needs the target's minimal
        # polynomial: elimination would ask for degree 16, past the pinned
        # cap of 12, and the atoms' algebra has dimension 4
        session = Session([Measure.make(cdf)])
        assert session.cut(0, 0, z + Fraction(3, 8)) == Fraction(1, 2)
        assert (z + Fraction(3, 8)).minimal_polynomial() == Poly([-3, 8])
        assert session.transcript.dump() == (
            "#0 player1 cut args=(0, 0.375) answer=0.5\nstep 0: deg=1 kind=trivial source=#0"
        )

    @pytest.mark.degree_cap(12)
    def test_point_enclosure_past_the_cap(self):
        # z = 2^(1/4) - (2^(1/8))^2 is 0, decided from its operands' minimal
        # polynomials, both x^4 - 2; the target's needs the atoms' algebra of
        # dimension 32 or an elimination of degree 16, both past the pinned
        # cap of 12, so the tower raises once the answer is recorded
        z = nth_root(2, 4) - nth_root(2, 8) * nth_root(2, 8)
        cdf = Poly([0, Fraction(1, 2), Fraction(1, 2)])
        v = AlgebraicNumber(_make_cut_root(cdf, (z + Fraction(3, 8))._node))
        assert v.decimal(6) == "0.5"
        session = Session([Measure.make(cdf)])
        with pytest.raises(DegreeCapExceeded):
            session.cut(0, 0, z + Fraction(3, 8))
        assert session.transcript.dump() == "#0 player1 cut args=(0, 0.375) answer=0.5"


class TestOpCounter:
    @staticmethod
    def _two_ops():
        r = nth_root(2, 2)
        return (r + r) * r

    def test_counts_the_block_only(self):
        with alg.count_ops([0]) as ticks:
            self._two_ops()
            with alg.uncounted():
                self._two_ops()
            with alg.count_ops([0]) as inner:
                self._two_ops()
            self._two_ops()
        self._two_ops()
        assert ticks == [4] and inner == [2]

    def test_other_contexts_and_threads_do_not_tick(self):
        # the counter belongs to the context that opened it: a fresh
        # context, or a thread, starts with no counter open
        with alg.count_ops([0]) as ticks:
            self._two_ops()
            contextvars.Context().run(self._two_ops)
            worker = threading.Thread(target=self._two_ops)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert ticks == [2]


intervals = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
).map(sorted)


class TestIntervalProduct:
    @settings(max_examples=500, deadline=None)
    @given(intervals, intervals)
    def test_matches_extremes_of_all_four_products(self, x, y):
        ps = [x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]]
        assert alg._iv_mul(tuple(x), tuple(y)) == (min(ps), max(ps))
