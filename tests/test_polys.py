import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cakelab import DyadicInterval, Poly, ZeroPolynomialError, poly_gcd, rational_roots
from cakelab import polys
from cakelab.ints import is_probable_prime
from cakelab.polys import (
    bisect_root,
    count_roots_in,
    horner,
    refine_root,
    resultant,
    root_bound,
    squarefree_part,
    sturm_chain,
    sturm_isolate,
    sturm_point,
)

from conftest import time_limit
from _oracle import (
    FractionPoly,
    bisect_oracle,
    dyadic_horner_oracle,
    fp_powmod_oracle,
    fraction_horner_oracle,
    int_gcd_prs_oracle,
    poly_divmod_int,
    poly_gcd_oracle,
    rational_roots_oracle,
    resultant_oracle,
    root_bound_oracle,
    squarefree_decomposition_oracle,
    squarefree_part_oracle,
    sturm_chain_oracle,
    sturm_count_oracle,
    sturm_isolate_oracle,
)

X = Poly.x()


def assert_yun_matches_oracle(p):
    """`_int_squarefree_decomposition`, the Yun core of `factor_over_Q`,
    gives the oracle's parts in primitive integer form."""
    if p.degree > 0:
        parts = [(g.int_coeffs(), i) for g, i in squarefree_decomposition_oracle(p)]
        assert polys._int_squarefree_decomposition(p.int_coeffs()) == parts


def c(v):
    return Poly.constant(v)


class TestGcd:
    def test_common_factor_by_construction(self):
        assert poly_gcd(X**2 - c(1), X - c(1)) == X - c(1)

    def test_quintic_trinomial_factor(self):
        assert poly_gcd(X**5 + X - c(1), X**2 - X + c(1)) == X**2 - X + c(1)

    def test_coprime(self):
        assert poly_gcd(X**3 + X**2 - c(1), X**2 + X + c(1)) == c(1)
        # cross-check by exact division leaving a nonzero remainder
        q, r = divmod(X**3 + X**2 - c(1), X**2 + X + c(1))
        assert not r.is_zero

    def test_gcd_zero_zero(self):
        assert poly_gcd(Poly(), Poly()) == Poly()

    def test_divides_both_inputs(self):
        rng = random.Random(7)
        for _ in range(25):
            a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            g = poly_gcd(a, b)
            if not g.is_zero:
                assert g.divides(a) and g.divides(b)


class TestArithmetic:
    def test_divmod_reconstructs(self):
        rng = random.Random(11)
        for _ in range(40):
            a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
            b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.degree < b.degree or r.is_zero

    def test_squarefree_decomposition(self):
        p = (X - c(1)) ** 2 * (X + c(2)) * (X**2 + c(1)) ** 3
        parts = polys._int_squarefree_decomposition(p.int_coeffs())
        rebuilt = Poly.constant(1)
        for g, m in parts:
            rebuilt = rebuilt * Poly(g) ** m
        assert rebuilt.monic() == p.monic()
        assert sorted(m for _, m in parts) == [1, 2, 3]

    def test_translate_and_reverse(self):
        p = X**3 - c(2) * X + c(5)
        assert p.compose(X + c(Fraction(1, 2)))(Fraction(1, 2)) == p(1)
        assert p.reverse().reverse() == p

    def test_resultant_shares_root_iff_zero(self):
        assert resultant(X**2 - c(1), X - c(1)) == 0
        assert resultant(X**2 - c(2), X**2 - c(3)) != 0


# A polynomial as Poly(nums, den), with a denominator of either sign and
# up to 40 digits, or as Poly(coeffs) with Fraction or int coefficients;
# zero and constants included.  Each comes with its FractionPoly.
int_form_polys = st.one_of(
    st.builds(
        lambda nums, den: (Poly(nums, den), FractionPoly(Fraction(n, den) for n in nums)),
        st.lists(st.integers(-(10**6), 10**6) | st.just(0), max_size=6),
        st.integers(-(10**40), 10**40).filter(bool) | st.sampled_from([1, -1, 2, -6]),
    ),
    st.builds(
        lambda cs: (Poly(cs), FractionPoly(cs)),
        st.lists(st.fractions(max_denominator=10**12) | st.integers(-9, 9), max_size=6),
    ),
)


def assert_integer_form(p):
    """nums over a positive den coprime to them, with no trailing zero."""
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(type(c) is int for c in p.nums)


class TestIntegerForm:
    @settings(max_examples=300, deadline=None)
    @given(
        int_form_polys,
        int_form_polys,
        st.fractions(max_denominator=10**9) | st.integers(-3, 3),
        st.fractions(max_denominator=10**9),
        st.integers(1, 4),
    )
    @example((Poly(), FractionPoly()), (Poly([3]), FractionPoly([3])), 0, Fraction(1, 2), 1)
    @example((Poly([1, 2], -3), FractionPoly([Fraction(-1, 3), Fraction(-2, 3)])), (Poly(), FractionPoly()), 5, 0, 2)
    def test_matches_fraction_reference(self, pa, pb, c, x, k):
        (a, fa), (b, fb) = pa, pb
        assert a.coeffs == fa.coeffs
        results = [
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a * b, fa * fb),
            (a.scale(c), fa.scale(c)),
            (a.compose(b), fa.compose(fb)),
            (a.derivative(), fa.derivative()),
            (a.substitute_power(k), fa.substitute_power(k)),
            (a.reverse(), fa.reverse()),
            (a.negate_variable(), fa.negate_variable()),
            (a.monic(), fa.monic()),
        ]
        if b:
            results.extend(zip(divmod(a, b), divmod(fa, fb)))
        for got, want in results:
            assert_integer_form(got)
            assert got.coeffs == want.coeffs
            assert got == Poly(want.coeffs) and hash(got) == hash(Poly(want.coeffs))
        assert a(x) == fa(x)
        assert a.int_coeffs() == fa.int_coeffs()

    def test_spellings_give_one_polynomial(self):
        spellings = [
            Poly([Fraction(1, 2), 1]),
            Poly([Fraction(2, 4), Fraction(3, 3)]),
            Poly([Fraction(1, 2), 1, 0, Fraction(0)]),
            Poly(["1/2", 1.0]),
            Poly([1, 2], 2),
            Poly([-2, -4], -4),
            Poly([Fraction(3, 2), 3], 3),
        ]
        first = spellings[0]
        for p in spellings:
            assert_integer_form(p)
            assert p == first and hash(p) == hash(first)
            assert p.coeffs == (Fraction(1, 2), Fraction(1))
            assert (p.nums, p.den) == ((1, 2), 2)
        ints = Poly([2, 0, -1, 0])
        fractions = Poly([Fraction(2), Fraction(0), Fraction(-1)])
        assert ints == fractions and hash(ints) == hash(fractions) and ints.coeffs == fractions.coeffs
        zeros = [Poly(), Poly([0, 0]), Poly([Fraction(0)]), Poly([], -5), Poly([0], 7)]
        for z in zeros:
            assert z == Poly() and hash(z) == hash(Poly()) and z.coeffs == () and z.den == 1

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2], 0)

    def test_negative_power_raises(self):
        with time_limit(2), pytest.raises(ValueError):
            X**-1


# integer lists, trailing zeros allowed, over nonzero denominators of either
# sign; small entries share factors with the denominator often
_INT_LISTS = st.lists(st.integers(-12, 12) | st.integers(-(10**20), 10**20), max_size=7)
_DENS = (st.integers(-12, 12) | st.integers(-(10**20), 10**20)).filter(bool)


class TestNormalForm:
    """`polys._normal` and `polys._sum`, the one normal form and the one sum
    of integers over a denominator, against `Fraction`."""

    @settings(max_examples=300, deadline=None)
    @given(_INT_LISTS, _DENS)
    @example([0, 0], -5)
    @example([6, -4, 0], -2)
    def test_normal_keeps_the_value_in_lowest_terms(self, nums, den):
        got, d = polys._normal(nums, den)
        assert type(got) is tuple and d > 0
        assert not got or got[-1] != 0
        assert math.gcd(d, *got) == 1
        want = [Fraction(x, den) for x in nums]
        assert [Fraction(x, d) for x in got] + [Fraction(0)] * (len(want) - len(got)) == want
        assert polys._normal(got, d) == (got, d)

    @settings(max_examples=300, deadline=None)
    @given(_INT_LISTS, _DENS, _INT_LISTS, _DENS, st.sampled_from([1, -1]))
    def test_sum_matches_fraction_addition(self, xs, s, ys, t, sign):
        a, b = polys._normal(xs, s), polys._normal(ys, t)
        got, d = polys._sum(a, b, sign)
        assert (got, d) == polys._normal(got, d)
        n = max(len(xs), len(ys))
        pad = [0] * n
        want = [Fraction(x, s) + sign * Fraction(y, t) for x, y in zip(xs + pad, ys + pad)][:n]
        assert [Fraction(x, d) for x in got] + [Fraction(0)] * (n - len(got)) == want

    @settings(max_examples=200, deadline=None)
    @given(_INT_LISTS, _DENS)
    def test_of_a_normal_pair_is_the_constructed_poly(self, nums, den):
        p = Poly._of(polys._normal(nums, den))
        q = Poly(nums, den)
        assert p == q and hash(p) == hash(q)
        assert (p.nums, p.den) == (q.nums, q.den)


def _prod(ps):
    out = Poly.constant(1)
    for p in ps:
        out = out * p
    return out


# Products of factors from a small pool, so that two draws often share one.
_FACTOR_POOL = [X, X - c(1), c(2) * X + c(3), X**2 - c(2), X**2 + X + c(1), c(3) * X**2 - c(5)]
nonzero_polys = st.builds(
    lambda lead, idx: Poly.constant(lead) * _prod(_FACTOR_POOL[i] for i in idx),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.lists(st.integers(0, len(_FACTOR_POOL) - 1), max_size=3),
)


# Products of powers of pool factors under a rational leading coefficient
# of either sign, so repeated factors are common; and zero, constants and
# polynomials with random rational coefficients.
_REPEAT_POOL = _FACTOR_POOL + [X**3 - X + c(Fraction(1, 2)), c(5) * X**2 - c(4) * X + c(7)]
gcd_polys = st.one_of(
    st.builds(
        lambda lead, parts: Poly.constant(lead) * _prod(_REPEAT_POOL[i] ** e for i, e in parts),
        st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
        st.lists(st.tuples(st.integers(0, len(_REPEAT_POOL) - 1), st.integers(1, 3)), max_size=4),
    ),
    st.just(Poly()),
    st.builds(Poly.constant, st.fractions(min_value=-9, max_value=9, max_denominator=6)),
    st.builds(Poly, st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=7)),
)


class TestResultantProperties:
    """No library path calls `resultant`, so its own laws are pinned here,
    and its value against the Euclidean recurrence over Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(gcd_polys, gcd_polys)
    def test_matches_fraction_euclid(self, f, g):
        assert resultant(f, g) == resultant_oracle(f, g)

    @settings(max_examples=150, deadline=None)
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_multiplicative_in_second_argument(self, f, g, h):
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    @settings(max_examples=150, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_antisymmetric_up_to_degree_sign(self, f, g):
        assert resultant(g, f) == (-1) ** (f.degree * g.degree) * resultant(f, g)

    @settings(max_examples=150, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_zero_iff_common_factor(self, f, g):
        assert (resultant(f, g) == 0) == (poly_gcd(f, g).degree > 0)


# Integer polynomials for the heuristic gcd: a planted common factor (or
# none, so mostly coprime pairs) times two cofactors, with coefficients
# small or past 2^200; and zero and constants.
_SMALL = st.integers(-9, 9)
_HUGE = st.integers(-(1 << 220), 1 << 220)


def _int_poly(coeff, max_size):
    return st.lists(coeff, max_size=max_size).map(lambda cs: polys._fp_trim(list(cs)))


@st.composite
def gcd_int_pairs(draw):
    coeff = draw(st.sampled_from([_SMALL, _HUGE]))
    g = draw(_int_poly(coeff, 5)) or [1]
    a, b = (draw(st.one_of(_int_poly(coeff, 7), st.just([]), _int_poly(coeff, 1))) for _ in range(2))
    return polys._int_mul(g, a), polys._int_mul(g, b)


@st.composite
def yun_inputs(draw):
    """A primitive integer polynomial of positive degree with a positive
    leading coefficient, of planted factors up to the fourth power."""
    coeff = draw(st.sampled_from([_SMALL, _HUGE]))
    f = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.lists(coeff, min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0))
        for _ in range(draw(st.integers(1, 4))):
            f = polys._int_mul(f, g)
    assume(len(f) > 1)
    return Poly(f).int_coeffs()


# x^13 - x is divisible by 2 * 3 * 5 * 7 * 13 = 2730 at every integer
# (Fermat), and so is x^13 - x + 2730: their values share 2730 at every
# point the heuristic gcd tries, whose digits then never divide both, though
# the polynomials are coprime.
_FIXED_DIVISOR_PAIR = ([0, -1] + [0] * 11 + [1], [2730, -1] + [0] * 11 + [1])


class TestHeuristicGcd:
    """The heuristic gcd against the primitive remainder sequence alone."""

    @settings(max_examples=300, deadline=None)
    @given(gcd_int_pairs())
    @example(([], []))
    @example(([], [-6, 4]))
    @example(([7], [0, 0, 5]))
    @example(([12, 17, 3, -2], [12, 11, -4, 5, 6]))  # the first two points fail
    @example(_FIXED_DIVISOR_PAIR)
    def test_int_gcd_matches_prs(self, pair):
        a, b = pair
        g = int_gcd_prs_oracle(a, b)
        assert polys._int_gcd(a, b) == g
        assert polys._int_gcd(b, a) == g
        with mock.patch.object(polys, "_int_gcd", int_gcd_prs_oracle):
            expected = poly_gcd(Poly(a), Poly(b))
        assert poly_gcd(Poly(a), Poly(b)) == expected

    @settings(max_examples=200, deadline=None)
    @given(yun_inputs())
    @example([2, -3, 0, 1])  # (x - 1)^2 (x + 2)
    def test_yun_matches_prs(self, f):
        with mock.patch.object(polys, "_int_gcd", int_gcd_prs_oracle):
            expected = polys._int_squarefree_decomposition(f)
            expected_part = polys._int_squarefree(f)
        assert polys._int_squarefree_decomposition(f) == expected
        assert polys._int_squarefree(f) == expected_part

    def test_fixed_divisor_forces_the_remainder_sequence(self):
        a, b = _FIXED_DIVISOR_PAIR
        assert polys._heuristic_gcd(a, b) is None
        assert polys._int_gcd(a, b) == int_gcd_prs_oracle(a, b) == [1]
        g = [5, 1]
        a, b = polys._int_mul(a, g), polys._int_mul(b, g)
        assert polys._heuristic_gcd(a, b) is None
        assert polys._int_gcd(a, b) == int_gcd_prs_oracle(a, b) == g

    def test_failed_points_then_success(self):
        a, b = [12, 17, 3, -2], [12, 11, -4, 5, 6]
        with mock.patch.object(polys, "HEUGCD_POINTS", 2):
            assert polys._heuristic_gcd(a, b) is None
        assert polys._heuristic_gcd(a, b) == int_gcd_prs_oracle(a, b) == [3, 2]


PRIMES_TO_10K = [q for q in range(2, 10_000) if is_probable_prime(q)]


@st.composite
def powmod_inputs(draw):
    """(a, e, f, m): f monic of degree 1-60 mod m, and a base up to twice
    as long as f."""
    m = draw(st.one_of(st.sampled_from([2, 3]), st.sampled_from(PRIMES_TO_10K)))
    n = draw(st.integers(1, 60))
    residue = st.integers(0, m - 1)
    f = draw(st.lists(residue, min_size=n, max_size=n)) + [1]
    a = polys._fp_trim(draw(st.lists(residue, max_size=2 * n + 3)))
    e = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 10**6)))
    return a, e, f, m


class TestFusedModKernels:
    """The fused multiply-and-reduce step and the remainder with no quotient
    against a product mod m and then a division."""

    @settings(max_examples=200, deadline=None)
    @given(powmod_inputs())
    @example(([1, 1], 0, [1, 1], 2))
    @example(([2, 0, 1, 1], 1, [1, 1], 3))
    @example(([5, 3, 0, 0, 0, 0, 1], 1, [1, 2, 1], 9973))
    def test_powmod_matches_reference(self, case):
        a, e, f, m = case
        assert polys._fp_powmod(a, e, f, m) == fp_powmod_oracle(a, e, f, m)

    @settings(max_examples=200, deadline=None)
    @given(powmod_inputs())
    def test_mulmod_matches_reference(self, case):
        a, _, f, m = case
        b = list(reversed(a))
        assert polys._fp_mulmod(a, b, f, m) == polys._fp_divmod(polys._fp_mul(a, b, m), f, m)[1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3, 7, 9973, 7**5, 3**20]),
        st.lists(st.integers(0, 10**12), max_size=30),
        st.lists(st.integers(0, 10**12), min_size=1, max_size=12),
    )
    def test_remainder_matches_division(self, m, a, b):
        # any divisor with an invertible leading coefficient, mod a prime
        # or a prime power as in Hensel lifting
        a = polys._fp_trim([c % m for c in a])
        b = polys._fp_trim([c % m for c in b])
        assume(b and math.gcd(b[-1], m) == 1)
        assert polys._fp_rem(a, b, m) == polys._fp_divmod(a, b, m)[1]


class TestIntegerGcd:
    """The integer gcd and squarefree code against Euclid over Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(gcd_polys, gcd_polys)
    @example(Poly(), Poly())
    @example(Poly(), c(Fraction(-3, 2)))
    @example(c(Fraction(-3, 2)) * (X - c(1)) ** 2, Poly())
    def test_gcd_matches_oracle(self, a, b):
        assert poly_gcd(a, b) == poly_gcd_oracle(a, b)

    @settings(max_examples=300, deadline=None)
    @given(gcd_polys)
    @example(c(Fraction(-7, 3)) * (X - c(1)) ** 3 * (X**2 + X + c(1)) ** 2 * (c(2) * X + c(3)))
    def test_squarefree_part_and_decomposition_match_oracle(self, p):
        assert squarefree_part(p) == squarefree_part_oracle(p)
        assert_yun_matches_oracle(p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), max_size=6),
        st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(lambda b: b[-1] != 0),
        st.booleans(),
    )
    def test_exact_quotient_reports_inexact_division(self, a, b, multiply):
        if multiply:
            a = [int(x) for x in (Poly(a) * Poly(b)).coeffs]
        a = [int(x) for x in Poly(a).coeffs]  # no trailing zeros
        q = polys._exact_quotient(a, b)
        expected = poly_divmod_int(a, b) if len(a) >= len(b) else ([], a)
        if expected is None or any(expected[1]):
            assert q is None
        else:
            assert q == [int(x) for x in Poly(expected[0]).coeffs]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=4), max_size=2),
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.sampled_from([1, 2, 3, 6, 10, 30, -15]),
    )
    @example([], [-6, 0], 1)  # x^2 - 6: square mod 2 and mod 3, squarefree
    @example([[1, 1]], [0, 0, 0, 0], 6)  # 6x^4 (x + 1)^2: skips 2 and 3
    def test_squarefree_of_planted_squares_matches_oracle(self, planted, rest, lead):
        # planted factors appear squared; leads divisible by the first
        # primes and degrees up to 13, which let f' vanish mod primes up to
        # deg f, are the hard cases for a squarefree part and for Yun
        p = Poly(rest + [lead])
        for g in planted:
            p = p * Poly(g) ** 2
        assume(p.degree >= 1)
        f = p.int_coeffs()
        g = polys._int_gcd(f, polys._derivative(f))
        assert polys._int_squarefree(f) == polys._exact_quotient(f, g)
        assert squarefree_part(p) == squarefree_part_oracle(p)
        assert_yun_matches_oracle(p)


class TestIsolation:
    def test_no_real_roots(self):
        assert sturm_isolate(X**2 - X + c(1), DyadicInterval.make(-10, 10)) == []

    def test_two_roots_of_x2_minus_1(self):
        ivs = sturm_isolate(X**2 - c(1), DyadicInterval.make(-2, 2))
        assert len(ivs) == 2
        assert ivs[0].contains(Fraction(-1)) and ivs[1].contains(Fraction(1))

    def test_unique_root_of_cubic(self):
        ivs = sturm_isolate(X**3 + X**2 - c(1), DyadicInterval.make(0, 1))
        assert len(ivs) == 1
        lo, hi = bisect_oracle(X**3 + X**2 - c(1), 0, 1, Fraction(1, 10**10))
        assert ivs[0].lo <= lo and hi <= ivs[0].hi

    def test_isolation_soundness(self):
        # each interval carries Sturm count one; the counts add up over the
        # full range, and endpoints are never roots
        rng = random.Random(3)
        for _ in range(20):
            p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 7))])
            if p.degree < 1:
                continue
            span = DyadicInterval.make(-8, 8)
            ivs = sturm_isolate(p, span)
            chain = sturm_chain(p)
            total = 0
            for iv in ivs:
                assert p(iv.lo) != 0 and p(iv.hi) != 0
                assert sturm_point(chain, iv.lo)[1] - sturm_point(chain, iv.hi)[1] == 1
                total += 1
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi < b.lo
            assert total == count_roots_in(p, Fraction(-8), Fraction(8))

    def test_boundary_root_is_still_captured(self):
        ivs = sturm_isolate(X**2 - c(1), DyadicInterval.make(1, 2))
        assert len(ivs) == 1
        assert ivs[0].contains(Fraction(1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_isolate(Poly(), DyadicInterval.make(0, 1))


@st.composite
def sturm_inputs(draw):
    """Rational polynomials of degree 0..9 with a signed scalar, a power of
    x, rational roots of multiplicity up to 3 and an integer cofactor,
    itself squared at times: repeated, zero and irrational roots, and
    negative leading coefficients."""
    p = Poly.constant(draw(st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(bool)))
    factors = [X] * draw(st.integers(0, 3))
    roots = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    for r, m in draw(st.lists(st.tuples(roots, st.integers(1, 3)), max_size=3)):
        factors += [X - c(r)] * m
    cofactor = Poly(draw(st.lists(st.integers(-6, 6), max_size=5)))
    if cofactor.degree > 0:
        factors += [cofactor] * draw(st.integers(1, 2))
    for f in factors:
        if p.degree + f.degree <= 9:
            p = p * f
    return p


def sturm_points(p, extra):
    """Points to count at: roots of p and of its chain's members, and the
    extra points given."""
    pts = set(rational_roots(p)) | set(extra)
    for q in sturm_chain_oracle(p):
        if q.degree > 0:
            pts |= set(rational_roots(q))
    return sorted(pts)


# dyadic points, and points with other denominators
EXTRA_POINTS = st.lists(
    st.one_of(
        st.integers(-64, 64).map(lambda m: Fraction(m, 8)),
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
    ),
    max_size=8,
)


class TestIntegerSturmChain:
    """The integer chain against the rational one it replaced (the oracle):
    the same signs everywhere, so the same counts and isolations."""

    @settings(max_examples=150, deadline=None)
    @given(sturm_inputs())
    @example(Poly([0, 0, -3]))
    @example(-((X - c(1)) ** 3) * (X**2 - c(2)) ** 2)
    # remainders with negative leading coefficients that an odd number of
    # pseudo-division steps divide by, one with a degree gap
    @example(Poly([4, 0, 1, 0, 3]))
    @example(Poly([-2, -3, 0, 0, -4]))
    def test_elements_are_primitive_positive_multiples(self, p):
        chain, oracle = sturm_chain(p), sturm_chain_oracle(p)
        assert len(chain) == len(oracle)
        assert chain[0][-1] > 0
        for q, o in zip(chain, oracle):
            g = 0
            for v in q:
                g = math.gcd(g, v)
            assert g == 1
            ratio = q[-1] / o.leading
            assert ratio > 0 and Poly(q) == o.scale(ratio)

    @settings(max_examples=150, deadline=None)
    @given(sturm_inputs(), EXTRA_POINTS)
    @example(X**3 * (X - c(Fraction(1, 3))) ** 2 * (X**2 - c(2)), [Fraction(-3, 2), Fraction(7, 5)])
    def test_counts_agree_with_oracle(self, p, extra):
        chain, oracle = sturm_chain(p), sturm_chain_oracle(p)
        pts = sturm_points(p, extra)
        for x in pts:
            v = oracle[0](x)
            assert sturm_point(chain, x)[0] == (v > 0) - (v < 0)
        for i, lo in enumerate(pts):
            for hi in pts[i:]:
                n = sturm_count_oracle(oracle, lo, hi)
                assert sturm_point(chain, lo)[1] - sturm_point(chain, hi)[1] == n
                if p.degree > 0:
                    assert count_roots_in(p, lo, hi) == n + (oracle[0](lo) == 0)

    @settings(max_examples=100, deadline=None)
    @given(
        sturm_inputs(),
        st.sampled_from([(-8, 8), (0, 1), (-1, Fraction(1, 2)), (Fraction(-3, 8), Fraction(5, 4)), (1, 1)]),
    )
    @example((X - c(1)) ** 2 * X * (X - c(Fraction(1, 2))), (0, 1))
    def test_isolation_matches_oracle(self, p, span):
        span = DyadicInterval.make(*span)
        assert sturm_isolate(p, span) == sturm_isolate_oracle(p, span)


class TestIsolationWork:
    def test_each_point_evaluated_once(self, monkeypatch):
        # roots on the span's end (-4), on its midpoint (0) and close
        # together (1/2, 5/8), which the halving refines and shrinks apart
        p = (X + c(4)) * X * (X - c(Fraction(1, 2))) * (X - c(Fraction(5, 8))) * (X**2 - c(2))
        horner = polys.horner
        calls = []

        def counted(cs, num, den):
            calls.append((tuple(cs), num, den))
            return horner(cs, num, den)

        monkeypatch.setattr(polys, "horner", counted)
        ivs = sturm_isolate(p, DyadicInterval.make(-4, 4))
        assert len(ivs) == 6
        # every chain member at every point the isolation visits, once
        points = {(num, den) for _, num, den in calls}
        assert len(calls) == len(set(calls)) == len(points) * len(sturm_chain(p))


class TestRefineRoot:
    def test_cubic_to_twelve_digits(self):
        p = X**3 + X**2 - c(1)
        [iv] = sturm_isolate(p, DyadicInterval.make(0, 1))
        r = refine_root(p, iv, Fraction(1, 10**12))
        assert r.width <= Fraction(1, 10**12)
        assert Fraction("0.754877666") <= r.lo and r.hi <= Fraction("0.754877667")

    def test_rational_root(self):
        r = refine_root(Poly([-1, 2]), DyadicInterval.make(0, 1), Fraction(1, 1000))
        assert r.contains(Fraction(1, 2)) and r.width <= Fraction(1, 1000)

    def test_sqrt2(self):
        p = X**2 - c(2)
        r = refine_root(p, DyadicInterval.make(1, 2), Fraction(1, 10**6))
        assert r.width <= Fraction(1, 10**6)
        lo, hi = bisect_oracle(p, 1, 2, Fraction(1, 10**8))
        # the refined interval must contain the root located independently
        assert r.lo <= hi and lo <= r.hi
        assert r.lo >= Fraction("1.414212") and r.hi <= Fraction("1.414215")

    @pytest.mark.parametrize("width", [Fraction(1, 3), Fraction(1, 10**12)])
    @pytest.mark.parametrize("p", [X**3 + X**2 - c(1), X**2 - c(2), -(X**5) + X - c(Fraction(1, 3))])
    def test_non_dyadic_width_matches_oracle(self, p, width):
        for iv in sturm_isolate(p, DyadicInterval.make(-4, 4)):
            r = refine_root(p, iv, width)
            assert (r.lo, r.hi) == bisect_oracle(p, iv.lo, iv.hi, width)

    @pytest.mark.parametrize("width", [0, Fraction(-1, 8)])
    def test_non_positive_width_rejected(self, width):
        p = X**3 + X**2 - c(1)
        [iv] = sturm_isolate(p, DyadicInterval.make(0, 1))
        with pytest.raises(ValueError, match="width must be positive"):
            refine_root(p, iv, width)

    def test_rejects_non_isolating(self):
        with pytest.raises(ValueError):
            refine_root(X**2 - c(1), DyadicInterval.make(-2, 2), Fraction(1, 4))


class TestBisectRoot:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=3, max_size=3),
        st.integers(1, 20),
        st.integers(0, 40),
    )
    def test_agrees_with_oracle_on_squarefree_cubics(self, low, lead, bits):
        p = Poly(low + [lead])
        assume(poly_gcd(p, p.derivative()).degree == 0)
        width = Fraction(1, 1 << bits)
        # the Cauchy bound of these cubics is at most 21
        for iv in sturm_isolate(p, DyadicInterval.make(-32, 32)):
            q = p if p(iv.lo) < 0 else -p

            def side(m, e):
                return q(Fraction(m, 1 << e))

            assert bisect_root(side, iv.lo, iv.hi, width) == bisect_oracle(p, iv.lo, iv.hi, width)

    def test_midpoint_root(self):
        def side(m, e):
            return horner([-3, 4], m, 1 << e)

        assert bisect_root(side, Fraction(0), Fraction(1), Fraction(1, 64)) == (
            Fraction(3, 4),
            Fraction(3, 4),
        )


def oriented_sides(p, lo):
    """Two sides for bisect_root on the integer form of p, negative at lo:
    exact scaled values (`horner` at dyadic points) and their signs alone."""
    cs = p.int_coeffs()
    if p(lo) > 0:
        cs = [-v for v in cs]

    def exact(m, e):
        return horner(cs, m, 1 << e)

    def sign_only(m, e):
        v = horner(cs, m, 1 << e)
        return (v > 0) - (v < 0)

    return exact, sign_only


WIDTHS = st.one_of(
    st.integers(0, 300).map(lambda bits: Fraction(1, 1 << bits)),
    st.sampled_from([Fraction(1, 3), Fraction(1, 10**12), Fraction(5, 7), Fraction(3, 2**200)]),
)


class TestQuadraticRefinement:
    """bisect_root refines quadratically but must end on the very cell, or
    grid-point root, that plain bisection finds, for exact and sign-only
    sides alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=6), st.integers(1, 9), WIDTHS)
    @example([-2, 0], 1, Fraction(1, 3))
    @example([-1, 0, 1], 1, Fraction(1, 10**12))
    def test_isolated_roots_match_bisection(self, low, lead, width):
        p = Poly(low + [lead])
        assume(poly_gcd(p, p.derivative()).degree == 0)
        # the Cauchy bound of these polynomials is at most 31
        for iv in sturm_isolate(p, DyadicInterval.make(-64, 64)):
            expected = bisect_oracle(p, iv.lo, iv.hi, width)
            for side in oriented_sides(p, iv.lo):
                assert bisect_root(side, iv.lo, iv.hi, width) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(-(10**6), 10**6),
        st.one_of(st.integers(0, 12).map(lambda j: 1 << j), st.integers(1, 999)),
        st.integers(0, 8),
        st.integers(0, 50),
        st.integers(0, 50),
        WIDTHS,
    )
    @example(1, 3, 0, 0, 0, Fraction(1, 3))
    @example(-7, 1024, 2, 5, 0, Fraction(1, 10**12))
    def test_rational_root_in_any_dyadic_bracket(self, num, den, e, below, above, width):
        # one real root num/den in [lo, hi], whose width need not be a
        # power of two; a dyadic root can be a point of the bisection grid
        r = Fraction(num, den)
        p = Poly([-r.numerator, r.denominator]) * Poly([1, 0, 1])
        scaled = r * (1 << e)
        lo = Fraction(-((-scaled.numerator) // scaled.denominator) - 1 - below, 1 << e)
        hi = Fraction(scaled.numerator // scaled.denominator + 1 + above, 1 << e)
        expected = bisect_oracle(p, lo, hi, width)
        for side in oriented_sides(p, lo):
            assert bisect_root(side, lo, hi, width) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 100), st.data())
    def test_grid_point_root(self, level, extra, data):
        # g is a point of level `level` of [0, 1]'s bisection grid, which
        # refinement to 2^-(level + extra) walks past
        g = Fraction(2 * data.draw(st.integers(0, (1 << (level - 1)) - 1)) + 1, 1 << level)
        p = Poly([-g.numerator, g.denominator]) * Poly([2, -1, 3])
        for side in oriented_sides(p, Fraction(0)):
            assert bisect_root(side, Fraction(0), Fraction(1), Fraction(1, 1 << (level + extra))) == (g, g)

    def test_no_evaluation_at_bracket_ends(self):
        cs = (X**3 + X**2 - c(1)).int_coeffs()
        seen = []

        def side(m, e):
            seen.append(Fraction(m, 1 << e))
            return horner(cs, m, 1 << e)

        bisect_root(side, Fraction(1, 2), Fraction(1), Fraction(1, 2**300))
        # only interior grid points, each once
        assert seen and all(Fraction(1, 2) < x < 1 for x in seen)
        assert len(set(seen)) == len(seen)


class TestDyadicHorner:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8),
        st.integers(-(10**9), 10**9),
        st.integers(0, 80),
    )
    @example([7], -5, 3)
    @example([2, -3, 1], -7, 0)
    def test_scaled_value(self, coeffs, m, e):
        n = len(coeffs) - 1
        assert horner(coeffs, m, 1 << e) == 2 ** (e * n) * fraction_horner_oracle(Poly(coeffs), Fraction(m, 2**e))


    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-(10**30), 10**30), min_size=0, max_size=9),
        st.integers(-(10**9), 10**9),
        st.integers(0, 120),
        st.integers(0, 120),
    )
    @example([5, -1, 3], 0, 0, 7)
    @example([], 12, 3, 2)
    @example([4], -8, 0, 5)
    @example([1, 2, 3, 4], -3, 40, 9)
    def test_reduced_point_matches_unreduced_loop(self, coeffs, odd, shift, e):
        # m = odd * 2^shift has trailing zeros beyond e as well as below it
        m = odd << shift
        assert horner(coeffs, m, 1 << e) == dyadic_horner_oracle(coeffs, m, e)


class TestRationalHorner:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8),
        st.integers(-(10**9), 10**9),
        st.integers(1, 10**9),
    )
    @example([7], -5, 3)
    @example([2, -3, 1], 2, 1)
    def test_scaled_value_at_any_rational(self, coeffs, num, den):
        n = len(coeffs) - 1
        assert horner(coeffs, num, den) == den**n * fraction_horner_oracle(Poly(coeffs), Fraction(num, den))


class TestPolyCall:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.fractions(max_denominator=10**4).map(lambda q: q * 7), max_size=9),
        st.one_of(st.fractions(max_denominator=10**9), st.integers(-(10**6), 10**6)),
    )
    @example([], Fraction(1, 3))
    @example([Fraction(5, 3)], 0)
    @example([0, Fraction(25, 32), 0, 0, 0, 0, Fraction(7, 32)], Fraction(-37, 64))
    def test_matches_fraction_horner(self, coeffs, x):
        p = Poly(coeffs)
        expected = fraction_horner_oracle(p, x)
        assert p(x) == expected and p(x) == expected
        assert isinstance(p(x), Fraction)


class TestRationalRoots:
    def test_cubic_has_none(self):
        assert rational_roots(X**3 + X**2 - c(1)) == []

    def test_half(self):
        assert rational_roots(Poly([-1, 2])) == [Fraction(1, 2)]

    def test_zero_and_one(self):
        assert rational_roots(X**2 - X) == [Fraction(0), Fraction(1)]

    def test_candidates_and_exactness(self):
        rng = random.Random(19)
        for _ in range(30):
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
            if p.is_zero:
                continue
            for r in rational_roots(p):
                assert p(r) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 2)), max_size=4
        ),
        st.lists(st.integers(-40, 40), min_size=1, max_size=4),
        st.integers(0, 2),
        st.sampled_from([1, -1, 2, -3, 6]),
    )
    @example([(2, 3, 2), (-1, 1, 1)], [5], 0, -1)
    @example([(0, 1, 2)], [1, 1], 1, 1)
    def test_against_divisor_oracle(self, linears, cofactor, zeros, scale):
        # products of linear factors (repeated, zero or not) and a random
        # cofactor, with either sign of leading coefficient
        p = Poly.monomial(zeros, scale) * Poly(cofactor)
        for n, d, k in linears:
            p = p * Poly([-n, d]) ** k
        assume(not p.is_zero)
        assert rational_roots(p) == rational_roots_oracle([int(v) for v in p.coeffs])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-(10**4), 10**4), st.integers(1, 10**4), st.integers(1, 3)),
            max_size=3,
        ),
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7),
    )
    def test_against_sympy(self, linears, cofactor):
        sympy = pytest.importorskip("sympy")
        p = Poly(cofactor)
        for n, d, k in linears:
            p = p * Poly([-n, d]) ** k
        assume(not p.is_zero)
        poly = sympy.Poly([int(v) for v in reversed(p.coeffs)], sympy.Symbol("x"))
        expected = sorted(
            {
                Fraction(-int(b), int(a))
                for f, _ in poly.factor_list()[1]
                if f.degree() == 1
                for a, b in [f.all_coeffs()]
            }
        )
        assert rational_roots(p) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(-(10**4), 10**4), st.integers(0, 3))
    @example(1, 2, 0)
    def test_squarefree_core_passes_over_multiple_roots_mod_q(self, lead, b, shift):
        # lead*(x + shift)^5 + lead*(x + shift) - b has a double root mod 3
        # for most b; the search must move to the next prime, never call
        # squarefree_part, and take the integer squarefree part at most once
        p = (Poly([shift, 1]) ** 5 + Poly([shift, 1])).scale(lead) - c(b)
        assume(poly_gcd(p, p.derivative()).degree == 0)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cakelab.polys.squarefree_part", None)
            original = polys._int_squarefree
            mp.setattr(polys, "_int_squarefree", lambda f: seen.append(f) or original(f))
            roots = rational_roots(p)
        assert roots == rational_roots_oracle([int(v) for v in p.coeffs])
        assert len(seen) <= 1

    def test_repeated_factor_ends(self):
        # (x + 1)^2 has a double root mod every prime: the search switches
        # once to the squarefree part instead of trying primes forever
        assert rational_roots(Poly([1, 2, 1])) == [Fraction(-1)]
        p = Poly([-2, 3]) ** 3 * (X**2 - c(2)) ** 2 * X
        assert rational_roots(p) == [Fraction(0), Fraction(2, 3)]

    def test_semiprime_constant(self):
        # the constant's prime factors have 61 and 89 bits: factoring it
        # took minutes, lifting takes milliseconds
        m = (2**61 - 1) * (2**89 - 1)
        assert rational_roots(X**3 - c(m)) == []
        assert rational_roots(X**3 - c(8 * m**3)) == [Fraction(2 * m)]


class TestRootBound:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
            min_size=1,
            max_size=9,
        )
    )
    @example([Fraction(0), Fraction(1)])  # x: the bound is 1
    @example([Fraction(-3), Fraction(1)])  # x - 3: 1 + 3 is a power of two
    @example([Fraction(1, 3), Fraction(0), Fraction(2, 3)])  # 1 + 1/2 rounds up to 2
    def test_matches_doubling_oracle(self, coeffs):
        p = Poly(coeffs)
        bound = root_bound(p)
        assert bound == root_bound_oracle(p)
        if p.degree >= 1:
            assert count_roots_in(p, -bound, bound) == count_roots_in(p, -(2**40), 2**40)
