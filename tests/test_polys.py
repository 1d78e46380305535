import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cakelab import DyadicInterval, Poly, ZeroPolynomialError, poly_gcd, rational_roots
from cakelab.polys import (
    bisect_root,
    count_roots_in,
    dyadic_horner,
    refine_root,
    resultant,
    squarefree_decomposition,
    sturm_chain,
    sturm_count,
    sturm_isolate,
)

from _oracle import rational_roots_oracle

X = Poly.x()


def c(v):
    return Poly.constant(v)


def bisect_oracle(p, lo, hi, width):
    """Independent sign-change bisection for cross-checking refinement."""
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
        parts = squarefree_decomposition(p)
        rebuilt = Poly.constant(1)
        for g, m in parts:
            rebuilt = rebuilt * g**m
        assert rebuilt.monic() == p.monic()
        assert sorted(m for _, m in parts) == [1, 2, 3]

    def test_translate_and_reverse(self):
        p = X**3 - c(2) * X + c(5)
        assert p.translate(Fraction(1, 2))(Fraction(1, 2)) == p(1)
        assert p.reverse().reverse() == p

    def test_resultant_shares_root_iff_zero(self):
        assert resultant(X**2 - c(1), X - c(1)) == 0
        assert resultant(X**2 - c(2), X**2 - c(3)) != 0


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
                assert sturm_count(chain, iv.lo, iv.hi) == 1
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
            return dyadic_horner([-3, 4], m, e)

        assert bisect_root(side, Fraction(0), Fraction(1), Fraction(1, 64)) == (
            Fraction(3, 4),
            Fraction(3, 4),
        )


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
        assert dyadic_horner(coeffs, m, e) == 2 ** (e * n) * Poly(coeffs)(Fraction(m, 2**e))


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

    def test_semiprime_constant(self):
        # the constant's prime factors have 61 and 89 bits: factoring it
        # took minutes, lifting takes milliseconds
        m = (2**61 - 1) * (2**89 - 1)
        assert rational_roots(X**3 - c(m)) == []
        assert rational_roots(X**3 - c(8 * m**3)) == [Fraction(2 * m)]
