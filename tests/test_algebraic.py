import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakelab import AlgebraicNumber, Measure, Poly, Session, nth_root
from cakelab.algebraic import _CutRootAtom

X = Poly.x()


def c(v):
    return Poly.constant(v)


def t_star():
    return AlgebraicNumber.real_root(X**3 + X**2 - c(1), 0, 1)


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

    def test_field_axioms(self):
        rng = random.Random(5)
        values = [
            AlgebraicNumber(Fraction(3, 7)),
            nth_root(2, 2),
            nth_root(Fraction(1, 2), 5),
            t_star(),
        ]
        for a in values:
            for b in values:
                assert ((a + b) - b - a).sign() == 0
                if b.sign() != 0:
                    assert ((a * b) / b - a).sign() == 0

    def test_rational_folding(self):
        v = AlgebraicNumber(Fraction(1, 3)) + Fraction(2, 3)
        assert v.as_rational() == 1


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

    def test_deep_identity(self):
        t = t_star()
        assert (t**5 + t - 1).sign() == 0  # t^5+t-1 = (t^2-t+1)(t^3+t^2-1)


class TestMinpoly:
    def test_examples(self):
        assert str(nth_root(Fraction(1, 2), 5).minimal_polynomial()) == "2*x^5 - 1"
        assert str((nth_root(2, 2) + 0).minimal_polynomial()) == "x^2 - 2"
        assert str(t_star().minimal_polynomial()) == "x^3 + x^2 - 1"

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
