import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakelab import (
    DegreeCapExceeded,
    Eisenstein,
    Poly,
    ZeroPolynomialError,
    eisenstein,
    factor_over_Q,
    is_irreducible,
    rational_roots,
)
from cakelab.factoring import kronecker_find_factor, modp_irreducible
from cakelab.ints import coprime_base, factor_positive

from _oracle import is_perfect_power, oracle_factor

X = Poly.x()


def c(v):
    return Poly.constant(v)


class TestFactorPositive:
    def test_factors(self):
        assert factor_positive(1) == {}
        assert factor_positive(360) == {2: 3, 3: 2, 5: 1}

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            factor_positive(n)


class TestCoprimeBase:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.sampled_from([2, 3, 5, 6, 10, 12, 15, 49, 2**61 - 1, 2**61 + 1]),
                        st.integers(0, 5),
                    ),
                    max_size=4,
                ),
                st.sampled_from([1, -1]),
            ),
            max_size=5,
        )
    )
    @example([([(2, 70)], 1), ([(6, 2), (10, 3)], -1)])
    def test_properties(self, specs):
        ns = []
        for parts, sign in specs:
            n = sign
            for b, e in parts:
                n *= b**e
            ns.append(n)
        base = coprime_base(ns)
        assert base == sorted(base) and all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
        assert not any(is_perfect_power(b) for b in base)
        for n in ns:
            n = abs(n)
            for b in base:
                while n % b == 0:
                    n //= b
            assert n == 1

    def test_units_and_zero(self):
        assert coprime_base([1, -1]) == []
        with pytest.raises(ValueError):
            coprime_base([3, 0])


class TestEisenstein:
    def test_direct(self):
        assert eisenstein(X**2 - c(3), 3) is Eisenstein.IRREDUCIBLE_CERTIFIED

    def test_reversal(self):
        # 3T^2 - 1 reverses to T^2 - 3, Eisenstein at 3
        assert eisenstein(Poly([-1, 0, 3]), 3, try_reversal=True) is Eisenstein.IRREDUCIBLE_CERTIFIED
        assert eisenstein(Poly([-1, 0, 3]), 3) is Eisenstein.INCONCLUSIVE

    def test_inconclusive(self):
        assert eisenstein(X**2 - c(1), 2) is Eisenstein.INCONCLUSIVE

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            eisenstein(X**2 - c(4), 4)

    def test_never_certifies_reducible(self):
        # a certificate on a product would be unsound; check on random products
        rng = random.Random(23)
        for _ in range(40):
            a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
            b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
            if a.degree < 1 or b.degree < 1:
                continue
            prod = a * b
            if rational_roots(prod):
                # reducibility is visible anyway; the stronger claim below
                # still must hold
                pass
            for q in (2, 3, 5, 7):
                assert eisenstein(prod, q, try_reversal=True) is Eisenstein.INCONCLUSIVE


class TestModularProbe:
    def test_certifies_known_irreducible(self):
        assert modp_irreducible(X**2 + X + c(1), 2)
        assert modp_irreducible(X**10 + X - c(1), 17)

    def test_rejects_degree_drop(self):
        assert not modp_irreducible(Poly([1, 1, 2]), 2)

    def test_reducible_input(self):
        assert not modp_irreducible(X**2 - c(1), 5)


class TestFactor:
    def test_quintic_trinomial(self):
        fac = factor_over_Q(X**5 + X - c(1))
        assert [(str(f), m) for f, m in fac.factors] == [
            ("x^2 - x + 1", 1),
            ("x^3 + x^2 - 1", 1),
        ]
        assert fac.content == 1

    def test_degree_eleven_trinomial(self):
        p = X**11 + X - c(1)
        fac = factor_over_Q(p)
        assert fac.degrees() == [2, 9]
        quad = next(f for f, _ in fac.factors if f.degree == 2)
        assert quad == X**2 - X + c(1)
        # confirm by exact division
        cofactor = p.exact_div(quad)
        assert (cofactor, 1) in fac.factors

    def test_difference_of_squares(self):
        fac = factor_over_Q(X**2 - c(1))
        assert [(str(f), m) for f, m in fac.factors] == [("x - 1", 1), ("x + 1", 1)]

    def test_multiplicities_and_content(self):
        p = (X - c(1)) ** 2 * Poly([3, 2]) * c(Fraction(5, 7))
        fac = factor_over_Q(p)
        assert fac.reconstruct() == p
        assert dict((str(f), m) for f, m in fac.factors) == {"x - 1": 2, "2*x + 3": 1}
        assert fac.content == Fraction(5, 7)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            factor_over_Q(Poly())

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded) as ei:
            factor_over_Q(X**13 + X - c(1))
        assert ei.value.cap == 12

    def test_cap_override(self):
        fac = factor_over_Q(X**13 - c(1), cap=13)
        assert fac.reconstruct() == X**13 - c(1)

    def test_kronecker_finds_quadratic(self):
        p = (X**2 + X + c(1)) * (X**2 - X + c(3))
        g = kronecker_find_factor(p.int_coeffs(), 2)
        assert g is not None
        assert Poly(g).divides(p)

    def test_irreducible_pipeline(self):
        assert is_irreducible(X**3 + X**2 - c(1))
        assert not is_irreducible(X**5 + X - c(1))


class TestOracleAgreement:
    def test_reconstruction_and_oracle(self):
        rng = random.Random(101)
        checked = 0
        while checked < 60:
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(2, 7))]
            p = Poly(coeffs)
            if p.degree < 1:
                continue
            checked += 1
            fac = factor_over_Q(p)
            assert fac.reconstruct() == p
            ours = sorted(
                (tuple(int(x) for x in f.coeffs), m) for f, m in fac.factors
            )
            assert ours == oracle_factor(coeffs)
