import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakelab import (
    AlgebraicNumber,
    Measure,
    MembershipUndecidable,
    Poly,
    Tower,
    cut_and_choose,
    degree_obstruction,
    nth_root,
)
from cakelab.tower import _radical_group_member

from _oracle import radical_degree_oracle

A = AlgebraicNumber


class TestDegreeObstruction:
    def test_examples(self):
        assert degree_obstruction(3, {5}) is True
        assert degree_obstruction(3, {2, 5}) is True
        assert degree_obstruction(4, {2}) is False

    def test_against_integer_factorization(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 10**6)
            primes = set(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4)))
            expected_rem = n
            for p in primes:
                while expected_rem % p == 0:
                    expected_rem //= p
            assert degree_obstruction(n, primes) == (expected_rem != 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            degree_obstruction(0, {2})


class TestAdjoin:
    def test_fifth_root_over_rationals(self):
        tw = Tower()
        step = tw.adjoin(nth_root(Fraction(1, 2), 5), claimed_radical=(5, A(Fraction(1, 2))))
        assert step.degree == 5 and step.kind_label() == "radical^5"
        assert tw.total_degree == 5

    def test_rational_is_trivial(self):
        tw = Tower()
        step = tw.adjoin(A(Fraction(1, 2)))
        assert step.degree == 1 and step.kind_label() == "trivial"

    def test_re_adjoining_is_trivial(self):
        tw = Tower()
        fifth = nth_root(Fraction(1, 2), 5)
        tw.adjoin(fifth, claimed_radical=(5, A(Fraction(1, 2))))
        step = tw.adjoin(fifth, claimed_radical=(5, A(Fraction(1, 2))))
        assert step.degree == 1
        assert tw.total_degree == 5

    def test_false_radical_witness_rejected(self):
        tw = Tower()
        with pytest.raises(ValueError):
            tw.adjoin(nth_root(2, 2), claimed_radical=(2, A(3)))

    def test_dependent_radical_partial_degree(self):
        # the fourth root of 4 is the square root of 2
        tw = Tower()
        step = tw.adjoin(nth_root(4, 4), claimed_radical=(4, A(4)))
        assert step.degree == 2

    def test_multiplicativity_with_primitive(self):
        # total degree must match the primitive element's minpoly degree
        tw = Tower()
        tw.adjoin(nth_root(2, 2), claimed_radical=(2, A(2)))
        tw.adjoin(nth_root(3, 2), claimed_radical=(2, A(3)))
        assert tw.total_degree == 4
        assert tw.primitive_minpoly().degree == 4
        prod = 1
        for s in tw.steps:
            prod *= s.degree
        assert prod == tw.total_degree

    def test_independent_quintic_radicals(self):
        # degree 25 total stays decidable through the lattice route
        tw = Tower()
        s1 = tw.adjoin(nth_root(Fraction(1, 3), 5), claimed_radical=(5, A(Fraction(1, 3))))
        s2 = tw.adjoin(
            nth_root(Fraction(122, 243), 5), claimed_radical=(5, A(Fraction(122, 243)))
        )
        assert (s1.degree, s2.degree) == (5, 5)
        assert tw.total_degree == 25

    def test_general_route_trivial_readjunction(self):
        tw = Tower()
        r2 = nth_root(2, 2)
        tw.adjoin(r2, claimed_radical=(2, A(2)))
        # an algebraic combination already inside the field
        step = tw.adjoin(r2 + Fraction(1, 3))
        assert step.degree == 1

    def test_quadratic_roots_ride_the_lattice(self):
        # golden section: canonicalized to a linear form of sqrt(5), so the
        # tower stays on the rational-radical route and an independent
        # quintic afterwards still gets its exact degree
        golden = AlgebraicNumber.real_root(Poly([-1, 1, 1]), 0, 1)
        tw = Tower()
        s1 = tw.adjoin(golden)
        assert s1.degree == 2
        s2 = tw.adjoin(golden * 3 + Fraction(1, 7))
        assert s2.degree == 1
        s3 = tw.adjoin(nth_root(Fraction(1, 2), 5), claimed_radical=(5, A(Fraction(1, 2))))
        assert s3.degree == 5
        assert tw.total_degree == 10


def _radicand(parts):
    out = Fraction(1)
    for b, e in parts:
        out *= Fraction(b) ** e
    return out


# products of powers of primes, composites sharing them and perfect powers
_RADICANDS = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 6, 10, 12, 15, 36, 7]), st.integers(-6, 6)), max_size=4
).map(_radicand)
_GENS = st.lists(st.tuples(_RADICANDS, st.integers(2, 6)), max_size=3)


class TestRadicalDegree:
    @settings(max_examples=150, deadline=None)
    @given(_RADICANDS, st.integers(2, 12), _GENS)
    @example(Fraction(2**35), 4, [])
    @example(Fraction(6), 6, [(Fraction(12), 2), (Fraction(3), 3)])
    def test_against_prime_oracle(self, b, d, gens):
        tw = Tower()
        tw._rational_radical_gens = gens
        expected = radical_degree_oracle(b, d, gens)
        assert tw._radical_degree(b, d) == expected
        assert _radical_group_member(b, d, gens) == (expected == 1)

    def test_semiprime_radicands(self):
        # factoring M61 * M89 took minutes; the coprime base needs gcds only
        m = (2**61 - 1) * (2**89 - 1)
        tw = Tower()
        assert tw.adjoin(nth_root(m, 3), claimed_radical=(3, A(m))).degree == 3
        assert tw.adjoin(nth_root(8 * m, 3), claimed_radical=(3, A(8 * m))).degree == 1
        assert tw.is_pth_power(A(27 * m**2), 3) is True


class TestIsPthPower:
    def test_rational_power(self):
        assert Tower().is_pth_power(A(Fraction(1, 32)), 5) is True

    def test_rational_nonpower(self):
        assert Tower().is_pth_power(A(Fraction(1, 2)), 5) is False

    def test_power_in_extension(self):
        tw = Tower()
        tw.adjoin(nth_root(2, 5), claimed_radical=(5, A(2)))
        # 4^(1/5) = (2^(1/5))^2 lies in the field
        assert tw.is_pth_power(A(4), 5) is True
        assert tw.is_pth_power(A(3), 5) is False

    def test_negative_even_rejected(self):
        with pytest.raises(ValueError):
            Tower().is_pth_power(A(-2), 2)

    def test_zero_is_a_power(self):
        assert Tower().is_pth_power(A(0), 3) is True
        tw = Tower()
        tw.adjoin(nth_root(2, 5), claimed_radical=(5, A(2)))
        assert tw.is_pth_power(A(0), 2) is True


class TestLemma1Report:
    def test_cut_and_choose_trace(self):
        run = cut_and_choose(Measure.make(Poly.x(), "a"), Measure.make(Poly.monomial(5), "b"))
        rep = run.transcript.tower.verify_lemma1(5)
        assert rep.passed
        assert all(deg in (1, 5) for _, deg, _, _ in rep.entries)

    def test_empty_tower_passes(self):
        assert Tower().verify_lemma1(5).passed

    def test_manual_sqrt_fails(self):
        tw = Tower()
        tw.adjoin(nth_root(Fraction(1, 3), 5), claimed_radical=(5, A(Fraction(1, 3))))
        tw.adjoin(nth_root(2, 2), claimed_radical=(2, A(2)))
        rep = tw.verify_lemma1(5)
        assert not rep.passed
        assert [tw.steps[i].degree for i in rep.violations] == [2]


class TestMediatorSqrt:
    def test_disabled_by_default(self):
        with pytest.raises(MembershipUndecidable):
            Tower().adjoin_mediator_sqrt(A(2))

    def test_enabled(self):
        tw = Tower(allow_mediator_sqrt=True)
        step = tw.adjoin_mediator_sqrt(A(2))
        assert step.degree == 2 and step.kind_label() == "sqrt"
        rep = tw.verify_lemma1(5)
        assert not rep.passed  # degree 2 outside {1, 5}

    def test_dump_format(self):
        tw = Tower(allow_mediator_sqrt=True)
        tw.adjoin(nth_root(Fraction(1, 2), 5), claimed_radical=(5, A(Fraction(1, 2))), source="#0")
        tw.adjoin(A(Fraction(1, 4)), source="#1")
        tw.adjoin_mediator_sqrt(A(3))
        lines = tw.dump().splitlines()
        assert lines[0] == "step 0: deg=5 kind=radical^5 source=#0"
        assert lines[1] == "step 1: deg=1 kind=trivial source=#1"
        assert lines[2] == "step 2: deg=2 kind=sqrt source=mediator-sqrt"
