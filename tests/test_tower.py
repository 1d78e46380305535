import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cakelab import (
    AlgebraicNumber,
    DegreeCapExceeded,
    Measure,
    MembershipUndecidable,
    Poly,
    Tower,
    TowerCertificateError,
    cut_and_choose,
    degree_obstruction,
    even_paz,
    nth_root,
    run_protocol,
)
from cakelab import algebraic, tower
from cakelab.cake import _increasing_preimage, poly_at
from cakelab.ints import primes
from cakelab.parsing import parse_measures
from cakelab.polys import _fp_gcd, _fp_trim, _image_ddf, _modp_ddf, _modp_roots, _monic_mod, _pattern
from cakelab.tower import _pattern_mod, _radical_degree

from conftest import time_limit
from _oracle import (
    ChainCacheOracle,
    compositum_step_degrees,
    fp_ddf_oracle,
    prime_exponents,
    radical_degree_oracle,
    radical_word_oracle,
    simple_roots_oracle,
)

A = AlgebraicNumber


def _ledger(tw):
    """A snapshot of every field of every step: the whole of the tower's
    state."""
    return [dict(vars(s)) for s in tw.steps]


class TestDegreeObstruction:
    def test_examples(self):
        assert degree_obstruction(3, {5}) is True
        assert degree_obstruction(3, {2, 5}) is True
        assert degree_obstruction(4, {2}) is False
        # 1 is no prime and divides nothing away; the answer takes no loop
        with time_limit(1):
            assert degree_obstruction(3, {1}) is True

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


class TestMayCertify:
    def test_binomials_against_prime_exponents(self):
        # a binomial t^d - 2 may certify at p when every prime of d divides
        # p - 1, and 4 divides p - 1 when it divides d
        ps = list(itertools.islice(primes(), 300))
        for d in range(1, 1001):
            rel = tower.RelativePoly(None, Poly([-2] + [0] * (d - 1) + [1]))
            qs = prime_exponents(d)
            for p in ps:
                expected = d < 2 or (all((p - 1) % q == 0 for q in qs) and (d % 4 != 0 or p % 4 == 1))
                assert rel.may_certify(p) == expected, (d, p)


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

    def test_radical_witness_of_an_irrational_target_needs_no_zero_test(self, monkeypatch):
        # the claimed cube root of sqrt(2) + 1/5, cubed, is its target node
        # again, so the witness holds by construction: a zero test would
        # compare minimal polynomials by elimination, past the cap in
        # larger towers
        target = nth_root(2, 2) + Fraction(1, 5)
        value = target.root(3)

        def no_zero_test(*args, **kwargs):
            raise AssertionError("the radical witness ran a zero test")

        monkeypatch.setattr(algebraic, "_equal_values", no_zero_test)
        with algebraic.count_ops([0]) as ticks:
            step = Tower().adjoin(value, claimed_radical=(3, target))
        assert step.degree == 6 and step.kind_label() == "radical^3"
        assert ticks == [4]  # value^3 as two products, then the difference

    def test_dependent_radical_partial_degree(self):
        # the fourth root of 4 is the square root of 2
        tw = Tower()
        step = tw.adjoin(nth_root(4, 4), claimed_radical=(4, A(4)))
        assert step.degree == 2

    def test_multiplicativity_with_primitive(self):
        # total degree must match the degree of a primitive element
        tw = Tower()
        values = [nth_root(2, 2), nth_root(3, 2)]
        tw.adjoin(values[0], claimed_radical=(2, A(2)))
        tw.adjoin(values[1], claimed_radical=(2, A(3)))
        assert tw.total_degree == 4
        assert math.prod(compositum_step_degrees(values)) == 4
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

    @pytest.mark.degree_cap(12)
    def test_empty_tower_past_the_cap_raises(self):
        # over Q the step degree is the minimal polynomial's degree, here
        # 16: past the cap the adjunction raises and appends nothing
        tw = Tower()
        with pytest.raises(DegreeCapExceeded, match=r"degree 16 .*\(add elimination\)"):
            tw.adjoin(nth_root(2, 4) + nth_root(3, 4))
        assert tw.steps == []


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


def _signed(radical):
    """(r, d) with r negated, when d is odd, on a drawn flag."""
    (r, d), negative = radical
    return (-r if negative and d % 2 else r), d


_SIGNED = st.tuples(st.tuples(_RADICANDS, st.integers(2, 12)), st.booleans()).map(_signed)
_SIGNED_GEN = st.tuples(st.tuples(_RADICANDS, st.integers(2, 6)), st.booleans()).map(_signed)
_SIGNED_GENS = st.lists(_SIGNED_GEN, max_size=3)


def _same_coset(cs, ks, gens):
    """Is prod |b_i|^((c_i - k_i)/d_i) rational, so that the exponents cs
    and the residue tuple ks write the radical alike up to a rational?"""
    total = {}
    for (r, dg), c, k in zip(gens, cs, ks):
        for n, sign in ((abs(r.numerator), 1), (r.denominator, -1)):
            for p, e in prime_exponents(n).items():
                total[p] = total.get(p, 0) + Fraction(sign * e * (c - k), dg)
    return all(x.denominator == 1 for x in total.values())


class TestRadicalDegree:
    @settings(max_examples=150, deadline=None)
    @given(_RADICANDS, st.integers(2, 12), _GENS)
    @example(Fraction(2**35), 4, [])
    @example(Fraction(6), 6, [(Fraction(12), 2), (Fraction(3), 3)])
    def test_against_prime_oracle(self, b, d, gens):
        tw = Tower()
        for r, k in gens:
            tw.adjoin(nth_root(r, k), claimed_radical=(k, A(r)))
        expected, _ = radical_degree_oracle(b, d, gens)
        assert _radical_degree(b, d, gens)[0] == expected
        assert tw.is_pth_power(A(b), d) == (expected == 1)

    @settings(max_examples=150, deadline=None)
    @given(_SIGNED, _SIGNED_GENS)
    @example((Fraction(1, 3), 2), [(Fraction(1, 3), 4)])  # sqrt(1/3) = ((1/3)^(1/4))^2
    @example((Fraction(1, 3), 6), [(Fraction(1, 3), 3)])  # v^2 = (1/3)^(1/3)
    @example((Fraction(-1, 24), 3), [(Fraction(-3), 3), (Fraction(2), 2)])
    @example((Fraction(-6), 5), [(Fraction(-6), 5)])
    @example(
        (Fraction(649983722677862400), 8),
        [(Fraction(49796495981568), 6), (Fraction(588245, 4374), 5), (Fraction(60025000), 6)],
    )
    def test_word_against_residue_tuple(self, radical, gens):
        # v^m = q * prod(a_i^c_i) holds on prime exponent vectors, with the
        # signs of real odd roots of negatives, each c_i a residue mod d_i,
        # and the c_i and the oracle's residue tuple ks lie in one coset
        b, d = radical
        m, word = _radical_degree(b, d, gens)
        expected, ks = radical_degree_oracle(b, d, gens)
        assert m == expected
        q, cs = word
        assert len(cs) == len(gens) and all(0 <= c < dg for c, (_, dg) in zip(cs, gens))
        assert radical_word_oracle(b, d, m, word, gens)
        assert _same_coset(cs, ks, gens)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_RADICANDS, st.integers(2, 6)), min_size=1, max_size=4),
           _RADICANDS, st.integers(2, 12))
    @example([(Fraction(4), 6), (Fraction(2**70), 4)], Fraction(2), 4)
    @example([(Fraction(2**70), 4), (Fraction(4), 6)], Fraction(16), 6)
    @example([(Fraction(36), 4), (Fraction(6), 2), (Fraction(12), 3)], Fraction(3), 6)
    def test_claimed_radical_sequences(self, claims, b, p):
        # every claimed rational radical goes through the lattice route,
        # reducible ones (4^(1/6) is 2^(1/3)) included, and is_pth_power
        # answers by the same route without adjoining anything
        tw = Tower()
        gens = []
        for r, d in claims:
            step = tw.adjoin(nth_root(r, d), claimed_radical=(d, A(r)))
            assert step.degree == radical_degree_oracle(r, d, gens)[0]
            gens.append((r, d))
        assert all(s.form is not None for s in tw.steps if s.degree > 1)
        before = _ledger(tw)
        assert tw.is_pth_power(A(b), p) == (radical_degree_oracle(b, p, gens)[0] == 1)
        assert _ledger(tw) == before

    def test_word_with_large_lattice_coefficients(self):
        # the lattice writes v^4 with generator coefficients such as 198816
        # and base exponents past 10^6; raising the radicands to those
        # powers did not end within 20 s, and the word q = 2^13 3^9 5 is
        # read off the exponent vectors instead
        gens = [(Fraction(49796495981568), 6), (Fraction(588245, 4374), 5), (Fraction(60025000), 6)]
        with time_limit(1):
            m, word = _radical_degree(Fraction(649983722677862400), 8, gens)
        assert m == 4 and word == (Fraction(2**13 * 3**9 * 5), (0, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(_SIGNED, st.booleans())
    def test_degree_over_Q_skips_the_lattice(self, radical, claimed):
        # a rational radical over a tower with no radical step: its
        # interned atom's index and radicand are the lattice's degree and
        # word over Q, with or without a cubic step below
        r, d = radical
        v = nth_root(r, d)
        assume(v.as_rational() is None)
        m, word = _radical_degree(r, d, [])
        cubic = A.real_root(Poly([-1, -1, 0, 1]), 1, 2)
        for below in ([], [cubic]) if m % 3 else ([],):
            tw = Tower()
            for w in below:
                tw.adjoin(w)
            step = tw.adjoin(v, claimed_radical=(d, A(r)) if claimed else None)
            assert step.degree == m and step.form == (word[0], m) and word[1] == ()

    def test_rational_valued_root_atom_with_a_rational_claim(self):
        # sqrt(sqrt2 * sqrt8) is a root atom over a compound operand with
        # value 2: the claim's radical is the rational 2, and over L = Q
        # the step is trivial, as the lattice finds
        v = nth_root(nth_root(2, 2) * nth_root(8, 2), 2)
        assert v.as_rational() is None and _radical_degree(Fraction(4), 2, [])[0] == 1
        tw = Tower()
        assert tw.adjoin(v, claimed_radical=(2, A(4))).degree == 1
        assert tw.total_degree == 1

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

    @pytest.mark.degree_cap(18)
    def test_general_route_adjoins_nothing(self):
        # roots of irrational radicands take the primitive-element route;
        # asking must not make the root a generator, even of an empty tower
        tw = Tower()
        assert tw.is_pth_power(1 + nth_root(2, 2), 2) is False
        assert tw.steps == []
        r = A.real_root(Poly([-1, -1, 0, 1]), 1, 2)  # x^3 - x - 1
        assert tw.adjoin(r).degree == 3
        before = _ledger(tw)
        assert tw.is_pth_power(r * r, 2) is True
        assert tw.is_pth_power(r, 2) is False
        assert _ledger(tw) == before and len(tw.steps) == 1 and tw.steps[0].generator is r

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


def _mixture(k, i, j):
    """k/8 * x^i + (1 - k/8) * x^j."""
    c = [Fraction(0)] * (max(i, j) + 1)
    c[i] += Fraction(k, 8)
    c[j] += 1 - Fraction(k, 8)
    return Poly(c)


def _cut(cdf, x, share):
    """The cut answer from x for share of the value right of x."""
    fx = poly_at(cdf, x)
    return _increasing_preimage(cdf, fx + (1 - fx) * share)


def _adjoin_all(tw, values):
    """Step degrees of the values in turn, up to the first one the tower
    cannot decide within the cap."""
    degrees = []
    for v in values:
        try:
            degrees.append(tw.adjoin(v).degree)
        except (MembershipUndecidable, DegreeCapExceeded):
            break
    return degrees


# mixtures of exponents up to 4, even pairs (F(t) = G(t^2)) included; the
# product of the CDF degrees bounds the compositum's degree by the cap
_CDFS = st.tuples(st.sampled_from([1, 3, 5, 7]), st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 4)]))
_CUTS = st.lists(
    st.tuples(_CDFS, st.integers(0, 4), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])),
    min_size=2,
    max_size=4,
).filter(lambda cuts: math.prod(j for (_, (_, j)), _, _ in cuts) <= 48)


def _squarefree_levels(p, tri, chain):
    """Does each level of tri reduce mod p, at the roots of chain before
    it, to a squarefree polynomial?"""
    images = {}
    for rel, r in zip(tri, chain):
        f = _monic_mod(rel.reduce(p, images), p)
        df = _fp_trim([i * c % p for i, c in enumerate(f)][1:])
        if not df or len(_fp_gcd(f, df, p)) > 1:
            return False
        images[id(rel.atom)] = r
    return True


# a root of x^4 - 7x^2 - 3x + 1, whose Galois group is A4: no element is a
# 4-cycle, so over a field that meets its splitting field only in Q the
# quartic reduces to an irreducible one at no prime, and only the sieve
# certifies it, from the patterns (1, 3) and (2, 2)
_A4_ROOT = A.real_root(Poly([1, -3, -7, 0, 1]), 0, 1)


def _tower_values(cuts, in_field, landing, quartic, radicals=()):
    """Each cut starts at 0, at 1/5 or at an earlier value, after the
    radicals r^(1/k) drawn to come before it; then, optionally, a value of
    the field, a cut from 0 that lands on an earlier answer y
    (F(t) - F(y) has the root y in K), and the A4 quartic's root, which no
    single prime certifies."""
    values, answers = [], []
    for n, ((k, (i, j)), start, share) in enumerate(cuts):
        values.extend(nth_root(r, d) for at, r, d in radicals if at % len(cuts) == n)
        starts = [A(0), A(Fraction(1, 5))] + values
        answers.append(_cut(_mixture(k, i, j), starts[start % len(starts)], share))
        values.append(answers[-1])
    if in_field:
        values.append(answers[0] * answers[-1] + Fraction(1, 3))
    if landing >= 0:
        (k, (i, j)), _, _ = cuts[landing % len(cuts)]
        f, y = _mixture(k, i, j), answers[landing % len(cuts)]
        values.append(_increasing_preimage(f, poly_at(f, y)))
    if quartic:
        values.append(_A4_ROOT)
    return values


# radicals of shared radicands, so that one lies in the field of another
# without being its atom: sqrt(1/3) under (1/3)^(1/4) or (1/3)^(1/6), and
# (1/3)^(1/6) of degree 3 over sqrt(1/3); each drawn with the cut it
# precedes, and the cuts may start from them
_SHARED = st.sampled_from([Fraction(1, 3), Fraction(2, 3)])
_RADICALS = st.lists(st.tuples(st.integers(0, 3), _SHARED, st.sampled_from([2, 3, 4, 6])), max_size=3)


_SIEVE_KEEPS = re.compile(r"factor degrees \[([\d, ]+)\] of a degree-(\d+) relative polynomial survive the sieve")


def _assert_left_to_the_sieve(tw, value, degree):
    """The one kind of step the tower leaves undecided where the
    compositum decides it: the step's degree is below deg R, so R is
    reducible over K, and the sieve, which removes no degree of a factor,
    keeps it."""
    with pytest.raises(MembershipUndecidable) as info:
        tw.adjoin(value)
    kept = _SIEVE_KEEPS.search(str(info.value))
    assert kept, str(info.value)
    assert degree in {int(d) for d in kept.group(1).split(",")}
    assert degree < int(kept.group(2))


# cut sequences whose every step the tower decides, the sieve and the
# landing rule between them; test_agrees_with_compositum draws others
# like them
_DECIDED = [
    ([((3, (1, 3)), 0, Fraction(1, 2)), ((1, (2, 4)), 1, Fraction(1, 3))], True, 0, False),
    ([((5, (1, 2)), 0, Fraction(1, 2)), ((3, (1, 3)), 2, Fraction(1, 2))], False, 1, False),
    ([((5, (2, 4)), 0, Fraction(1, 2)), ((1, (1, 2)), 0, Fraction(1, 2))], False, -1, True),
]


# the six seed-1 cli-mix measure sets that the tower left undecided until
# the radical lattice wrote its radicals over the steps' atoms (bench items
# 5, 211, 240, 379, 395 and 585): a cut whose target holds a rational
# radical of K that is no tower atom (sqrt(1/3) under (1/3)^(1/4) or
# (1/3)^(1/6), (1/3)^(1/3) under (1/3)^(1/6)), a radical step below its
# index, and a radical over a mixed tower with [K:L] coprime to its degree
_RADICAL_WORD_TOWERS = [
    ("last-diminisher", "5/32*x^5+27/32*x^6 | x^4 | x^2", [6, 1, 4, 1, 1, 6, 1, 2]),
    ("even-paz", "x^6 | 29/32*x^2+3/32*x^5 | x^2", [1, 6, 1, 5, 1, 1, 1, 6, 1, 5]),
    ("even-paz", "x^4 | x^2 | 9/32*x+23/32*x^5", [1, 4, 1, 1, 1, 5, 1, 4, 1, 5]),
    ("last-diminisher", "x^6 | x^3 | 1/32*x^2+31/32*x^4", [6, 1, 1, 1, 3, 1, 4]),
    ("even-paz", "x^2 | 11/32*x+21/32*x^2 | x^6", [1, 2, 1, 2, 1, 3, 1, 2, 1, 6]),
    ("even-paz", "31/32*x^3+1/32*x^5 | x^3 | x^6", [1, 5, 1, 3, 1, 2, 1, 5, 1, 6]),
]


def _radical_word_tower(protocol, cdfs):
    text = "\n".join(f"p{i}: {cdf}" for i, cdf in enumerate(cdfs.split(" | "), 1))
    return run_protocol(protocol, parse_measures(text)).transcript.tower


class TestRelativeTower:
    @pytest.mark.degree_cap(48)
    @settings(max_examples=25, deadline=None)
    @given(_CUTS, st.booleans(), st.integers(-1, 3), st.booleans(), _RADICALS)
    # R = G(t^2) - target splits into two quadratics over K: step degree 2
    @example(
        [
            ((1, (1, 2)), 4, Fraction(1, 2)),
            ((3, (1, 2)), 2, Fraction(1, 2)),
            ((1, (2, 4)), 4, Fraction(1, 2)),
            ((7, (1, 2)), 4, Fraction(1, 3)),
        ],
        True,
        3,
        True,
        [],
    )
    # a cut from sqrt(1/3), which lies in K as the square of (1/3)^(1/4)
    @example(
        [((3, (1, 3)), 0, Fraction(1, 2)), ((5, (1, 2)), 4, Fraction(1, 3))],
        False,
        -1,
        False,
        [(1, Fraction(1, 3), 4), (1, Fraction(1, 3), 2)],
    )
    def test_agrees_with_compositum(self, cuts, in_field, landing, quartic, radicals):
        # every step both routes decide within the cap has one degree, and
        # the tower stops before the compositum only where the sieve keeps
        # the step's degree of a reducible R
        values = _tower_values(cuts, in_field, landing, quartic, radicals)
        tw = Tower()
        degrees = _adjoin_all(tw, values)
        expected = compositum_step_degrees(values)
        assert degrees[: len(expected)] == expected[: len(degrees)]
        if len(degrees) < len(expected):
            _assert_left_to_the_sieve(tw, values[len(degrees)], expected[len(degrees)])
        tw.verify_lemma1(2)  # every stored certificate rechecks

    @pytest.mark.degree_cap(48)
    @pytest.mark.parametrize("cuts, in_field, landing, quartic", _DECIDED)
    def test_decides_every_step_the_compositum_decides(self, cuts, in_field, landing, quartic):
        values = _tower_values(cuts, in_field, landing, quartic)
        tw = Tower()
        degrees = _adjoin_all(tw, values)
        expected = compositum_step_degrees(values)
        assert degrees[: len(expected)] == expected
        assert len(degrees) >= len(expected)
        tw.verify_lemma1(2)

    @pytest.mark.parametrize("base", [nth_root(3, 2), nth_root(2, 4), nth_root(2, 6)])
    def test_sieve_certifies_where_no_single_prime_does(self, base):
        tw = Tower()
        tw.adjoin(base)
        step = tw.adjoin(_A4_ROOT)
        assert [s.degree for s in tw.steps] == compositum_step_degrees([base, _A4_ROOT])
        assert step.degree == 4 and len(step.certificate) >= 2
        assert all(pattern != (4,) for _, _, pattern in step.certificate)
        tw.verify_lemma1(2)

    @pytest.mark.degree_cap(48)
    @settings(max_examples=25, deadline=None)
    @given(_CUTS, st.sampled_from([Fraction(2), Fraction(1, 3)]), st.sampled_from([2, 3]))
    def test_pth_power_queries_leave_the_steps_alone(self, cuts, b, p):
        values = []
        for (k, (i, j)), start, share in cuts:
            starts = [A(0), A(Fraction(1, 5))] + values
            values.append(_cut(_mixture(k, i, j), starts[start % len(starts)], share))
        tw = Tower()
        _adjoin_all(tw, values)
        before = _ledger(tw)
        for v in (A(b), tw.steps[0].generator):
            try:
                tw.is_pth_power(v, p)
            except (MembershipUndecidable, DegreeCapExceeded):
                pass
            assert _ledger(tw) == before
        report = tw.verify_lemma1(p)  # every stored certificate rechecks
        assert report.violations == [i for i, s in enumerate(tw.steps) if s.degree not in (1, p)]

    @pytest.mark.degree_cap(48)
    @settings(max_examples=25, deadline=None)
    @given(_CUTS)
    @example([((3, (1, 3)), 0, Fraction(1, 2)), ((1, (2, 4)), 1, Fraction(1, 3))])
    def test_lazy_chains_agree_with_the_cached_oracle(self, cuts):
        # at each prime the chains are the oracle's but those through a
        # level whose reduction is not squarefree there: all of them at a
        # prime where every level's reduction is squarefree
        values = []
        for (k, (i, j)), start, share in cuts:
            starts = [A(0), A(Fraction(1, 5))] + values
            values.append(_cut(_mixture(k, i, j), starts[start % len(starts)], share))
        tw = Tower()
        _adjoin_all(tw, values)
        assert set(vars(tw)) == {"steps", "allow_mediator_sqrt"}
        tri = tower._triangular_set(tw.steps)
        assume(tri)
        oracle = ChainCacheOracle()  # cached across steps, as the tower once did
        for depth in range(1, len(tri) + 1):
            for p in itertools.islice(primes(), 40):
                expected = [c for c in oracle.chains(p, tri[:depth]) if _squarefree_levels(p, tri, c)]
                assert list(tower._chains(p, tri[:depth])) == expected

    @pytest.mark.degree_cap(48)
    def test_cut_landing_on_a_tower_point(self):
        # y's target is irrational, so the landing cut is a new atom whose
        # cut polynomial has the root y in K: no prime certifies it, and the
        # landing rule finds degree 1
        f, g = _mixture(3, 1, 3), _mixture(5, 1, 2)
        x = _cut(f, A(0), Fraction(1, 2))
        y = _cut(g, x, Fraction(1, 2))
        tw = Tower()
        assert _adjoin_all(tw, [x, y]) == [3, 2]
        again = _increasing_preimage(g, poly_at(g, y))
        assert again._node is not y._node
        assert tw.adjoin(again).degree == 1

    def test_value_of_the_field_is_trivial(self):
        f, g = _mixture(3, 1, 3), _mixture(5, 2, 4)
        y1 = _cut(f, A(0), Fraction(1, 2))
        y2 = _cut(g, y1, Fraction(1, 3))
        tw = Tower()
        assert _adjoin_all(tw, [y1, y2]) == [3, 4]
        assert tw.adjoin(y1 * y2 - y2 / 7).degree == 1

    def _even_paz_3_6(self):
        # a cubic cut point, then (1/2)^(1/6): the compositum needs degree
        # 18, which the steps below decide without building it
        m1 = Measure.make(Poly([0, Fraction(1, 4), 0, Fraction(3, 4)]), "p1")
        m2 = Measure.make(Poly.monomial(6), "p2")
        return even_paz([m1, m2]).transcript.tower

    def test_even_paz_steps_3_and_6_at_the_default_cap(self):
        tw = self._even_paz_3_6()
        assert [s.degree for s in tw.steps] == [1, 3, 1, 6]
        # the pattern (3, 3) at 7 leaves only degree 3, and the first
        # irreducible image, at 37, removes it
        assert tw.steps[3].certificate == ((7, (5,), (3, 3)), (37, (15,), (6,)))
        assert tw.verify_lemma1(3).violations == [3]

    def test_corrupted_prime_fails_the_recheck(self):
        tw = self._even_paz_3_6()
        certificate = tw.steps[3].certificate
        for i, (p, roots, pattern) in enumerate(certificate):
            for bad in (p + 2, p + 4, 2 * p + 1):
                tw.steps[3].certificate = certificate[:i] + ((bad, roots, pattern),) + certificate[i + 1 :]
                with pytest.raises(TowerCertificateError):
                    tw.verify_lemma1(3)

    def test_corrupted_root_fails_the_recheck(self):
        tw = self._even_paz_3_6()
        certificate = tw.steps[3].certificate
        for i, (p, (r,), pattern) in enumerate(certificate):
            for bad in ((r + 1) % p, (r + 2) % p, p + r):
                tw.steps[3].certificate = certificate[:i] + ((p, (bad,), pattern),) + certificate[i + 1 :]
                with pytest.raises(TowerCertificateError):
                    tw.verify_lemma1(3)

    def test_corrupted_pattern_fails_the_recheck(self):
        tw = self._even_paz_3_6()
        certificate = tw.steps[3].certificate
        for i, (p, roots, pattern) in enumerate(certificate):
            for bad in ((6,), (3, 3), (1, 5), (1, 1, 1, 3), (2, 3)):
                if bad != pattern:
                    tw.steps[3].certificate = certificate[:i] + ((p, roots, bad),) + certificate[i + 1 :]
                    with pytest.raises(TowerCertificateError):
                        tw.verify_lemma1(3)

    def test_certificate_at_a_splitting_prime_fails_the_recheck(self):
        # for q = 5 mod 6, t^6 - 1/2 has no irreducible reduction mod q, so a
        # valid chain root there still cannot certify degree 6
        tw = self._even_paz_3_6()
        cubic = tw.steps[1].relative
        for q in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71):
            roots = _modp_roots(cubic.reduce(q, {}), q)
            if roots:
                break
        cs = tw.steps[3].relative.reduce(q, {id(cubic.atom): roots[0]})
        tw.steps[3].certificate = ((q, (roots[0],), _pattern(_modp_ddf(cs, q))),)
        with pytest.raises(TowerCertificateError, match="not irreducible"):
            tw.verify_lemma1(3)

    def _sieved(self):
        tw = Tower()
        tw.adjoin(nth_root(3, 2))
        tw.adjoin(_A4_ROOT)
        return tw, tw.steps[1].certificate

    def test_sieve_witnesses_recheck(self):
        tw, witnesses = self._sieved()
        tw.verify_lemma1(2)
        # the recheck recomputes each pattern without the image cache
        for p, (r,), pattern in witnesses:
            cs = tw.steps[1].relative.reduce(p, {})
            assert _pattern_mod(cs, p) == pattern
            assert r in _modp_roots(tw.steps[0].relative.reduce(p, {}), p)

    def test_corrupted_sieve_witness_fails_the_recheck(self):
        tw, witnesses = self._sieved()
        (p, (r,), pattern), rest = witnesses[0], witnesses[1:]
        nonroot = next(x for x in range(p) if (x * x - 3) % p)
        corrupted = [
            (p + 2, (r,), pattern),  # not prime, or no chain root there
            (p, (nonroot,), pattern),  # not a root of x^2 - 3
            (p + r, (r,), pattern),
            (p, (r,), (4,)),  # a pattern the reduction does not have
            (p, (r,), (1, 1, 2)),
        ]
        for bad in corrupted:
            tw.steps[1].certificate = (bad,) + rest
            with pytest.raises(TowerCertificateError):
                tw.verify_lemma1(2)
        # each witness removes a degree the other leaves
        for kept in ((witnesses[0],), rest):
            tw.steps[1].certificate = kept
            with pytest.raises(TowerCertificateError, match="not irreducible"):
                tw.verify_lemma1(2)

    def test_claimed_radical_without_atom_form_keeps_the_lattice(self):
        tw = Tower()
        step = tw.adjoin(nth_root(2, 2) * nth_root(3, 2), claimed_radical=(2, A(6)))
        assert step.degree == 2 and step.form == (6, 2)
        assert tw.adjoin(nth_root(10, 2), claimed_radical=(2, A(10))).degree == 2
        assert [s.form for s in tw.steps if s.degree > 1] == [(6, 2), (10, 2)]
        # sqrt(15) = sqrt(6) sqrt(10) / 2 is in the field; sqrt(2) is not
        assert tw.adjoin(nth_root(15, 2), claimed_radical=(2, A(15))).degree == 1
        assert tw.is_pth_power(A(2), 2) is False


    @pytest.mark.parametrize("protocol, cdfs, degrees", _RADICAL_WORD_TOWERS)
    def test_six_bench_towers(self, protocol, cdfs, degrees):
        tw = _radical_word_tower(protocol, cdfs)
        assert [s.degree for s in tw.steps] == degrees
        for s in tw.steps:
            if s.degree > 1 and s.form is not None:
                # a radical step keeps a relative polynomial of its degree at
                # its atom: t^d - r, or the binomial t^m - v^m below its index
                assert s.relative.degree == s.degree and s.atom is s.relative.atom
        assert tower._triangular_set(tw.steps) is not None
        tw.verify_lemma1(2)  # every stored word and certificate rechecks

    def _stored_word(self):
        # item 240: K holds (1/3)^(1/4) = a, so sqrt(1/3) = a^2 lies in K,
        # and the last cut's target, built with sqrt(1/3), reduces by it
        tw = _radical_word_tower(*_RADICAL_WORD_TOWERS[2][:2])
        (i, rel), = [(i, s.relative) for i, s in enumerate(tw.steps) if s.relative and s.relative.words]
        (word,) = rel.words
        assert (word.atom.operand, word.atom.index, word.q) == (Fraction(1, 3), 2, 1)
        assert [(a.operand, a.index, c) for a, c in word.powers] == [(Fraction(1, 3), 4, 2)]
        return tw, i, rel, word

    def test_stored_word_rechecks(self):
        tw, i, rel, word = self._stored_word()
        assert word.holds()
        tw.verify_lemma1(5)
        # at each witness chain the word's image is a root of 3t^2 - 1, as
        # the image of sqrt(1/3) must be
        tri = tower._triangular_set(tw.steps[:i])
        for p, chain, _ in tw.steps[i].certificate:
            r = word.residue(p, tower._images(tri, chain))
            assert (3 * r * r - 1) % p == 0

    def test_corrupted_word_fails_the_recheck(self):
        tw, i, rel, word = self._stored_word()
        (a, c), = word.powers
        other = tw.steps[5].generator._node  # the quintic cut point: no radical step's atom
        corrupted = [
            replace(word, q=2 * word.q),
            replace(word, q=-word.q),
            replace(word, q=word.q + Fraction(1, 3)),
            replace(word, powers=((a, c + 1),)),
            replace(word, powers=((a, c - 1),)),
            replace(word, powers=((a, c + 4),)),
            replace(word, powers=()),
            replace(word, powers=((other, c),)),
        ]
        for bad in corrupted:
            tw.steps[i].relative = replace(rel, words=(bad,))
            with pytest.raises(TowerCertificateError, match="word"):
                tw.verify_lemma1(5)
        tw.steps[i].relative = rel
        tw.verify_lemma1(5)


class TestModularTools:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 13, 31, 97]), st.lists(st.integers(-50, 50), min_size=2, max_size=8))
    def test_against_brute_force_and_factoring(self, p, coeffs):
        cs = [c % p for c in coeffs]
        assume(cs[-1] != 0)
        f = Poly(cs)
        df = f.derivative()
        simple = [r for r in range(p) if f(r) % p == 0 and df(r) % p != 0]
        assert simple_roots_oracle(cs, p) == simple
        ddf = _modp_ddf(cs, p)
        assert _modp_roots(cs, p) == (None if ddf is None else tuple(simple))
        # the recheck's pattern, computed without the cache, is the cache's
        assert _pattern_mod(cs, p) == (None if ddf is None else _pattern(ddf))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 13, 31, 97]),
        st.lists(st.integers(0, 96), min_size=1, max_size=9),
        st.lists(st.integers(0, 96), max_size=3),
    )
    @example(3, [1, 0], [1, 1])  # (x^2 + 1)(x + 1)^2: not squarefree mod 3
    def test_early_exit_irreducibility_matches_distinct_degrees(self, p, coeffs, squared):
        # the first pair of the distinct-degree factorization decides
        # irreducibility on any monic image, as the recheck's pattern (n,)
        # does, and a fresh cache entry read whole is the cached
        # factorization, on random reductions with some factors planted twice
        f = Poly(coeffs + [1])
        if len(squared) > 1:
            f = f * Poly(squared) ** 2
        cs = [int(c) % p for c in f.coeffs]
        assume(cs and cs[-1] != 0)
        n = len(cs) - 1
        first = next(fp_ddf_oracle(_monic_mod(cs, p), p))
        assert (first[0] == n) == (_pattern_mod(cs, p) == (n,))
        ddf = _modp_ddf(cs, p)
        fresh = _image_ddf.__wrapped__(tuple(_monic_mod(cs, p)), p)
        assert (fresh is None) == (ddf is None)
        if fresh is not None:
            assert fresh.parts() == ddf and ddf[0] == (first[0], tuple(first[1]))
