import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cakelab.algebraic as alg
from cakelab import (
    DegreeCapExceeded,
    Eisenstein,
    Poly,
    ZeroPolynomialError,
    eisenstein,
    factor_over_Q,
    is_irreducible,
    poly_gcd,
    rational_roots,
)
from cakelab import factoring, ints, polys
from cakelab.cli import main as cli_main
from cakelab.factoring import FactorSearchBudget
from cakelab.ints import SMALL_PRIMES, coprime_base, coprime_part, int_nth_root

from _oracle import (
    fp_ddf_oracle,
    int_nth_root_oracle,
    is_perfect_power,
    kronecker_find_factor,
    oracle_factor,
    prime_exponents,
)

X = Poly.x()


def c(v):
    return Poly.constant(v)


class TestCoprimePart:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(0, 10**6))
    @example(360, 6)
    @example(2 * 3**4 * 1009, 0)
    @example(7, 1)
    def test_against_prime_exponents(self, n, m):
        expected = math.prod(q**e for q, e in prime_exponents(n).items() if m % q)
        assert coprime_part(n, m) == expected

    def test_large_shared_primes(self):
        # the primes of n shared with m have 61 and 89 bits, and no gcd
        # step factors them
        big = (2**61 - 1) ** 3 * (2**89 - 1)
        assert coprime_part(big * 5**4, (2**61 - 1) * (2**89 - 1)) == 5**4

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            coprime_part(n, 6)


class TestPrimes:
    def test_against_a_sieve(self):
        n = 10**4
        sieve = [True] * (n + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, n + 1, i))
        expected = [i for i, is_prime in enumerate(sieve) if is_prime]
        assert list(itertools.takewhile(lambda q: q <= n, ints.primes())) == expected
        assert ints.SMALL_PRIMES == tuple(q for q in expected if q < 50)


class TestIntNthRoot:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 9),
        st.one_of(st.integers(0, 2**64), st.integers(0, 2**6000)),
        st.integers(1, 2**666),  # c^9 < 2^6000
        st.sampled_from([-1, 0, 1]),
    )
    @example(3, 0, 2**666, -1)
    @example(9, 0, 2**666 - 1, 1)
    def test_agrees_with_unseeded_newton(self, d, n, c, shift):
        for m in (n, c**d + shift):
            assert int_nth_root(m, d) == int_nth_root_oracle(m, d)

    def test_exact_powers_and_neighbours(self):
        for d in range(2, 10):
            for c in (1, 2, 3, 2**48 - 1, 2**48, 3**300, 2**(6000 // d)):
                assert int_nth_root(c**d, d) == c
                assert int_nth_root(c**d - 1, d) == c - 1
                assert int_nth_root(c**d + 1, d) == c
        assert int_nth_root(0, 5) == 0 and int_nth_root(1, 5) == 1
        with pytest.raises(ValueError):
            int_nth_root(-8, 3)


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


def _eisenstein_at(cs, q):
    """cs, constant first, is Eisenstein at the prime q."""
    return cs[-1] % q != 0 and all(a % q == 0 for a in cs[:-1]) and cs[0] % (q * q) != 0


class TestEisensteinWitness:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(st.integers(1, 10**6), st.sampled_from([53, 97, 2 * 3 * 101, 53 * 59, 7 * 53 * 59 * 61])),
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        st.integers(-60, 60).filter(bool),
    )
    @example(97, [1, 0, 0], -97)  # welfare p = 97: 97x^3 - 1 reverses to x^3 - 97
    @example(53 * 59, [1, 0, 0, 0], 1)  # x^4 + 3127, Eisenstein at 53 and at 59
    def test_against_every_prime_of_the_gcd(self, g, multiples, lead):
        cs = [g * k for k in multiples] + [lead]
        q = factoring._eisenstein_witness(cs)
        found = False
        complete = True
        for coeffs in (cs, cs[::-1]):
            h = math.gcd(*coeffs[:-1])
            if h > 1:
                found |= any(_eisenstein_at(coeffs, p) for p in prime_exponents(h))
                complete &= sum(p > SMALL_PRIMES[-1] for p in prime_exponents(h)) <= 1
        if q is not None:
            assert len(prime_exponents(q)) == 1 and prime_exponents(q)[q] == 1
            assert _eisenstein_at(cs, q) or _eisenstein_at(cs[::-1], q)
        elif complete:
            # a miss needs a gcd with two distinct primes past the small ones
            assert not found

    def test_composite_part_is_not_factored(self):
        # the part of the gcd coprime to the small primes is a product of
        # two primes of 61 and 89 bits: no witness, and no hang
        n = (2**61 - 1) * (2**89 - 1)
        assert factoring._eisenstein_witness([n, 0, 0, 0, 1]) is None
        assert factoring._eisenstein_witness([2 * n, 0, 0, 0, 1]) == 2
        assert factoring._eisenstein_witness([2**61 - 1, 0, 0, 0, 1]) == 2**61 - 1


def irreducible_mod(p, q):
    """True when p reduces mod q to an irreducible polynomial of the same
    degree: the first pair of its distinct-degree factorization has full
    degree.  That certifies p irreducible over the rationals."""
    ddf = polys._modp_ddf(p.int_coeffs(), q)
    return ddf is not None and ddf[0][0] == p.degree


class TestModularProbe:
    def test_certifies_known_irreducible(self):
        assert irreducible_mod(X**2 + X + c(1), 2)
        assert irreducible_mod(X**10 + X - c(1), 17)

    def test_rejects_degree_drop(self):
        assert not irreducible_mod(Poly([1, 1, 2]), 2)

    def test_reducible_input(self):
        assert not irreducible_mod(X**2 - c(1), 5)


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

    @pytest.mark.degree_cap(12)
    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded) as ei:
            factor_over_Q(X**13 + X - c(1))
        assert ei.value.cap == 12

    @pytest.mark.degree_cap(13)
    def test_cap_override(self):
        fac = factor_over_Q(X**13 - c(1))
        assert fac.reconstruct() == X**13 - c(1)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError):
            factoring.set_degree_cap(cap)
        assert factoring.degree_cap() == factoring.DEFAULT_DEGREE_CAP

    @pytest.mark.degree_cap(13)
    def test_cap_reaches_irreducibility(self):
        assert factoring.is_irreducible(X**13 + X - c(1))

    def test_kronecker_finds_quadratic(self):
        p = (X**2 + X + c(1)) * (X**2 - X + c(3))
        g = kronecker_find_factor(p.int_coeffs(), 2)
        assert g is not None
        assert Poly(g).divides(p)

    def test_splits_product_of_quadratics(self):
        fac = factor_over_Q((X**2 + X + c(1)) * (X**2 - X + c(3)))
        assert [(str(f), m) for f, m in fac.factors] == [("x^2 + x + 1", 1), ("x^2 - x + 3", 1)]

    def test_irreducible_pipeline(self):
        assert is_irreducible(X**3 + X**2 - c(1))
        assert not is_irreducible(X**5 + X - c(1))

    def test_eisenstein_needs_no_integer_factoring(self):
        # the constant's prime factors have 61 and 89 bits: factoring it
        # to look for an Eisenstein prime took minutes; Zassenhaus decides
        p = X**4 + c((2**61 - 1) * (2**89 - 1))
        assert not factoring._certify_irreducible(p)
        assert is_irreducible(p)
        assert factoring._certify_irreducible(X**4 - c(2 * (2**61 - 1) * (2**89 - 1)))


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


def cut_quintics(count=40):
    """x/2 + x^5/2 - c for the targets c = F(x) + (1 - F(x)) j/1000 of
    single-player cuts from grid points x, F = x/2 + x^5/2."""
    cdf = Poly([0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])
    rng = random.Random(16)
    for _ in range(count):
        fx = cdf(Fraction(rng.randint(0, 999), 1000))
        yield cdf - c(fx + (1 - fx) * Fraction(rng.randint(1, 1000), 1000))


def clear_image_cache():
    polys._image_ddf.cache_clear()


def eager_ddf(f, q):
    return tuple((k, tuple(g)) for k, g in fp_ddf_oracle(list(f), q))


def frozen(value):
    """Is the value built of tuples and integers alone?"""
    return isinstance(value, int) or (isinstance(value, tuple) and all(frozen(v) for v in value))


def _cycle_type(perm):
    """The cycle lengths of a permutation of 1..n, ascending."""
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start - 1]
            length += 1
        if length:
            out.append(length)
    return tuple(sorted(out))


class Interrupted(BaseException):
    """Stands in for a time limit's signal landing inside a computation."""


class TestImageCaches:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([p for p in itertools.islice(ints.primes(), 400) if 400 < p < 2**11]),
        st.lists(st.integers(0, 2**11), max_size=6),
        st.lists(st.integers(0, 2**11), max_size=4),
    )
    @example(2039, [5, 2038, 1000, 7, 7], [3, 1])  # a planted double root
    def test_roots_split_past_the_scan_agree_with_it(self, q, roots, coeffs):
        # past q = 512 the roots are split off the degree-1 part, not found
        # by trying residues: planted roots, and those of a random cofactor
        f = polys._monic_mod([c % q for c in coeffs] + [1], q)
        for r in roots:
            f = polys._fp_mul(f, [-r % q, 1], q)
        df = polys._fp_trim([i * v % q for i, v in enumerate(f)][1:])
        squarefree = bool(df) and len(polys._fp_gcd(f, df, q)) == 1
        scan = tuple(a for a in range(q) if polys._horner_mod(f, a, q) == 0)
        assert polys._modp_roots(f, q) == (scan if squarefree else None)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 47]),
        st.lists(st.integers(0, 46), max_size=8),
        st.lists(st.integers(0, 46), max_size=3),
    )
    @example(3, [1, 0], [1, 1])  # (x^2 + 1)(x + 1)^2 mod 3
    @example(3, [1, 0], [1, 0, 1])  # (x^2 + 1)^3 mod 3: no root, not squarefree
    @example(2, [], [])  # the image 1
    def test_cached_agrees_with_uncached(self, q, coeffs, squared):
        # monic images, some with a factor planted twice
        f = [v % q for v in coeffs] + [1]
        if len(squared) > 1:
            f = polys._fp_mul(f, polys._fp_mul(squared, squared, q), q)
            assume(f)
            f = polys._monic_mod(f, q)
        key = tuple(f)
        entry = polys._image_ddf(key, q)
        uncached = polys._image_ddf.__wrapped__(key, q)
        df = polys._fp_trim([i * v % q for i, v in enumerate(f)][1:])
        squarefree = bool(df) and len(polys._fp_gcd(f, df, q)) == 1
        assert (entry is None) == (uncached is None) == (not squarefree)
        brute = tuple(a for a in range(q) if polys._horner_mod(f, a, q) == 0)
        assert polys._modp_roots(f, q) == (brute if squarefree else None)
        if entry is not None:
            ddf = entry.parts()
            assert ddf == uncached.parts() == eager_ddf(f, q)
            product = [1]
            for _, g in ddf:
                product = polys._fp_mul(product, list(g), q)
            assert product == f

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(ints.SMALL_PRIMES + (53, 97, 251)),
        st.lists(st.integers(0, 250), max_size=12),
        st.lists(st.one_of(st.sampled_from(["roots", "all"]), st.integers(0, 13)), min_size=1, max_size=6),
    )
    @example(2, [1, 1], [1, "all"])  # x^2 + x + 1 mod 2: irreducible
    @example(7, [1, 0, 0, 1], ["roots", 2, "all"])  # x^4 + x + 1 mod 7
    def test_lazy_reads_in_any_order_agree_with_eager(self, q, coeffs, reads):
        # a cold cache entry answers roots, the parts up to a degree and
        # the whole factorization in any order, each exactly as the eager
        # factorization does, and only with tuples of integers
        f = [v % q for v in coeffs] + [1]
        image = polys._monic_mod(f, q)
        df = polys._fp_trim([i * v % q for i, v in enumerate(image)][1:])
        assume(df and len(polys._fp_gcd(image, df, q)) == 1)
        eager = eager_ddf(image, q)
        clear_image_cache()
        for read in reads:
            if read == "roots":
                value = polys._modp_roots(f, q)
                expected = tuple(a for a in range(q) if polys._horner_mod(f, a, q) == 0)
            elif read == "all":
                value = polys._modp_ddf(f, q)
                expected = eager
            else:
                value = polys._modp_image(f, q).parts(read)
                expected = tuple(part for part in eager if part[0] <= read)
            assert value == expected
            assert frozen(value)
        assert polys._image_ddf.cache_info().currsize == 1

    def test_interrupted_degree_leaves_the_entry_whole(self, monkeypatch):
        # a time limit can end a computation inside any degree; the cached
        # entry keeps the degrees it finished, and a later read completes it
        f = ((X**4 + X + c(1)) * (X**2 + c(1)) * (X - c(2))).int_coeffs()  # squarefree mod 7
        eager = eager_ddf(polys._monic_mod(f, 7), 7)
        assert [k for k, _ in eager] == [1, 2, 4]
        powmod = polys._fp_powmod
        for stop in (1, 2):
            clear_image_cache()
            calls = []

            def interrupted(*args):
                calls.append(args)
                if len(calls) == stop:
                    raise Interrupted
                return powmod(*args)

            monkeypatch.setattr(polys, "_fp_powmod", interrupted)
            with pytest.raises(Interrupted):
                polys._modp_ddf(f, 7)
            monkeypatch.setattr(polys, "_fp_powmod", powmod)
            assert polys._modp_roots(f, 7) == (2,)
            assert polys._modp_ddf(f, 7) == eager
            assert polys._image_ddf.cache_info().currsize == 1

    def test_same_monic_image_shares_one_entry(self):
        # 3x^5 + 3x - 6 and x^5 + x + 5: both x^5 + x + 5 mod 7, monic
        clear_image_cache()
        first = polys._modp_ddf([-6, 3, 0, 0, 0, 3], 7)
        second = polys._modp_ddf([5, 1, 0, 0, 0, 1], 7)
        assert second is first
        assert polys._modp_image([-6, 3, 0, 0, 0, 3], 7) is polys._modp_image([5, 1, 0, 0, 0, 1], 7)
        info = polys._image_ddf.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        # x^5 + x - 2 and x^5 + x + 28 agree mod 2, 3 and 5, where the
        # root search of the first ends
        clear_image_cache()
        assert polys.rational_roots(Poly([-2, 1, 0, 0, 0, 1])) == [Fraction(1)]
        cold = polys._image_ddf.cache_info()
        assert polys.rational_roots(Poly([28, 1, 0, 0, 0, 1])) == []
        warm = polys._image_ddf.cache_info()
        assert (warm.misses, warm.currsize) == (cold.misses, cold.currsize)
        assert warm.hits == cold.hits + cold.misses

    def test_cached_values_are_immutable(self):
        clear_image_cache()
        f = (X**4 + X + c(1)) * (X**2 + c(1))  # squarefree mod 7
        image = polys._modp_image(f.int_coeffs(), 7)
        assert image.parts(3) == ((2, (1, 0, 1)),) and frozen(image.parts(3))
        ddf = polys._modp_ddf(f.int_coeffs(), 7)
        assert isinstance(ddf, tuple) and all(isinstance(g, tuple) for _, g in ddf)
        with pytest.raises(TypeError):
            ddf[0][1][0] = 2
        roots = polys._modp_roots([0, 1, 1], 5)  # x^2 + x: roots 0 and 4
        assert roots == (0, 4)
        with pytest.raises(TypeError):
            roots[0] = 1
        # consumers copy: splitting and lifting leave the entry as it was
        snapshot = [(k, list(g)) for k, g in ddf]
        factors = factoring._zassenhaus(f.int_coeffs(), 7, ddf, {2, 4})
        assert sorted(factors) == [[1, 0, 1], [1, 1, 0, 0, 1]]
        assert [(k, list(g)) for k, g in polys._modp_ddf(f.int_coeffs(), 7)] == snapshot


class TestDegreeSieve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(1, n + 1)).map(
            lambda perm: _cycle_type(perm)), max_size=8))))
    def test_sieve_against_the_intersection_of_subset_sums(self, case):
        # the patterns of permutations of n points; the sieve keeps the
        # proper degrees that are subset sums of every pattern read, stops
        # once none is left, and its witnesses alone leave the same set
        n, patterns = case

        def subset_sums(pattern):
            sums = {0}
            for k in pattern:
                sums |= {s + k for s in sums}
            return sums

        left, witnesses = polys._sieve_degrees(enumerate(patterns), set(range(1, n)))
        running, read = set(range(1, n)), 0
        for pattern in patterns:
            read += 1
            running &= subset_sums(pattern)
            if not running:
                break
        assert left == running
        assert [key for key, _ in witnesses] == sorted(key for key, _ in witnesses) and all(
            key < read for key, _ in witnesses
        )
        again, _ = polys._sieve_degrees(witnesses, set(range(1, n)))
        assert again == left

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=9), st.integers(1, 4))
    def test_stops_at_the_first_prime_without_a_degree(self, coeffs, lead):
        h = Poly(coeffs + [lead])
        assume(poly_gcd(h, h.derivative()).degree == 0 and not rational_roots(h))
        f = h.int_coeffs()
        n = len(f) - 1
        seen = []
        original = factoring._modp_ddf

        def recording(g, q):
            ddf = original(g, q)
            if ddf is not None:
                seen.append((q, ddf))
            return ddf

        factoring._modp_ddf = recording
        try:
            allowed, q, ddf = factoring._degree_sieve(f)
        finally:
            factoring._modp_ddf = original
        # replay the intersection of subset sums in 2..n-2 over the usable primes
        running = set(range(2, n - 1))
        for i, (_, part) in enumerate(seen):
            degrees = [k for k, g in part for _ in range((len(g) - 1) // k)]
            sums = {0}
            for k in degrees:
                sums |= {s + k for s in sums}
            running &= sums
            if i < len(seen) - 1:
                assert running and i < 3  # it went on only while degrees survived
        assert allowed == running and (not allowed or len(seen) == 4)
        counts = [sum((len(g) - 1) // k for k, g in part) for _, part in seen]
        assert (q, ddf) == seen[counts.index(min(counts))]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=4, max_size=7), st.integers(1, 3))
    @example([-1, 1, 0, 0, 0], 1)  # x^5 + x - 1 = (x^2 - x + 1)(x^3 + x^2 - 1)
    def test_factorization_agrees_with_oracle(self, coeffs, lead):
        fac = factor_over_Q(Poly(coeffs + [lead]))
        ours = sorted((tuple(int(v) for v in f.coeffs), m) for f, m in fac.factors)
        assert ours == oracle_factor(coeffs + [lead])

    def test_cut_quintics_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        for p in cut_quintics(12):
            fac = factor_over_Q(p)
            ours = sorted((tuple(int(v) for v in f.coeffs), m) for f, m in fac.factors)
            assert ours == TestSympyAgreement.sympy_factors(sympy, p.primitive())

    def test_modular_work_on_cut_quintics(self, monkeypatch):
        # 40 irreducible quintics: the sieve stops once no degree in 2..3
        # survives.  With four usable primes each they took 115
        # distinct-degree factorizations; with the early stop, 74; from a
        # cold image cache, whose entries the quintics share, 32, extended
        # by 82 degrees in all.  A second pass creates and extends none.
        # The cache then holds those 32 and 5 images that are not
        # squarefree.
        clear_image_cache()
        created, extended = [], []
        init, extend = polys._ImageDDF.__init__, polys._ImageDDF._extend
        monkeypatch.setattr(polys._ImageDDF, "__init__", lambda e, f, q: created.append(q) or init(e, f, q))
        monkeypatch.setattr(polys._ImageDDF, "_extend", lambda e: extended.append(e) or extend(e))
        for p in cut_quintics():
            assert factor_over_Q(p).degrees() == [5]
        assert (len(created), len(extended)) == (32, 82)
        created.clear()
        extended.clear()
        for p in cut_quintics():
            assert factor_over_Q(p).degrees() == [5]
        assert created == extended == []
        assert polys._image_ddf.cache_info().currsize == 37


SWINNERTON_DYER_4 = Poly([1, 0, -10, 0, 1])  # sqrt(2) + sqrt(3)
SWINNERTON_DYER_8 = Poly([576, 0, -960, 0, 352, 0, -40, 0, 1])  # + sqrt(5)

# a cut-root polynomial of the refine benchmark; the divisor search took
# over a second to prove it irreducible
CUT_ROOT_OCTIC = Poly(
    [28497260281, 0, 0, -162183360000, -1567772480000, 0, 230400000000, 4454400000000, 21529600000000]
)


class TestZassenhaus:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 13, 47]), st.lists(st.integers(0, 46), min_size=1, max_size=12))
    def test_equal_degree_splitting(self, p, coeffs):
        f = [v % p for v in coeffs] + [1]
        deriv = polys._fp_trim([i * v % p for i, v in enumerate(f)][1:])
        assume(deriv and len(polys._fp_gcd(f, deriv, p)) == 1)  # squarefree
        rng = random.Random(5)
        product = [1]
        for k, part in fp_ddf_oracle(f, p):
            for u in factoring._fp_edf(part, k, p, rng):
                assert len(u) - 1 == k and u[-1] == 1
                assert list(fp_ddf_oracle(u, p)) == [(k, u)]
                product = polys._fp_mul(product, u, p)
        assert product == f

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 11]),
        st.lists(st.integers(-50, 50), min_size=2, max_size=10),
        st.integers(1, 7),
        st.integers(1, 40),
    )
    def test_hensel_lifting(self, p, coeffs, lead, k):
        h = Poly(coeffs + [lead])
        f = h.int_coeffs()
        ddf = polys._modp_ddf(f, p)
        assume(ddf is not None)  # squarefree mod p, lead a unit
        modular = [u for d, g in ddf for u in factoring._fp_edf(g, d, p, random.Random(0))]
        lifted = factoring._hensel_lift(f, modular, p, k)
        m = p**k
        product = [f[-1] % m]
        for u, v in zip(lifted, modular):
            assert u[-1] == 1 and [x % p for x in u] == v
            product = polys._fp_mul(product, u, m)
        assert product == polys._fp_trim([x % m for x in f])

    def test_no_usable_probe_prime(self):
        # the leading coefficient vanishes modulo every probe prime, so the
        # sieve and Zassenhaus work modulo larger primes
        lead = math.prod(ints.SMALL_PRIMES)
        a, b = Poly([1, 1, lead]), X**2 + X + c(1)
        assert all(polys._modp_ddf((a * b).int_coeffs(), q) is None for q in ints.SMALL_PRIMES)
        assert [f for f, _ in factor_over_Q(a * b).factors] == [b, a]

    def test_swinnerton_dyer(self, monkeypatch):
        # reducible modulo every prime, so recombination must prove them
        assert is_irreducible(SWINNERTON_DYER_4)
        assert is_irreducible(SWINNERTON_DYER_8)
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 0)
        for p in (SWINNERTON_DYER_4, SWINNERTON_DYER_8):
            with pytest.raises(FactorSearchBudget):
                factor_over_Q(p)

    def test_cut_root_octic(self, monkeypatch):
        # one recombination candidate: modulo 31 the octic splits into two
        # quartics, and only one of the two complementary subsets is tried
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
        assert is_irreducible(CUT_ROOT_OCTIC)
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 0)
        with pytest.raises(FactorSearchBudget):
            factor_over_Q(CUT_ROOT_OCTIC)


class TestRecombinationBudget:
    def test_library_error(self, monkeypatch):
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 0)
        with pytest.raises(FactorSearchBudget) as ei:
            factor_over_Q(X**5 + X - c(1))
        # the benchmark classifies by type and by these words
        assert isinstance(ei.value, DegreeCapExceeded)
        assert "search budget" in str(ei.value)

    def test_cli_exit_code(self, monkeypatch, capsys, tmp_path):
        # the equitable cutpoint of (x, x^5) has minimal polynomial
        # x^3 + x^2 - 1, which isolate-cutpoint finds by factoring
        # x^5 + x - 1; a fresh intern table keeps an earlier test's cached
        # minimal polynomial from answering
        measures = tmp_path / "m.txt"
        measures.write_text("a: x\nb: x^5\n")
        monkeypatch.setattr(alg, "_polyroot_intern", {})
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 0)
        code = cli_main(["isolate-cutpoint", "--measures", str(measures)])
        err = capsys.readouterr().err
        assert code == 1
        assert "search budget" in err


class TestSympyAgreement:
    @staticmethod
    def sympy_factors(sympy, p):
        x = sympy.Symbol("x")
        _, fl = sympy.factor_list(sympy.Poly([int(v) for v in reversed(p.coeffs)], x))
        out = []
        for f, m in fl:
            cs = [int(v) for v in reversed(f.all_coeffs())]
            if cs[-1] < 0:
                cs = [-v for v in cs]
            out.append((tuple(cs), m))
        return sorted(out)

    @pytest.mark.degree_cap(40)
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-9, 9), min_size=1, max_size=10),
                st.sampled_from([1, 2, 3, -1, 5]),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_products(self, specs):
        sympy = pytest.importorskip("sympy")
        p = c(1)
        for coeffs, lead, mult in specs:
            q = Poly(coeffs + [lead])
            if (p * q**mult).degree > 40:
                break
            p = p * q**mult
        fac = factor_over_Q(p)
        assert fac.reconstruct() == p
        ours = sorted((tuple(int(v) for v in f.coeffs), m) for f, m in fac.factors)
        assert ours == self.sympy_factors(sympy, p)

    @pytest.mark.degree_cap(40)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_products_of_degree_34_to_40(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        p = c(1)
        while p.degree < 34:
            q = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.choice([1, 2, 3, -1, 5])])
            if (p * q).degree <= 40:
                p = p * q
        fac = factor_over_Q(p)
        ours = sorted((tuple(int(v) for v in f.coeffs), m) for f, m in fac.factors)
        assert ours == self.sympy_factors(sympy, p)

    @pytest.mark.parametrize(
        "p",
        [
            SWINNERTON_DYER_8 * SWINNERTON_DYER_4,
            SWINNERTON_DYER_8 * SWINNERTON_DYER_8.compose(X + c(1)),
            SWINNERTON_DYER_4 * (X**2 + c(1)) * (X**3 - c(2)),
            SWINNERTON_DYER_8.compose(X**2 - c(3)) * (X**11 + X - c(1)),
        ],
    )
    @pytest.mark.degree_cap(40)
    def test_swinnerton_dyer_products(self, p):
        sympy = pytest.importorskip("sympy")
        fac = factor_over_Q(p)
        ours = sorted((tuple(int(v) for v in f.coeffs), m) for f, m in fac.factors)
        assert ours == self.sympy_factors(sympy, p)
