import dataclasses
import math
from fractions import Fraction

import pytest

from cakelab import (
    AlgebraicNumber,
    Allocation,
    DegreeCapExceeded,
    Measure,
    OsadaResult,
    Poly,
    Solvability,
    TrinomialFamily,
    TrinomialStatus,
    UncoveredCaseError,
    Verdict,
    check_impossibility_equitable,
    check_impossibility_welfare,
    equitable_equation,
    is_irreducible,
    isolate_equitable_cutpoint,
    max_welfare,
    nth_root,
    osada_sd,
    selmer_classify,
    solvability_verdict,
    verify_certificate,
    welfare,
)
from cakelab import certificates, factoring
from cakelab.ints import SMALL_PRIMES
from cakelab.polys import _modp_ddf, rational_roots

from conftest import time_limit
from _oracle import kronecker_find_factor

X = Poly.x()


def c(v):
    return Poly.constant(v)


def uniform(label="u"):
    return Measure.make(X, label)


def power(d, label=None):
    return Measure.make(Poly.monomial(d), label or f"pow{d}")


class TestEquitableEquation:
    def test_uniform_vs_quintic(self):
        assert str(equitable_equation(uniform(), power(5))) == "x^5 + x - 1"

    def test_identical_uniform(self):
        assert str(equitable_equation(uniform("a"), uniform("b"))) == "2*x - 1"

    def test_square_vs_cube(self):
        assert str(equitable_equation(power(2), power(3))) == "x^3 + x^2 - 1"


class TestEquitableCutpoint:
    def test_uniform_vs_quintic(self):
        cp = isolate_equitable_cutpoint(uniform(), power(5))
        assert str(cp.minpoly) == "x^3 + x^2 - 1"
        assert cp.degree == 3
        assert cp.value.decimal(9) == "0.754877666…"

    def test_identical_uniform(self):
        cp = isolate_equitable_cutpoint(uniform("a"), uniform("b"))
        assert cp.value.as_rational() == Fraction(1, 2)
        assert cp.degree == 1

    def test_uniform_vs_square(self):
        cp = isolate_equitable_cutpoint(uniform(), power(2))
        assert str(cp.minpoly) == "x^2 + x - 1"
        assert cp.degree == 2
        # golden section (sqrt(5) - 1) / 2 via the quadratic formula
        golden = (nth_root(5, 2) - 1) / 2
        assert (cp.value - golden).sign() == 0


class TestSelmer:
    def test_reducible_exactly_at_5_and_11(self):
        for d in range(5, 13):
            cls = selmer_classify(d, TrinomialFamily.PLUS_MINUS)
            if d in (5, 11):
                assert cls.status is TrinomialStatus.FACTOR_MINUS
                # verified by exact division
                assert cls.factor == X**2 - X + c(1)
                assert cls.factor * cls.cofactor == TrinomialFamily.PLUS_MINUS.poly(d)
            else:
                assert cls.status is TrinomialStatus.IRREDUCIBLE

    def test_independent_probes_for_irreducible_cases(self):
        for d in range(5, 13):
            if d in (5, 11):
                continue
            p = TrinomialFamily.PLUS_MINUS.poly(d)
            if d <= 8:
                assert not rational_roots(p)
                assert kronecker_find_factor(p.int_coeffs(), d // 2) is None
            else:
                ddfs = [_modp_ddf(p.int_coeffs(), q) for q in SMALL_PRIMES]
                assert any(ddf is not None and ddf[0][0] == d for ddf in ddfs)

    def test_always_irreducible_family(self):
        for d in (2, 3, 5, 8, 11):
            cls = selmer_classify(d, TrinomialFamily.MINUS_MINUS)
            assert cls.status is TrinomialStatus.IRREDUCIBLE
            assert is_irreducible(TrinomialFamily.MINUS_MINUS.poly(d))

    def test_plus_plus_family(self):
        cls = selmer_classify(8, TrinomialFamily.PLUS_PLUS)  # 8 = 2 mod 3
        assert cls.status is TrinomialStatus.FACTOR_PLUS
        assert cls.factor == X**2 + X + c(1)
        assert selmer_classify(9, TrinomialFamily.PLUS_PLUS).status is TrinomialStatus.IRREDUCIBLE

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            selmer_classify(1, TrinomialFamily.PLUS_MINUS)


class TestOneClassification:
    """Every trinomial fact the certificates use comes from the one
    classification; the factorization pipeline checks it independently."""

    @pytest.mark.parametrize("family", list(TrinomialFamily), ids=lambda f: f.name)
    def test_agrees_with_the_pipeline(self, family):
        for d in range(2, 31):
            p = family.poly(d)
            cls = selmer_classify(d, family)
            irreducible = is_irreducible(p)
            if cls.status is TrinomialStatus.IRREDUCIBLE:
                assert irreducible and cls.factor is None and cls.cofactor is None
            else:
                assert cls.factor * cls.cofactor == p
                # at d = 2 the quadratic x^2 + x + 1 is the trinomial itself
                assert irreducible == (cls.cofactor.degree == 0)
            a, b = int(p.coeff(1)), int(p.coeff(0))
            certified = irreducible and math.gcd(a * (d - 1), d * b) == 1
            assert (osada_sd(d, a, b) is OsadaResult.S_D_CERTIFIED) == certified

    def test_fourth_sign_pattern_agrees_with_the_pipeline(self):
        # x^d - x + 1 is not a family, but the same rule decides it
        for d in range(2, 31):
            certified = is_irreducible(Poly([1, -1] + [0] * (d - 2) + [1]))
            assert (osada_sd(d, -1, 1) is OsadaResult.S_D_CERTIFIED) == certified

    @pytest.mark.parametrize("d", [5, 11, 17, 23, 29, 41, 47])
    def test_reducible_certificates_without_recombination(self, monkeypatch, d):
        # the (2, d - 2) split comes from exact division, so no Zassenhaus
        # recombination of x^d + x - 1 is needed to issue or recheck it
        monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 0)
        assert solvability_verdict(d).factor_degrees == (2, d - 2)
        cert = check_impossibility_equitable(d)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert verify_certificate(cert).all_ok


class TestOsada:
    def test_degree_six(self):
        assert osada_sd(6, 1, -1) is OsadaResult.S_D_CERTIFIED

    def test_degree_five_minus_minus(self):
        assert osada_sd(5, -1, -1) is OsadaResult.S_D_CERTIFIED

    def test_gcd_failure(self):
        assert osada_sd(4, 2, 2) is OsadaResult.INAPPLICABLE

    def test_gcd_identity_for_the_checked_family(self):
        # a0 = 1, b0 = -1, c = 1: gcd(d-1, d) = 1 for every d
        for d in range(2, 101):
            assert math.gcd(d - 1, d) == 1


class TestSolvability:
    def test_nonsolvable_even(self):
        v = solvability_verdict(6)
        assert v.kind is Solvability.NONSOLVABLE_SD

    def test_reducible_prime(self):
        v = solvability_verdict(5)
        assert v.kind is Solvability.REDUCIBLE_2_D2
        assert v.factor_degrees == (2, 3)

    def test_small_degree(self):
        assert solvability_verdict(2).kind is Solvability.SOLVABLE_SMALL_DEGREE

    def test_uncovered_composite(self):
        with pytest.raises(UncoveredCaseError):
            solvability_verdict(35)

    @pytest.mark.degree_cap(48)
    def test_reducible_prime_past_default_cap(self):
        v = solvability_verdict(17)
        assert v.kind is Solvability.REDUCIBLE_2_D2
        assert v.factor_degrees == (2, 15)


class TestEquitableCertificates:
    def test_degree_five(self):
        cert = check_impossibility_equitable(5)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert sorted(str(f) for f, _ in cert.factorization) == [
            "x^2 - x + 1",
            "x^3 + x^2 - 1",
        ]
        assert cert.real_root_factor.degree == 3
        assert cert.tower_prime_set == {5}
        assert verify_certificate(cert).all_ok

    def test_degree_five_with_sqrt(self):
        cert = check_impossibility_equitable(5, allow_sqrt=True)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert cert.tower_prime_set == {2, 5}
        assert verify_certificate(cert).all_ok

    def test_degree_one_no_obstruction(self):
        cert = check_impossibility_equitable(1)
        assert cert.verdict is Verdict.NO_OBSTRUCTION_FOUND

    def test_degree_eleven(self):
        cert = check_impossibility_equitable(11)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert sorted(deg for _, deg in cert.factorization) == [2, 9]
        # neither factor degree is a power of 11
        for _, deg in cert.factorization:
            n = deg
            while n % 11 == 0:
                n //= 11
            assert n != 1
        assert verify_certificate(cert).all_ok

    def test_grid_routes(self):
        for d in (1, 2, 3, 4):
            assert check_impossibility_equitable(d).verdict is Verdict.NO_OBSTRUCTION_FOUND
        for d in (6, 7, 8, 9, 10, 12):
            cert = check_impossibility_equitable(d)
            assert cert.verdict is Verdict.IMPOSSIBLE
            assert cert.galois_fact.kind == "symmetric-nonsolvable"

    def test_uncovered(self):
        with pytest.raises(UncoveredCaseError):
            check_impossibility_equitable(35)

    @pytest.mark.parametrize("d", range(13, 65))
    def test_issued_and_verified_at_default_cap(self, d):
        # every degree up to 64 but 35, 53 and 59 is issued and rechecked
        # with no cap set, each within 0.5 s when last measured: the recheck
        # proves each factor irreducible by a prime witness, past the cap
        # too.  53 and 59 fail at issuance, on the proof that their
        # cofactors of degree 51 and 57 are irreducible
        assert factoring.degree_cap() == factoring.DEFAULT_DEGREE_CAP == 48
        if d == 35:
            with pytest.raises(UncoveredCaseError):
                check_impossibility_equitable(d)
            return
        if d in (53, 59):
            with pytest.raises(DegreeCapExceeded, match=f"degree {d - 2} exceeds"):
                check_impossibility_equitable(d)
            return
        with time_limit(1):
            cert = check_impossibility_equitable(d)
            assert cert.verdict is Verdict.IMPOSSIBLE
            assert verify_certificate(cert).all_ok

    @pytest.mark.degree_cap(64)
    @pytest.mark.parametrize("d", [*range(13, 31), *range(49, 65)])
    def test_issued_and_verified_at_raised_cap(self, d):
        # the cap set by set_degree_cap governs issuing and rechecking alike,
        # past the default cap too
        cert = check_impossibility_equitable(d)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert verify_certificate(cert).all_ok

    def test_recheck_by_prime_witness_needs_no_pipeline(self, monkeypatch):
        # the factor-degree patterns of x^50 + x - 1 at a few primes leave
        # no proper degree, so the recheck never reaches the capped pipeline
        cert = check_impossibility_equitable(50)
        monkeypatch.setattr(certificates, "is_irreducible", None)
        assert verify_certificate(cert).all_ok

    def test_recheck_rejects_a_reducible_factor(self):
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) reduces to a product at
        # every prime, so no witness is found and the pipeline refutes the
        # claim
        cert = check_impossibility_equitable(6)
        f = Poly([4, 0, 0, 0, 1])
        forged = dataclasses.replace(cert, equation=f, factorization=((f, 4),))
        check = verify_certificate(forged)
        assert check.product_identity and not check.irreducibility

    def test_narrative_chain_pinned(self):
        codes = [s.code for s in check_impossibility_equitable(5).narrative]
        assert codes == [
            "equation",
            "factorization",
            "quadratic-no-real-roots",
            "real-root-factor",
            "cutpoint-degree",
            "tower-primes",
            "degree-obstruction",
            "verdict",
        ]
        codes6 = [s.code for s in check_impossibility_equitable(6).narrative]
        assert codes6 == [
            "equation",
            "irreducible-trinomial",
            "galois-symmetric",
            "nonsolvable",
            "radical-tower",
            "verdict",
        ]

    def test_consistency_with_simulation(self):
        cert = check_impossibility_equitable(5)
        cp = isolate_equitable_cutpoint(uniform(), power(5))
        assert cp.degree == cert.real_root_factor.degree == 3
        assert cp.minpoly == cert.real_root_factor


class TestWelfareCertificates:
    def test_p3(self):
        cert = check_impossibility_welfare(2, 3)
        assert cert.verdict is Verdict.IMPOSSIBLE
        assert str(cert.equation) == "3*x^2 - 1"
        assert cert.real_root_factor.degree == 2
        assert verify_certificate(cert).all_ok

    def test_p5(self):
        cert = check_impossibility_welfare(2, 5)
        assert str(cert.equation) == "5*x^4 - 1"
        assert cert.real_root_factor.degree == 4

    def test_recheck_for_every_prime_below_110(self, monkeypatch):
        # the binomial p*x^(p-1) - 1 is Eisenstein at p on its reversal; for
        # p = 61, 67, 79, 83, 89, 103 and 107 no prime among the first 64
        # keeps it irreducible of full degree, and the capped pipeline
        # would raise.  The recheck reads the Eisenstein witness first
        def no_pipeline(f):
            raise AssertionError(f"the pipeline was asked about {f}")

        monkeypatch.setattr(certificates, "is_irreducible", no_pipeline)
        for p in range(3, 110):
            if p in SMALL_PRIMES or (p > SMALL_PRIMES[-1] and all(p % q for q in range(2, p))):
                assert verify_certificate(check_impossibility_welfare(2, p)).all_ok, p

    def test_eisenstein_witness_divides_the_non_leading_gcd(self):
        # x^3 + 6 is Eisenstein at 2 and 3; 6x^3 + 1 on its reversal.  For
        # x^2 - 4 the only prime of the gcd 4 is 2, whose square divides the
        # constant, and the pipeline finds the factors
        assert certificates._irreducible(X**3 + Poly.constant(6))
        assert certificates._irreducible(Poly([1, 0, 0, 6]))
        assert not certificates._irreducible(X**2 - Poly.constant(4))

    def test_recheck_factors_no_integer(self):
        # the gcd M61 * M89 of the non-leading coefficients is a product of
        # primes of 61 and 89 bits, which Pollard rho needs minutes to
        # split.  It is no witness, and the sieve or the pipeline decides
        f = X**4 + c((2**61 - 1) * (2**89 - 1))
        cert = dataclasses.replace(check_impossibility_welfare(2, 3), equation=f, factorization=((f, 4),))
        with time_limit(1):
            assert certificates._irreducible(f)
            check = verify_certificate(cert)
        assert check.product_identity and check.irreducibility

    def test_n_independent(self):
        for n in (2, 3, 4):
            cert = check_impossibility_welfare(n, 3)
            assert cert.verdict is Verdict.IMPOSSIBLE
            assert f"n={n}" in cert.target

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            check_impossibility_welfare(2, 2)
        with pytest.raises(ValueError):
            check_impossibility_welfare(2, 9)
        with pytest.raises(ValueError):
            check_impossibility_welfare(1, 3)

    def test_narrative_records_exact_degree_and_bounds(self):
        codes = [s.code for s in check_impossibility_welfare(2, 5).narrative]
        assert "eisenstein-reversal" in codes
        assert "cutpoint-degree" in codes
        assert "degree-bounds" in codes

    def test_stationarity_marks_a_maximum(self):
        # perturbing the optimal cut by 1/1000 strictly decreases welfare
        for p in (3, 5, 7):
            measures = [uniform("a"), power(p, "b")]
            opt = max_welfare(measures)
            w_opt = welfare(opt, measures)
            x0 = opt.pieces[0][0][1]
            for delta in (Fraction(1, 1000), Fraction(-1, 1000)):
                cut = x0 + delta
                alloc = Allocation(
                    (((AlgebraicNumber(0), cut),), ((cut, AlgebraicNumber(1)),))
                )
                assert (w_opt - welfare(alloc, measures)).sign() > 0
