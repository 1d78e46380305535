"""Mechanically checked impossibility certificates.

Two families of verdicts:

* equitable-simple(d): no exact-arithmetic protocol over the measure pair
  (x, x^d) can output the equitable split point, because that point is a
  root of T^d + T - 1 and the reachable field towers cannot contain it.
  Depending on d the obstruction is either a degree-divisibility clash
  (the trinomial factors with a real-root factor of incompatible degree)
  or nonsolvability of the Galois group against radical towers.

* welfare(n, p): no such protocol maximizes utilitarian welfare for
  (x, ..., x, x^p), because the optimal interior cutpoint has degree
  p - 1 while reachable towers have degree a power of p.

A verdict of IMPOSSIBLE always carries a complete justification chain in
the narrative; NO-OBSTRUCTION-FOUND never claims possibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import AlgebraicNumber, nth_root
from .cake import Measure
from .dyadic import DyadicInterval
from .errors import UncoveredCaseError
from .factoring import Eisenstein, eisenstein, factor_over_Q, is_irreducible
from .ints import is_probable_prime
from .polys import Poly, count_roots_in, refine_root, sturm_isolate
from .tower import degree_obstruction


# -- trinomial classification -----------------------------------------------------


class TrinomialFamily(enum.Enum):
    MINUS_MINUS = "x^d - x - 1"
    PLUS_PLUS = "x^d + x + 1"
    PLUS_MINUS = "x^d + x - 1"

    def poly(self, d: int) -> Poly:
        a, b = {
            TrinomialFamily.MINUS_MINUS: (-1, -1),
            TrinomialFamily.PLUS_PLUS: (1, 1),
            TrinomialFamily.PLUS_MINUS: (1, -1),
        }[self]
        return Poly([b, a] + [0] * (d - 2) + [1])


class TrinomialStatus(enum.Enum):
    IRREDUCIBLE = "irreducible"
    FACTOR_PLUS = "factor-x^2+x+1"
    FACTOR_MINUS = "factor-x^2-x+1"
    SMALL_DEGREE = "small-degree"


@dataclass(frozen=True)
class TrinomialClass:
    d: int
    family: TrinomialFamily
    status: TrinomialStatus
    factor: Optional[Poly]
    cofactor: Optional[Poly]
    galois: str  # "S_<d>", "unknown" or "n/a"


def selmer_classify(d: int, family: TrinomialFamily) -> TrinomialClass:
    """Irreducibility classification of the trinomial families x^d - x - 1,
    x^d + x + 1, x^d + x - 1, depending only on parity and d mod 3; each
    claimed quadratic factor is verified by exact division."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    p = family.poly(d)
    factor: Optional[Poly] = None
    status = TrinomialStatus.IRREDUCIBLE
    if family is TrinomialFamily.PLUS_PLUS and d % 3 == 2:
        factor = Poly([1, 1, 1])
        status = TrinomialStatus.FACTOR_PLUS
    elif family is TrinomialFamily.PLUS_MINUS and d % 2 == 1 and d % 3 == 2:
        # substituting -x turns this family into x^d + x + 1 for odd d
        factor = Poly([1, -1, 1])
        status = TrinomialStatus.FACTOR_MINUS
    cofactor: Optional[Poly] = None
    if factor is not None:
        cofactor = p.exact_div(factor)  # raises if the classification lied
        galois = "n/a"
    else:
        a = int(p.coeff(1))
        b = int(p.coeff(0))
        galois = f"S_{d}" if osada_sd(d, a, b) is OsadaResult.S_D_CERTIFIED else "unknown"
    return TrinomialClass(d, family, status, factor, cofactor, galois)


class OsadaResult(enum.Enum):
    S_D_CERTIFIED = "S_d-certified"
    INAPPLICABLE = "criterion-inapplicable"


def osada_sd(d: int, a: int, b: int, c: int = 1) -> OsadaResult:
    """Symmetric-group certificate for the trinomial x^d + a*x + b where
    a = a0*c^d and b = b0*c^d: the group is the full symmetric group when
    the trinomial is irreducible and gcd(a0*c*(d-1), d*b0) = 1.  Returns
    INAPPLICABLE when either condition fails; never asserts "not S_d"."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    cd = c**d
    if a % cd != 0 or b % cd != 0:
        raise ValueError("a and b must be divisible by c^d")
    a0, b0 = a // cd, b // cd
    if math.gcd(abs(a0 * c * (d - 1)), abs(d * b0)) != 1:
        return OsadaResult.INAPPLICABLE
    tri = Poly([b, a] + [0] * (d - 2) + [1])
    if not _trinomial_irreducible(d, a, b, tri):
        return OsadaResult.INAPPLICABLE
    return OsadaResult.S_D_CERTIFIED


def _trinomial_irreducible(d: int, a: int, b: int, tri: Poly) -> bool:
    """Irreducibility by the trinomial classification when it applies,
    otherwise by the factorization pipeline."""
    if (a, b) == (-1, -1):
        return True
    if (a, b) == (1, 1):
        return d % 3 != 2
    if (a, b) == (1, -1):
        return d % 2 == 0 or d % 3 != 2
    return is_irreducible(tri)


class Solvability(enum.Enum):
    NONSOLVABLE_SD = "nonsolvable-S_d"
    REDUCIBLE_2_D2 = "reducible-2-and-(d-2)"
    SOLVABLE_SMALL_DEGREE = "solvable-small-degree"


@dataclass(frozen=True)
class SolvabilityVerdict:
    d: int
    kind: Solvability
    factor_degrees: tuple[int, ...] = ()


def solvability_verdict(d: int) -> SolvabilityVerdict:
    """Solvability-by-radicals status of x^d + x - 1.

    Degrees up to 4 are always solvable.  From degree 5 on, the
    irreducible cases have symmetric Galois group, hence are not
    solvable; the reducible cases (prime d with d = 2 mod 3) split into
    verified factors of degree 2 and d - 2.  Odd composite d with
    d = 2 mod 3 is not covered and raises."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if d <= 4:
        return SolvabilityVerdict(d, Solvability.SOLVABLE_SMALL_DEGREE)
    cls = selmer_classify(d, TrinomialFamily.PLUS_MINUS)
    if cls.status is TrinomialStatus.IRREDUCIBLE:
        if cls.galois != f"S_{d}":
            raise AssertionError("symmetric-group certificate unexpectedly failed")
        return SolvabilityVerdict(d, Solvability.NONSOLVABLE_SD)
    if not is_probable_prime(d):
        raise UncoveredCaseError(
            f"x^{d}+x-1 with composite odd d = 2 (mod 3) is outside the covered cases"
        )
    fac = factor_over_Q(TrinomialFamily.PLUS_MINUS.poly(d))
    degrees = tuple(sorted(f.degree for f, _ in fac.factors))
    if degrees != (2, d - 2):
        raise AssertionError(f"expected factor degrees (2, {d - 2}), got {degrees}")
    return SolvabilityVerdict(d, Solvability.REDUCIBLE_2_D2, degrees)


# -- equitable cutpoints ------------------------------------------------------------


def equitable_equation(m1: Measure, m2: Measure) -> Poly:
    """The cutpoint condition for an equitable split [0,t] | [t,1]: both
    orientations reduce to cdf1(t) + cdf2(t) - 1 = 0."""
    return m1.cdf + m2.cdf - Poly.constant(1)


@dataclass(frozen=True)
class EquitableCutpoint:
    value: AlgebraicNumber
    equation: Poly
    minpoly: Poly
    degree: int


def isolate_equitable_cutpoint(m1: Measure, m2: Measure) -> EquitableCutpoint:
    """The unique equitable cutpoint in (0, 1).  It exists because the
    equation is -1 at 0, +1 at 1, and strictly increasing."""
    eq = equitable_equation(m1, m2)
    value = AlgebraicNumber.real_root(eq, 0, 1)
    mp = value.minimal_polynomial()
    return EquitableCutpoint(value, eq, mp, mp.degree)


# -- certificates ---------------------------------------------------------------------


class Verdict(enum.Enum):
    IMPOSSIBLE = "IMPOSSIBLE"
    NO_OBSTRUCTION_FOUND = "NO-OBSTRUCTION-FOUND"


@dataclass(frozen=True)
class GaloisFact:
    kind: str  # "symmetric-nonsolvable" | "reducible-2-d2" | "degree-obstruction" | "none"
    data: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.data)}


@dataclass(frozen=True)
class NarrativeStep:
    code: str
    statement: str
    data: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        return {"code": self.code, "statement": self.statement, **dict(self.data)}


@dataclass(frozen=True)
class Certificate:
    target: str
    equation: Poly
    factorization: tuple[tuple[Poly, int], ...]  # (factor, its degree)
    real_root_factor: Poly
    real_root_isolator: DyadicInterval
    tower_prime_set: frozenset[int]
    galois_fact: GaloisFact
    verdict: Verdict
    narrative: tuple[NarrativeStep, ...]


def _unit_root_isolator(p: Poly) -> DyadicInterval:
    ivs = sturm_isolate(p, DyadicInterval.make(0, 1))
    assert len(ivs) == 1, "expected exactly one root in (0, 1)"
    return refine_root(p, ivs[0], Fraction(1, 64))


def check_impossibility_equitable(d: int, allow_sqrt: bool = False) -> Certificate:
    """Certificate for the equitable-split question over (x, x^d)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        equation = Poly([-1, 2])
        narrative = (
            NarrativeStep(
                "equation",
                "an equitable simple split at t over (x, x) forces 2t - 1 = 0",
                (("equation", str(equation)),),
            ),
            NarrativeStep(
                "rational-cutpoint",
                "the cutpoint 1/2 is rational, so exact protocols can output it",
            ),
            NarrativeStep("verdict", "no obstruction found"),
        )
        return Certificate(
            target=f"equitable-simple(d={d})",
            equation=equation,
            factorization=((equation.primitive(), 1),),
            real_root_factor=equation.primitive(),
            real_root_isolator=_unit_root_isolator(equation),
            tower_prime_set=frozenset({2} if allow_sqrt else set()),
            galois_fact=GaloisFact("none"),
            verdict=Verdict.NO_OBSTRUCTION_FOUND,
            narrative=narrative,
        )
    equation = TrinomialFamily.PLUS_MINUS.poly(d)
    primes = frozenset({d} if is_probable_prime(d) else set()) | frozenset({2} if allow_sqrt else set())
    steps: list[NarrativeStep] = [
        NarrativeStep(
            "equation",
            f"an equitable simple split at t over (x, x^{d}) forces t^{d} + t - 1 = 0; "
            "such a t exists and is unique in (0, 1) since the equation is -1 at 0, "
            "+1 at 1, and strictly increasing (derived here, not assumed)",
            (("equation", str(equation)),),
        )
    ]
    if d <= 4:
        steps.append(
            NarrativeStep(
                "small-degree",
                f"degree {d} polynomials are solvable by radicals; no degree or "
                "solvability obstruction applies",
            )
        )
        steps.append(NarrativeStep("verdict", "no obstruction found"))
        fac = factor_over_Q(equation)
        real_factor = _real_root_factor(fac)
        return Certificate(
            target=f"equitable-simple(d={d})",
            equation=equation,
            factorization=tuple((f, f.degree) for f, _ in fac.factors),
            real_root_factor=real_factor,
            real_root_isolator=_unit_root_isolator(real_factor),
            tower_prime_set=primes,
            galois_fact=GaloisFact("none"),
            verdict=Verdict.NO_OBSTRUCTION_FOUND,
            narrative=tuple(steps),
        )
    if is_probable_prime(d) and d % 3 == 2:
        return _equitable_by_degree(d, allow_sqrt, equation, steps)
    if d % 2 == 0 or d % 3 != 2:
        return _equitable_by_solvability(d, allow_sqrt, equation, steps, primes)
    raise UncoveredCaseError(
        f"equitable certificate for composite odd d={d} with d = 2 (mod 3) is not covered"
    )


def _real_root_factor(fac) -> Poly:
    """The unique factor with a root in (0, 1)."""
    hits = [f for f, _ in fac.factors if count_roots_in(f, Fraction(0), Fraction(1)) >= 1]
    assert len(hits) == 1, "expected a single factor carrying the unit-interval root"
    return hits[0]


def _equitable_by_degree(d: int, allow_sqrt: bool, equation: Poly, steps: list[NarrativeStep]) -> Certificate:
    fac = factor_over_Q(equation)
    factors = tuple((f, f.degree) for f, _ in fac.factors)
    degrees = sorted(f.degree for f, _ in fac.factors)
    assert degrees == [2, d - 2]
    steps.append(
        NarrativeStep(
            "factorization",
            f"t^{d} + t - 1 factors into verified irreducible parts of degrees "
            f"{degrees[0]} and {degrees[1]}",
            (("factors", [str(f) for f, _ in fac.factors]),),
        )
    )
    quad = next(f for f, _ in fac.factors if f.degree == 2)
    disc = quad.coeff(1) ** 2 - 4 * quad.coeff(2) * quad.coeff(0)
    assert disc < 0
    steps.append(
        NarrativeStep(
            "quadratic-no-real-roots",
            f"the quadratic factor {quad} has negative discriminant {disc}, "
            "hence no real roots; the real cutpoint must satisfy the other factor",
            (("discriminant", str(disc)),),
        )
    )
    real_factor = next(f for f, _ in fac.factors if f.degree == d - 2)
    isolator = _unit_root_isolator(real_factor)
    steps.append(
        NarrativeStep(
            "real-root-factor",
            f"the degree-{d - 2} factor has exactly one root in (0, 1)",
            (("factor", str(real_factor)), ("isolator", str(isolator))),
        )
    )
    steps.append(
        NarrativeStep(
            "cutpoint-degree",
            f"the cutpoint generates a field of degree {d - 2} over the rationals",
            (("degree", d - 2),),
        )
    )
    primes = frozenset({d}) | (frozenset({2}) if allow_sqrt else frozenset())
    sqrt_note = " (and 2 for mediator square roots)" if allow_sqrt else ""
    steps.append(
        NarrativeStep(
            "tower-primes",
            f"every query answer over (x, x^{d}) extends the field by degree 1 or "
            f"{d}{sqrt_note}, so the final field degree is a product of powers of "
            f"{sorted(primes)}",
            (("primes", sorted(primes)),),
        )
    )
    obstructed = degree_obstruction(d - 2, set(primes))
    assert obstructed
    steps.append(
        NarrativeStep(
            "degree-obstruction",
            f"{d - 2} has a prime factor outside {sorted(primes)}, so it divides no "
            "reachable field degree; the multiplicative degree law fails",
            (("target_degree", d - 2), ("allowed_primes", sorted(primes))),
        )
    )
    steps.append(NarrativeStep("verdict", "the equitable cutpoint is unreachable"))
    return Certificate(
        target=f"equitable-simple(d={d})",
        equation=equation,
        factorization=factors,
        real_root_factor=real_factor,
        real_root_isolator=isolator,
        tower_prime_set=primes,
        galois_fact=GaloisFact(
            "degree-obstruction",
            (("target_degree", d - 2), ("allowed_primes", sorted(primes))),
        ),
        verdict=Verdict.IMPOSSIBLE,
        narrative=tuple(steps),
    )


def _equitable_by_solvability(
    d: int, allow_sqrt: bool, equation: Poly, steps: list[NarrativeStep], primes: frozenset[int]
) -> Certificate:
    verdict = solvability_verdict(d)
    assert verdict.kind is Solvability.NONSOLVABLE_SD
    steps.append(
        NarrativeStep(
            "irreducible-trinomial",
            f"t^{d} + t - 1 is irreducible by the trinomial classification "
            "(substituting -t reduces it to a family irreducible at this degree)",
        )
    )
    steps.append(
        NarrativeStep(
            "galois-symmetric",
            f"the trinomial criterion certifies Galois group S_{d} "
            f"(irreducible and gcd({d - 1}, {d}) = 1)",
            (("group", f"S_{d}"),),
        )
    )
    steps.append(
        NarrativeStep(
            "nonsolvable",
            f"S_{d} is not solvable for degree {d} >= 5",
        )
    )
    steps.append(
        NarrativeStep(
            "radical-tower",
            "every reachable cutpoint lies in a radical extension of the rationals "
            "(each cut answer is a d-th root over the previous field, and mediator "
            "square roots stay radical), so an exact protocol output would make the "
            "irreducible equation solvable by radicals",
        )
    )
    steps.append(NarrativeStep("verdict", "the equitable cutpoint is unreachable"))
    isolator = _unit_root_isolator(equation)
    return Certificate(
        target=f"equitable-simple(d={d})",
        equation=equation,
        factorization=((equation, d),),
        real_root_factor=equation,
        real_root_isolator=isolator,
        tower_prime_set=primes,
        galois_fact=GaloisFact("symmetric-nonsolvable", (("group", f"S_{d}"),)),
        verdict=Verdict.IMPOSSIBLE,
        narrative=tuple(steps),
    )


def check_impossibility_welfare(n: int, p: int) -> Certificate:
    """Certificate that welfare maximization over (x, ..., x, x^p) is
    unreachable for n >= 2 players and odd prime p."""
    if n < 2:
        raise ValueError("need at least two players")
    if p == 2:
        raise ValueError(
            "p = 2 gives a cutpoint of degree 1 over a degree-2^l tower: no obstruction"
        )
    if not is_probable_prime(p) or p < 3:
        raise ValueError("p must be a prime >= 3")
    station = Poly([-1] + [0] * (p - 2) + [p])  # p*T^(p-1) - 1
    steps: list[NarrativeStep] = [
        NarrativeStep(
            "stationarity",
            f"welfare as a function of an interior cutpoint x owned by the x^{p} "
            f"player has derivative 1 - {p}x^{p - 1}; at a maximum the cutpoint "
            f"satisfies {p}x^{p - 1} - 1 = 0",
            (("equation", str(station)), ("players", n)),
        )
    ]
    rev = station.reverse()
    assert eisenstein(rev, p) is Eisenstein.IRREDUCIBLE_CERTIFIED
    steps.append(
        NarrativeStep(
            "eisenstein-reversal",
            f"the reversal {rev} is Eisenstein at {p}, so the stationarity "
            "polynomial is irreducible",
            (("reversal", str(rev)), ("prime", p)),
        )
    )
    steps.append(
        NarrativeStep(
            "cutpoint-degree",
            f"the optimal cutpoint therefore has exact degree {p - 1} over the rationals",
            (("degree", p - 1),),
        )
    )
    assert 1 < p - 1 < p
    steps.append(
        NarrativeStep(
            "degree-bounds",
            f"consistency: the cutpoint is irrational of degree strictly between 1 and {p}",
            (("lower", 1), ("upper", p)),
        )
    )
    steps.append(
        NarrativeStep(
            "tower-primes",
            f"with {n - 1} uniform players and one x^{p} player, every query answer "
            f"extends the field by degree 1 or {p}; the final degree is a power of {p}",
            (("primes", [p]),),
        )
    )
    assert degree_obstruction(p - 1, {p})
    steps.append(
        NarrativeStep(
            "degree-obstruction",
            f"{p - 1} does not divide any power of {p}, so the multiplicative "
            "degree law rules the cutpoint out of every reachable field",
            (("target_degree", p - 1), ("allowed_primes", [p])),
        )
    )
    steps.append(NarrativeStep("verdict", "the welfare-maximizing division is unreachable"))
    cutpoint = nth_root(Fraction(1, p), p - 1)
    isolator = cutpoint.isolating_interval()
    return Certificate(
        target=f"welfare(n={n}, p={p})",
        equation=station,
        factorization=((station, p - 1),),
        real_root_factor=station,
        real_root_isolator=isolator,
        tower_prime_set=frozenset({p}),
        galois_fact=GaloisFact(
            "degree-obstruction",
            (("target_degree", p - 1), ("allowed_primes", [p])),
        ),
        verdict=Verdict.IMPOSSIBLE,
        narrative=tuple(steps),
    )


# -- independent soundness recheck ----------------------------------------------------


@dataclass(frozen=True)
class CertificateCheck:
    product_identity: bool
    irreducibility: bool
    real_root_location: bool
    obstruction: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.product_identity
            and self.irreducibility
            and self.real_root_location
            and self.obstruction
        )


def verify_certificate(cert: Certificate) -> CertificateCheck:
    """Recompute every load-bearing claim of an IMPOSSIBLE certificate:
    the factorization product identity, each irreducibility claim via the
    pipeline, the real-root location via Sturm counting, and the final
    obstruction step."""
    rebuilt = Poly.constant(1)
    for f, _ in cert.factorization:
        rebuilt = rebuilt * f
    q, r = divmod(cert.equation, rebuilt)
    product_ok = r.is_zero and q.degree == 0
    irreducible_ok = all(is_irreducible(f) for f, _ in cert.factorization)
    iso = cert.real_root_isolator
    root_ok = (
        count_roots_in(cert.real_root_factor, iso.lo, iso.hi) == 1
        and count_roots_in(cert.real_root_factor, Fraction(0), Fraction(1)) == 1
    )
    gf = cert.galois_fact.as_dict()
    if gf["kind"] == "degree-obstruction":
        obstruction_ok = degree_obstruction(int(gf["target_degree"]), set(gf["allowed_primes"]))
    elif gf["kind"] == "symmetric-nonsolvable":
        dd = cert.equation.degree
        cls = selmer_classify(dd, TrinomialFamily.PLUS_MINUS)
        obstruction_ok = (
            cls.status is TrinomialStatus.IRREDUCIBLE and cls.galois == f"S_{dd}" and dd >= 5
        )
    else:
        obstruction_ok = cert.verdict is Verdict.NO_OBSTRUCTION_FOUND
    return CertificateCheck(product_ok, irreducible_ok, root_ok, obstruction_ok)
