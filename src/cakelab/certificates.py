"""Mechanically checked impossibility certificates.

Two families of verdicts:

* equitable-simple(d): no exact-arithmetic protocol over the measure pair
  (x, x^d) can output the equitable split point, because that point is a
  root of T^d + T - 1 and the reachable field towers cannot contain it.
  Every fact about the trinomial comes from one classification,
  `selmer_classify`: x^2 - x + 1 divides it exactly when d is odd and
  d = 2 (mod 3) (Selmer 1956), checked by exact division.  For prime such
  d the cofactor of degree d - 2 is proved irreducible and its degree
  clashes with the tower degrees; otherwise the trinomial is irreducible,
  Osada's criterion (1987) gives the symmetric group, and nonsolvability
  rules out radical towers.  `check_impossibility_equitable` is the one
  builder of this certificate: `solvability_verdict` hands it the
  classification it read, each case (d = 1, small degree, reducible,
  nonsolvable) gives its factorization, Galois fact, verdict and narrative
  steps, and the real root is isolated once.

* welfare(n, p): no such protocol maximizes utilitarian welfare for
  (x, ..., x, x^p), because the optimal interior cutpoint has degree
  p - 1 while reachable towers have degree a power of p.

A verdict of IMPOSSIBLE always carries a complete justification chain in
the narrative; NO-OBSTRUCTION-FOUND never claims possibility.
`verify_certificate` rechecks each irreducibility claim by an Eisenstein
prime or by factor-degree patterns mod primes that leave no proper degree
before it asks the capped factorization pipeline.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import AlgebraicNumber, nth_root
from .cake import Measure
from .dyadic import DyadicInterval
from .errors import UncoveredCaseError
from .factoring import Eisenstein, _eisenstein_witness, eisenstein, is_irreducible
from .ints import is_probable_prime, primes
from .polys import Poly, _modp_ddf, _pattern, _sieve_degrees, count_roots_in, refine_root, sturm_isolate
from .tower import CERTIFICATE_PRIMES, degree_obstruction


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


def _selmer_factor(d: int, a: int, b: int) -> Optional[Poly]:
    """The quadratic x^2 +- x + 1 that divides x^d + a*x + b for a, b = +-1,
    or None when none does, and then the trinomial is irreducible.  With
    e = a*b, substituting e*x and multiplying by e^d gives x^d + c*x + c,
    c = b*e^d.  Selmer (1956): x^d - x - 1 is irreducible, and x^d + x + 1
    is irreducible unless d = 2 (mod 3), when x^2 + x + 1 divides it;
    undoing the substitution gives x^2 + e*x + 1.  At d = 2 that quadratic
    is the trinomial itself, which is irreducible."""
    e = a * b
    if b * e**d == 1 and d % 3 == 2:
        return Poly([1, e, 1])
    return None


def selmer_classify(d: int, family: TrinomialFamily) -> TrinomialClass:
    """Irreducibility classification of the trinomial families x^d - x - 1,
    x^d + x + 1, x^d + x - 1, depending only on parity and d mod 3; each
    claimed quadratic factor is verified by exact division."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    p = family.poly(d)
    a, b = int(p.coeff(1)), int(p.coeff(0))
    factor = _selmer_factor(d, a, b)
    if factor is None:
        galois = f"S_{d}" if osada_sd(d, a, b) is OsadaResult.S_D_CERTIFIED else "unknown"
        return TrinomialClass(d, family, TrinomialStatus.IRREDUCIBLE, None, None, galois)
    status = TrinomialStatus.FACTOR_PLUS if factor.coeff(1) > 0 else TrinomialStatus.FACTOR_MINUS
    # exact_div raises if the classification lied
    return TrinomialClass(d, family, status, factor, p.exact_div(factor), "n/a")


class OsadaResult(enum.Enum):
    S_D_CERTIFIED = "S_d-certified"
    INAPPLICABLE = "criterion-inapplicable"


def osada_sd(d: int, a: int, b: int) -> OsadaResult:
    """Symmetric-group certificate for the trinomial x^d + a*x + b: the
    group is the full symmetric group when the trinomial is irreducible and
    gcd(a*(d-1), d*b) = 1.  Returns INAPPLICABLE when either condition
    fails; never asserts "not S_d".  Irreducibility comes from Selmer's
    classification for a, b = +-1 and from the factorization pipeline
    otherwise."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if math.gcd(a * (d - 1), d * b) != 1:
        return OsadaResult.INAPPLICABLE
    if abs(a) == abs(b) == 1:
        factor = _selmer_factor(d, a, b)
        irreducible = factor is None or factor.degree == d
    else:
        irreducible = is_irreducible(Poly([b, a] + [0] * (d - 2) + [1]))
    return OsadaResult.S_D_CERTIFIED if irreducible else OsadaResult.INAPPLICABLE


class Solvability(enum.Enum):
    NONSOLVABLE_SD = "nonsolvable-S_d"
    REDUCIBLE_2_D2 = "reducible-2-and-(d-2)"
    SOLVABLE_SMALL_DEGREE = "solvable-small-degree"


@dataclass(frozen=True)
class SolvabilityVerdict:
    d: int
    kind: Solvability
    factor_degrees: tuple[int, ...] = ()
    trinomial: Optional[TrinomialClass] = None  # the classification read, from degree 5 on


def solvability_verdict(d: int) -> SolvabilityVerdict:
    """Solvability-by-radicals status of x^d + x - 1.

    Degrees up to 4 are always solvable.  From degree 5 on, the
    irreducible cases have symmetric Galois group, hence are not
    solvable; the reducible cases (prime d with d = 2 mod 3) split into
    verified factors of degree 2 and d - 2.  Odd composite d with
    d = 2 mod 3 is not covered and raises.  From degree 5 on the verdict
    carries the classification it read."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if d <= 4:
        return SolvabilityVerdict(d, Solvability.SOLVABLE_SMALL_DEGREE)
    cls = selmer_classify(d, TrinomialFamily.PLUS_MINUS)
    if cls.status is TrinomialStatus.IRREDUCIBLE:
        if cls.galois != f"S_{d}":
            raise AssertionError("symmetric-group certificate unexpectedly failed")
        return SolvabilityVerdict(d, Solvability.NONSOLVABLE_SD, trinomial=cls)
    if not is_probable_prime(d):
        raise UncoveredCaseError(
            f"x^{d}+x-1 with composite odd d = 2 (mod 3) is outside the covered cases"
        )
    if not is_irreducible(cls.cofactor):
        raise AssertionError(f"expected an irreducible cofactor of degree {d - 2}")
    return SolvabilityVerdict(d, Solvability.REDUCIBLE_2_D2, (2, d - 2), cls)


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
    """Certificate for the equitable-split question over (x, x^d).  Each
    case (d = 1, small degree, reducible, nonsolvable) gives the
    factorization, whose last factor holds the real root, the Galois fact,
    the verdict and its own narrative steps; the real root is isolated and
    the certificate built once, here."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        kind, equation = None, Poly([-1, 2])
        factorization = ((equation.primitive(), 1),)
        steps = [
            NarrativeStep(
                "equation",
                "an equitable simple split at t over (x, x) forces 2t - 1 = 0",
                (("equation", str(equation)),),
            )
        ]
    else:
        solvability = solvability_verdict(d)
        kind, cls = solvability.kind, solvability.trinomial
        equation = TrinomialFamily.PLUS_MINUS.poly(d)
        if kind is Solvability.REDUCIBLE_2_D2:
            # solvability_verdict proved the cofactor irreducible
            factorization = ((cls.factor, 2), (cls.cofactor, d - 2))
        else:
            factorization = ((equation, d),)
        steps = [
            NarrativeStep(
                "equation",
                f"an equitable simple split at t over (x, x^{d}) forces t^{d} + t - 1 = 0; "
                "such a t exists and is unique in (0, 1) since the equation is -1 at 0, "
                "+1 at 1, and strictly increasing (derived here, not assumed)",
                (("equation", str(equation)),),
            )
        ]
    real_factor = factorization[-1][0]
    isolator = _unit_root_isolator(real_factor)
    tower_primes = frozenset({d} if is_probable_prime(d) else set()) | frozenset({2} if allow_sqrt else set())
    galois, verdict = GaloisFact("none"), Verdict.NO_OBSTRUCTION_FOUND
    if kind is None:
        steps.append(
            NarrativeStep(
                "rational-cutpoint",
                "the cutpoint 1/2 is rational, so exact protocols can output it",
            )
        )
    elif kind is Solvability.SOLVABLE_SMALL_DEGREE:
        steps.append(
            NarrativeStep(
                "small-degree",
                f"degree {d} polynomials are solvable by radicals; no degree or "
                "solvability obstruction applies",
            )
        )
    elif kind is Solvability.REDUCIBLE_2_D2:
        quad = cls.factor
        disc = quad.coeff(1) ** 2 - 4 * quad.coeff(2) * quad.coeff(0)
        obstruction = (("target_degree", d - 2), ("allowed_primes", sorted(tower_primes)))
        assert disc < 0 and degree_obstruction(d - 2, set(tower_primes))
        sqrt_note = " (and 2 for mediator square roots)" if allow_sqrt else ""
        steps += [
            NarrativeStep(
                "factorization",
                f"t^{d} + t - 1 factors into verified irreducible parts of degrees "
                f"2 and {d - 2}",
                (("factors", [str(quad), str(real_factor)]),),
            ),
            NarrativeStep(
                "quadratic-no-real-roots",
                f"the quadratic factor {quad} has negative discriminant {disc}, "
                "hence no real roots; the real cutpoint must satisfy the other factor",
                (("discriminant", str(disc)),),
            ),
            NarrativeStep(
                "real-root-factor",
                f"the degree-{d - 2} factor has exactly one root in (0, 1)",
                (("factor", str(real_factor)), ("isolator", str(isolator))),
            ),
            NarrativeStep(
                "cutpoint-degree",
                f"the cutpoint generates a field of degree {d - 2} over the rationals",
                (("degree", d - 2),),
            ),
            NarrativeStep(
                "tower-primes",
                f"every query answer over (x, x^{d}) extends the field by degree 1 or "
                f"{d}{sqrt_note}, so the final field degree is a product of powers of "
                f"{sorted(tower_primes)}",
                (("primes", sorted(tower_primes)),),
            ),
            NarrativeStep(
                "degree-obstruction",
                f"{d - 2} has a prime factor outside {sorted(tower_primes)}, so it divides no "
                "reachable field degree; the multiplicative degree law fails",
                obstruction,
            ),
        ]
        galois, verdict = GaloisFact("degree-obstruction", obstruction), Verdict.IMPOSSIBLE
    else:
        steps += [
            NarrativeStep(
                "irreducible-trinomial",
                f"t^{d} + t - 1 is irreducible by the trinomial classification "
                "(substituting -t reduces it to a family irreducible at this degree)",
            ),
            NarrativeStep(
                "galois-symmetric",
                f"the trinomial criterion certifies Galois group {cls.galois} "
                f"(irreducible and gcd({d - 1}, {d}) = 1)",
                (("group", cls.galois),),
            ),
            NarrativeStep("nonsolvable", f"{cls.galois} is not solvable for degree {d} >= 5"),
            NarrativeStep(
                "radical-tower",
                "every reachable cutpoint lies in a radical extension of the rationals "
                "(each cut answer is a d-th root over the previous field, and mediator "
                "square roots stay radical), so an exact protocol output would make the "
                "irreducible equation solvable by radicals",
            ),
        ]
        galois, verdict = GaloisFact("symmetric-nonsolvable", (("group", cls.galois),)), Verdict.IMPOSSIBLE
    closing = "the equitable cutpoint is unreachable" if verdict is Verdict.IMPOSSIBLE else "no obstruction found"
    steps.append(NarrativeStep("verdict", closing))
    return Certificate(
        target=f"equitable-simple(d={d})",
        equation=equation,
        factorization=factorization,
        real_root_factor=real_factor,
        real_root_isolator=isolator,
        tower_prime_set=tower_primes,
        galois_fact=galois,
        verdict=verdict,
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
    if not is_probable_prime(p):
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


def _irreducible(f: Poly) -> bool:
    """f is irreducible over the rationals.  Two witnesses need no factoring
    and no degree cap.  First, Eisenstein's criterion on f or on its
    reversal, at a prime `factoring._eisenstein_witness` finds by gcds.
    Then the factor-degree sieve (`polys._sieve_degrees`) over the images
    mod the first CERTIFICATE_PRIMES primes that do not divide the leading
    coefficient and keep f squarefree: a factorization over the integers
    reduces to one mod each of them, so no proper degree left means no
    proper factor.  Otherwise the factorization pipeline decides."""
    cs = f.int_coeffs()
    if _eisenstein_witness(cs) is not None:
        return True
    ddfs = ((q, _modp_ddf(cs, q)) for q in itertools.islice(primes(), CERTIFICATE_PRIMES))
    patterns = ((q, _pattern(ddf)) for q, ddf in ddfs if ddf is not None)
    return not _sieve_degrees(patterns, set(range(1, f.degree)))[0] or is_irreducible(f)


def verify_certificate(cert: Certificate) -> CertificateCheck:
    """Recompute every load-bearing claim of an IMPOSSIBLE certificate:
    the factorization product identity, each irreducibility claim by
    `_irreducible`, the real-root location via Sturm
    counting, and the final obstruction step."""
    rebuilt = Poly.constant(1)
    for f, _ in cert.factorization:
        rebuilt = rebuilt * f
    q, r = divmod(cert.equation, rebuilt)
    product_ok = r.is_zero and q.degree == 0
    irreducible_ok = all(_irreducible(f) for f, _ in cert.factorization)
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
