"""Ledger of the field chain produced by query answers.

Each adjunction appends a step with its exact extension degree.  Degrees
are decided by a layered strategy:

* rational values are trivial steps;
* radicals with rational radicands over a tower whose nontrivial
  generators are all of that shape are decided by multiplicative group
  membership (a lattice problem over exponent vectors on a coprime base
  of the radicands, so no integer is factored), which is exact for real
  radicals and never touches the degree cap;
* anything else goes through a primitive-element computation whose
  eliminations are guarded by the degree cap; past the cap the adjunction
  raises MembershipUndecidable instead of guessing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import AlgebraicNumber, _binary_elimination, degree_cap, rational_radical_form
from .errors import MembershipUndecidable
from .ints import coprime_base
from .polys import Poly, poly_gcd


def degree_obstruction(target_degree: int, allowed_primes: set[int]) -> bool:
    """True when target_degree cannot divide any product of powers of the
    allowed primes, i.e. it has a prime factor outside the set."""
    if target_degree < 1:
        raise ValueError("target degree must be at least 1")
    n = target_degree
    for p in allowed_primes:
        while n % p == 0:
            n //= p
    return n != 1


# -- lattice membership for real radical groups --------------------------------


def _exponent_vector(r: Fraction, base: list[int]) -> list[int]:
    """Exponents of |r| over a coprime base that covers it."""
    num, den = abs(r.numerator), r.denominator
    out = []
    for b in base:
        e = 0
        while num % b == 0:
            num //= b
            e += 1
        while den % b == 0:
            den //= b
            e -= 1
        out.append(e)
    return out


def _radical_vectors(
    b: Fraction, gens: list[tuple[Fraction, int]]
) -> tuple[list[int], list[list[Fraction]]]:
    """The exponent vector of |b| and those of the radicals |b_i|^(1/d_i),
    over one coprime base of all the radicands.  No integer is factored."""
    values = [b] + [r for r, _ in gens]
    base = coprime_base(n for v in values for n in (v.numerator, v.denominator))
    target, *vecs = [_exponent_vector(v, base) for v in values]
    return target, [[Fraction(c, d) for c in v] for v, (_, d) in zip(vecs, gens)]


def _hnf_membership(target: list[int], cols: list[list[int]]) -> bool:
    """Does the integer vector lie in the lattice spanned by the columns?
    The column set always contains a scaled standard basis, so the lattice
    has full rank and triangular reduction suffices."""
    dim = len(target)
    work = [c[:] for c in cols]
    pivots: list[list[int]] = []
    for r in range(dim):
        while True:
            nz = [c for c in work if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            base = nz[0]
            for c in nz[1:]:
                q = c[r] // base[r]
                for i in range(dim):
                    c[i] -= q * base[i]
        nz = [c for c in work if c[r] != 0]
        if not nz:
            raise AssertionError("lattice lost full rank")
        piv = nz[0]
        work.remove(piv)
        if piv[r] < 0:
            piv = [-v for v in piv]
        pivots.append(piv)
    x = target[:]
    for r in range(dim):
        piv = pivots[r]
        if x[r] % piv[r] != 0:
            return False
        q = x[r] // piv[r]
        for i in range(dim):
            x[i] -= q * piv[i]
    return all(v == 0 for v in x)


def _group_membership(
    target: list[Fraction], gen_vecs: list[list[Fraction]]
) -> bool:
    """Is the target exponent vector in the lattice spanned by the integer
    vectors and the generator vectors?  Vectors live over a fixed coprime
    base whose parts are not perfect powers, so, as over the primes, a
    product of rational powers of the parts is rational exactly when every
    exponent is an integer.  Signs never obstruct because -1 is a unit of
    the group."""
    if not target:
        return True
    dim = len(target)
    dens = [c.denominator for c in target]
    for gv in gen_vecs:
        dens.extend(c.denominator for c in gv)
    scale = math.lcm(*dens)
    cols = []
    for j in range(dim):
        col = [0] * dim
        col[j] = scale
        cols.append(col)
    for gv in gen_vecs:
        cols.append([int(c * scale) for c in gv])
    tvec = [int(c * scale) for c in target]
    return _hnf_membership(tvec, cols)


def _radical_group_member(b: Fraction, e: int, gens: list[tuple[Fraction, int]]) -> bool:
    """Is the real |b|^(1/e) in the multiplicative group generated by the
    rationals and the real radicals |b_i|^(1/d_i)?  For real radicals over
    the rationals this group membership coincides with field membership."""
    target, gen_vecs = _radical_vectors(b, gens)
    return _group_membership([Fraction(c, e) for c in target], gen_vecs)


# -- compositum degrees ----------------------------------------------------------


def _compositum(a: AlgebraicNumber, b: AlgebraicNumber) -> tuple[int, AlgebraicNumber]:
    """([Q(a,b) : Q], primitive element) via a shifted sum a + c*b.

    A shift is accepted once the elimination polynomial is squarefree,
    which forces a + c*b to separate conjugate pairs and hence generate
    the compositum."""
    ma = a.minimal_polynomial()
    mb = b.minimal_polynomial()
    cap = degree_cap()
    if ma.degree * mb.degree > cap:
        raise MembershipUndecidable(
            f"membership needs degree {ma.degree * mb.degree} past the cap {cap}"
        )
    c = 1
    while True:
        if c == 1:
            mbc = mb
        else:
            mbc = mb.compose(Poly([Fraction(0), Fraction(1, c)])).primitive()
        elim = _binary_elimination("add", ma, mbc)
        if poly_gcd(elim, elim.derivative()).degree == 0:
            theta = a + b * c
            return theta.minimal_polynomial().degree, theta
        c += 1


# -- tower types -----------------------------------------------------------------


class StepKind(enum.Enum):
    TRIVIAL = "trivial"
    RADICAL = "radical"
    SQRT = "sqrt"
    ALGEBRAIC = "algebraic"


@dataclass
class ExtensionStep:
    generator: AlgebraicNumber
    kind: StepKind
    degree: int
    source: str
    radical_index: Optional[int] = None
    radicand: Optional[AlgebraicNumber] = None

    def kind_label(self) -> str:
        if self.kind is StepKind.RADICAL:
            return f"radical^{self.radical_index}"
        return self.kind.value


@dataclass
class Lemma1Report:
    """Per-step degree audit against the allowed degree set {1, p}."""

    prime: int
    entries: list[tuple[int, int, str, str]]  # (step index, degree, kind, source)
    violations: list[int]

    @property
    def passed(self) -> bool:
        return not self.violations


class Tower:
    """Single-writer ledger of field extensions above the rationals."""

    def __init__(self, allow_mediator_sqrt: bool = False):
        self.steps: list[ExtensionStep] = []
        self.allow_mediator_sqrt = allow_mediator_sqrt
        self._rational_radical_gens: list[tuple[Fraction, int]] = []
        self._pure_rational_radicals = True
        self._gen_values: list[AlgebraicNumber] = []
        self._primitive: Optional[AlgebraicNumber] = None

    @property
    def total_degree(self) -> int:
        out = 1
        for s in self.steps:
            out *= s.degree
        return out

    def primitive_element(self) -> Optional[AlgebraicNumber]:
        """Primitive element of the current field (None while it is Q).
        Built on demand; may raise MembershipUndecidable past the cap."""
        self._ensure_primitive()
        return self._primitive

    def primitive_minpoly(self) -> Poly:
        theta = self.primitive_element()
        if theta is None:
            return Poly([0, 1])
        return theta.minimal_polynomial()

    def _ensure_primitive(self) -> None:
        if self._primitive is not None or not self._gen_values:
            return
        theta = self._gen_values[0]
        for g in self._gen_values[1:]:
            _, theta = _compositum(theta, g)
        self._primitive = theta

    # -- adjunction -------------------------------------------------------------

    def adjoin(
        self,
        value: AlgebraicNumber,
        claimed_radical: Optional[tuple[int, AlgebraicNumber]] = None,
        source: str = "",
    ) -> ExtensionStep:
        kind = StepKind.TRIVIAL
        index: Optional[int] = None
        radicand: Optional[AlgebraicNumber] = None
        if claimed_radical is not None:
            index, radicand = claimed_radical
            if (value**index - radicand).sign() != 0:
                raise ValueError("radical witness does not verify")
            kind = StepKind.RADICAL
        step = self._adjoin_value(value, kind, index, radicand, source)
        self.steps.append(step)
        return step

    def adjoin_trivial(self, value: AlgebraicNumber, source: str = "") -> ExtensionStep:
        """Record a step for a value already known to lie in the current
        field, skipping the membership computation.  Eval answers qualify:
        a polynomial CDF maps field points into the field."""
        step = ExtensionStep(value, StepKind.TRIVIAL, 1, source)
        self.steps.append(step)
        return step

    def adjoin_mediator_sqrt(
        self, radicand: AlgebraicNumber, source: str = "mediator-sqrt"
    ) -> ExtensionStep:
        """Adjoin a square root outside the query protocol.  Gated by the
        tower flag so degree sets {p} and {2, p} are both expressible."""
        if not self.allow_mediator_sqrt:
            raise MembershipUndecidable("mediator square roots are disabled for this tower")
        if radicand.sign() < 0:
            raise ValueError("square root of a negative value")
        value = radicand.root(2)
        step = self._adjoin_value(value, StepKind.SQRT, 2, radicand, source)
        self.steps.append(step)
        return step

    def _adjoin_value(
        self,
        value: AlgebraicNumber,
        kind: StepKind,
        index: Optional[int],
        radicand: Optional[AlgebraicNumber],
        source: str,
    ) -> ExtensionStep:
        if value.as_rational() is not None:
            return ExtensionStep(value, StepKind.TRIVIAL, 1, source, index, radicand)
        if kind in (StepKind.RADICAL, StepKind.SQRT) and radicand is not None:
            rad_rv = radicand.as_rational()
            if rad_rv is not None and self._pure_rational_radicals:
                deg = self._radical_degree(rad_rv, index)
                if deg == 1:
                    return ExtensionStep(value, StepKind.TRIVIAL, 1, source, index, radicand)
                self._rational_radical_gens.append((rad_rv, index))
                self._gen_values.append(value)
                self._primitive = None  # rebuilt on demand
                return ExtensionStep(value, kind, deg, source, index, radicand)
        if self._pure_rational_radicals:
            # values generating exactly the field of a rational-radicand
            # radical (canonicalized quadratics in particular) keep the
            # tower on the lattice route
            form = rational_radical_form(value)
            if form is not None:
                rad, idx = form
                deg = self._radical_degree(rad, idx)
                if deg == 1:
                    return ExtensionStep(value, StepKind.TRIVIAL, 1, source, index, radicand)
                self._rational_radical_gens.append((rad, idx))
                self._gen_values.append(value)
                self._primitive = None
                if kind is StepKind.TRIVIAL:
                    kind = StepKind.ALGEBRAIC
                return ExtensionStep(value, kind, deg, source, index, radicand)
        deg = self._general_adjoin_degree(value)
        if deg == 1:
            return ExtensionStep(value, StepKind.TRIVIAL, 1, source, index, radicand)
        self._pure_rational_radicals = False
        self._gen_values.append(value)
        if kind is StepKind.TRIVIAL:
            kind = StepKind.ALGEBRAIC
        return ExtensionStep(value, kind, deg, source, index, radicand)

    def _radical_degree(self, radicand: Fraction, d: int) -> int:
        """Degree of adjoining the real d-th root of a rational over a tower
        of rational-radicand radicals: the least divisor m of d for which
        the m-th power of the new radical already sits in the field.  The
        exponent vectors are built once; powers only scale the radicand's."""
        vec, gen_vecs = _radical_vectors(radicand, self._rational_radical_gens)
        for m in range(1, d + 1):
            if d % m != 0:
                continue
            target = [Fraction(c * m, d) for c in vec]
            if _group_membership(target, gen_vecs):
                return m
        return d

    def _general_adjoin_degree(self, value: AlgebraicNumber) -> int:
        if not self._gen_values:
            self._primitive = value
            return value.minimal_polynomial().degree
        self._ensure_primitive()
        theta = self._primitive
        old_total = theta.minimal_polynomial().degree
        new_total, new_theta = _compositum(theta, value)
        if new_total % old_total != 0:
            raise AssertionError("tower degrees must be multiplicative")
        if new_total != old_total:
            self._primitive = new_theta
        return new_total // old_total

    # -- queries -----------------------------------------------------------------

    def is_pth_power(self, b: AlgebraicNumber, p: int) -> bool:
        """Does the real p-th root of b lie in the current field?"""
        if p < 2:
            raise ValueError("p must be at least 2")
        s = b.sign()
        if s == 0:
            return True  # 0 = 0^p
        if s < 0 and p % 2 == 0:
            raise ValueError("even roots need a nonnegative radicand")
        rb = b.as_rational()
        if rb is not None and self._pure_rational_radicals:
            return _radical_group_member(rb, p, self._rational_radical_gens)
        root = b.root(p)
        if root.as_rational() is not None:
            return True
        if not self._gen_values:
            return False
        self._ensure_primitive()
        old_total = self._primitive.minimal_polynomial().degree
        new_total, _ = _compositum(self._primitive, root)
        return new_total == old_total

    def verify_lemma1(self, p: int) -> Lemma1Report:
        entries = []
        violations = []
        for i, s in enumerate(self.steps):
            entries.append((i, s.degree, s.kind_label(), s.source))
            if s.degree not in (1, p):
                violations.append(i)
        return Lemma1Report(p, entries, violations)

    def dump(self) -> str:
        lines = []
        for i, s in enumerate(self.steps):
            lines.append(f"step {i}: deg={s.degree} kind={s.kind_label()} source={s.source}")
        return "\n".join(lines)
