"""Ledger of the field chain produced by query answers.

Each adjunction appends a step with its exact extension degree [K(v) : K]
over the current field K.  The steps are the tower's state: a nontrivial
step records the tower atom it adjoins, its lattice form and its relative
polynomial, and the field's generators, tower atoms, radical lattice and
triangular set are read off the steps.  One routine, `Tower._step_degree`,
decides the next step and leaves the tower unchanged.  It tries three
routes in order, each an exact decision.  L is the field of K's
rational-radical steps: every nontrivial step whose generator is a real
radical of a rational records its form (radicand, index), whichever route
decided it.

1. v in K.  Rational values are trivial steps, and so is every value built
   by field operations from tower atoms and rational radicals of L.  A
   tower atom is an atom of the expression DAG (`algebraic`) that provably
   lies in K: the atom a step adjoined, or the atom of a step's generator
   in single-atom form of the same degree over Q.  A rational radical
   that is no tower atom lies in L when route 2 gives it degree 1 over L;
   its word, a rational times integer powers of the atoms a_i of L's
   steps, gives its image at every chain of route 3 (`Word`).
2. Lattice.  A value that generates the field of a real radical
   v = r^(1/d) with a rational radicand (`algebraic._generating_atom`
   returns such a radical for radicals themselves, their affine images
   and canonicalized quadratics; or a claimed radical whose radicand is
   rational) is decided by
   multiplicative group membership: a lattice problem over exponent
   vectors on a coprime base of the radicands, so no integer is factored.
   It gives m = [L(v) : L], the least divisor of d with v^m in L, and the
   word v^m = q * prod(a_i^c_i).  It is exact for real radicals (Kneser
   1975) and never touches the degree cap.  Over L = Q, with no radical
   step below, it is not run: the interned atom of v is exponent-reduced,
   so m is its index and v^m its radicand.  When m = 1 the step is
   trivial.  Every radical step has its lattice degree, so the other
   steps' degrees multiply to [K : L]; when that is coprime to m, the
   step degree is m, since m and [K : L] both divide [K(v) : L], which is
   at most their product.  The step keeps a relative polynomial of its
   degree at the atom r^(1/d): t^d - r, or below the index the binomial
   t^m - v^m, v^m the real (d/m)-th root of r, a tower atom or a radical
   of L with its word.  Otherwise that polynomial goes to route 3's sieve.
3. Relative polynomial.  Every other v has a polynomial R over K: its
   minimal polynomial over Q, or F(t) - target for a cut answer of the CDF
   F whose target lies in K by route 1 (t^d - radicand for a d-th root of
   an irrational value).
   * Coprime degrees: when R has rational coefficients and its degree m is
     coprime to [K : Q], the step degree is m.
   * Degree sieve.  The steps so far that have a relative polynomial of
     their own degree form a triangular set (Lazard 1992): step i adjoins
     a tower atom a_i, a root of R_i, irreducible over K_(i-1).  At a
     prime p, a chain of simple roots r_i of R_i mod p, its coefficients
     reduced at r_1..r_(i-1), embeds K in the p-adic numbers by Hensel's
     lemma (dynamic evaluation: Della Dora, Dicrescenzo & Duval 1985).
     Values of K reduce mod p by evaluating their DAG with each a_i mapped
     to r_i.  Every chain at a prime is read, depth first and generated as
     needed; a level's roots mod p are read off the one image cache of
     `polys` (`_modp_roots`), and a level whose reduction is not
     squarefree extends no chain.  The squarefree images of R at the
     chains of at most CERTIFICATE_PRIMES primes, in order, feed Musser's
     factor-degree sieve (`polys._sieve_degrees`): a factor of R over K
     keeps its degree over the p-adic numbers, so its degree is a subset
     sum of every image's factor-degree pattern.  The sieve reads images
     only until no proper degree is left; then R is irreducible over K,
     the step degree is deg R, and the step stores the witnesses
     (p, chain, pattern) that removed the degrees.  An image irreducible
     of full degree has the pattern (deg R,) and is a witness alone.
     `verify_lemma1` rechecks every stored word in rational arithmetic
     first, then every witness, recomputing each pattern without the
     image cache.
   * Landing rule.  When the sieve keeps a degree, or the field below has
     no triangular set: for a cut answer or a root whose R = F(t) - target
     vanishes at a step generator w where F is increasing (w in [0, 1], or
     w >= 0 for t^d), w is the value itself, and the step is trivial.
     Such an R has a linear factor over K, so the sieve keeps degree 1 and
     never decides the step first.  Otherwise the adjunction raises
     MembershipUndecidable instead of guessing.

The routes run uncounted (`algebraic.uncounted`), so
`bss_op_count` counts the mediator's work and not the ledger's.
`Tower.is_pth_power` asks the same routine for the degree of the root and
adjoins nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .algebraic import (
    AlgebraicNumber,
    _CutRootAtom,
    _dag_atoms,
    _generating_atom,
    _minpoly,
    _Node,
    _residue_mod,
    _RootAtom,
    nth_root,
    poly_at,
    uncounted,
)
from .errors import DegreeCapExceeded, MembershipUndecidable, TowerCertificateError
from .ints import coprime_base, coprime_part, is_probable_prime, primes
from .polys import (
    Poly,
    _derivative,
    _fp_gcd,
    _fp_powmod,
    _fp_rem,
    _fp_sub,
    _fp_trim,
    _horner_mod,
    _modp_image,
    _modp_roots,
    _monic_mod,
    _pattern,
    _sieve_degrees,
)

# Primes whose chains the degree sieve reads per step at most: primes that
# `RelativePoly.may_certify` admits, whether or not K has a chain there.
# Also the primes `certificates` sieves with.  Sized on the cli-mix bench
# at seeds 1 and 20261017: each even-paz or last-diminisher n=3 step that
# 64 primes and the compositum left undecided is decided within the 82nd,
# 92nd, 151st or 448th admitted prime (p = 1021, 491, 2029 and 7069).  No
# step of that bench is left undecided since the radical lattice writes
# the radicals of K over the steps' atoms; a step that is reads all 448.
# A count, not a time, so every host reaches the same verdict.
CERTIFICATE_PRIMES = 448


def degree_obstruction(target_degree: int, allowed_primes: set[int]) -> bool:
    """True when target_degree cannot divide any product of powers of the
    allowed primes, i.e. it has a prime factor outside the set: its part
    coprime to their product is not 1."""
    if target_degree < 1:
        raise ValueError("target degree must be at least 1")
    return coprime_part(target_degree, math.prod(allowed_primes)) != 1


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
) -> tuple[list[int], list[int], list[list[Fraction]]]:
    """One coprime base of all the radicands, the exponent vector of |b|
    and those of the radicals |b_i|^(1/d_i) over it.  No integer is
    factored."""
    values = [b] + [r for r, _ in gens]
    base = coprime_base(n for v in values for n in (v.numerator, v.denominator))
    target, *vecs = [_exponent_vector(v, base) for v in values]
    return base, target, [[Fraction(c, d) for c in v] for v, (_, d) in zip(vecs, gens)]


def _triangular_basis(cols: list[list[int]], dim: int) -> list[list[int]]:
    """A basis of the lattice the integer columns span: the pivot of row r
    is zero before r and positive at r.  The columns always contain a
    scaled standard basis, so the lattice has full rank.  Each column
    carries its combination of the input columns past its first dim
    entries, so a pivot's tail says how it was made."""
    n = len(cols)
    work = [c[:dim] + [int(i == j) for i in range(n)] for j, c in enumerate(cols)]
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
                for i in range(r, dim + n):
                    c[i] -= q * base[i]
        nz = [c for c in work if c[r] != 0]
        if not nz:
            raise AssertionError("lattice lost full rank")
        piv = nz[0]
        work.remove(piv)
        pivots.append(piv if piv[r] > 0 else [-v for v in piv])
    return pivots


# v^m = q * prod(a_i^c_i): a rational q and exponents c_i, 0 <= c_i < d_i,
# over the radicals a_i = b_i^(1/d_i) of a lattice's generators
RadicalWord = tuple[Fraction, tuple[int, ...]]


def _radical_degree(
    radicand: Fraction, d: int, gens: list[tuple[Fraction, int]]
) -> tuple[int, RadicalWord]:
    """Degree m of adjoining the real d-th root v of a rational over the
    field L of the radicals gens = [(b_i, d_i)] with rational radicands:
    the least divisor m of d for which v^m already sits in L.  Returned
    with the word that writes v^m in L, q * prod(a_i^c_i) over the real
    radicals a_i = b_i^(1/d_i).

    Over a coprime base of the radicands, whose parts are not perfect
    powers, a product of rational powers of the parts is rational exactly
    when every exponent is an integer, as over the primes.  So v^m lies
    in L when (m/d) times the radicand's exponent vector lies in the
    lattice spanned by the integer vectors and the generators' vectors;
    signs never obstruct, as -1 is a unit of the group.  The lattice is
    reduced once, scaled to integers, and each divisor's vector is
    reduced against it.  The generators' coefficients in the pivots'
    combinations of the columns give the c_i, and the signs of v^m and the
    a_i fix q's."""
    base, vec, gen_vecs = _radical_vectors(radicand, gens)
    dim = len(vec)
    scale = math.lcm(d, *(c.denominator for gv in gen_vecs for c in gv))
    cols = [[scale if i == j else 0 for i in range(dim)] for j in range(dim)]
    cols.extend([int(c * scale) for c in gv] for gv in gen_vecs)
    pivots = _triangular_basis(cols, dim)
    for m in range(1, d + 1):
        if d % m != 0:
            continue
        x = [c * m * (scale // d) for c in vec] + [0] * len(cols)
        for r, piv in enumerate(pivots):
            q, rem = divmod(x[r], piv[r])
            if rem:
                break
            for i in range(r, len(x)):
                x[i] -= q * piv[i]
        else:
            # each c_i is taken mod d_i, as a_i^d_i = b_i; |q| then has the
            # integer exponents (m/d) vec - sum (c_i/d_i) vec_i over the base,
            # read off the vectors: the lattice's own coefficients, and the
            # powers they would raise the radicands to, can run to millions
            cs = [-c % dg for c, (_, dg) in zip(x[2 * dim:], gens)]
            num = den = 1
            for j, b in enumerate(base):
                e = Fraction(m * vec[j], d) - sum(c * gv[j] for c, gv in zip(cs, gen_vecs))
                assert e.denominator == 1, "v^m lies in L"
                if e > 0:
                    num *= b ** e.numerator
                else:
                    den *= b ** -e.numerator
            negative = radicand < 0 and m % 2 == 1
            for (b, _), c in zip(gens, cs):
                negative ^= b < 0 and c % 2 == 1
            return m, (Fraction(-num if negative else num, den), tuple(cs))
    raise AssertionError("the d-th power of a radical is rational")


# -- relative polynomials modulo degree-1 primes -----------------------------------


@dataclass(frozen=True)
class Word:
    """A rational radical of K that is no tower atom, written over tower
    atoms by the radical lattice: atom = q * prod(a^c for a, c in powers),
    each a the atom of a rational-radical step, 0 < c < a's index.  The
    atom and every a are real radicals of rationals (`_RootAtom`)."""

    atom: _RootAtom
    q: Fraction
    powers: tuple[tuple[_RootAtom, int], ...]

    def residue(self, p: int, images: dict[int, int]) -> Optional[int]:
        """The atom's image at a chain, q * prod(r^c) mod p over the
        images r of the a; None when p divides q's denominator."""
        if self.q.denominator % p == 0:
            return None
        v = self.q.numerator * pow(self.q.denominator, -1, p) % p
        for a, c in self.powers:
            v = v * pow(images[id(a)], c, p) % p
        return v

    def holds(self) -> bool:
        """Is the word exact?  In rational arithmetic: both sides have the
        same sign, and their D-th powers, D the lcm of the indices, the
        same absolute value."""
        parts = [(self.atom, -1)] + list(self.powers)
        radicals = all(isinstance(a, _RootAtom) and isinstance(a.operand, Fraction) for a, _ in parts)
        if self.q == 0 or not radicals:
            return False
        big = math.lcm(*(a.index for a, _ in parts))
        value, negative = abs(self.q) ** big, self.q < 0
        for a, c in parts:
            value *= abs(a.operand) ** (c * big // a.index)
            negative ^= a.operand < 0 and c % 2 == 1
        return value == 1 and not negative


@dataclass(frozen=True)
class RelativePoly:
    """R(t) = cdf(t) - target, a polynomial over the field below a step
    with a root at the step's generator: cdf has rational coefficients, and
    target, a value of that field, is None when R = cdf.  atom is the tower
    atom that the step adjoins and R vanishes at, None when the generator
    is no atom's equal.  words holds the word of each atom of target that
    is no tower atom: v^m of a radical step's binomial t^m - v^m, or a
    rational radical of L in a cut's target."""

    atom: Optional[_Node]
    cdf: Poly
    target: Optional[_Node] = None
    words: tuple[Word, ...] = ()

    @property
    def degree(self) -> int:
        return self.cdf.degree

    def may_certify(self, p: int) -> bool:
        """Can R reduce mod p to an irreducible polynomial of full degree?
        Not when p divides the denominator or the leading numerator of
        cdf.  Nor, for a binomial a*t^d - b (cdf = t^d, or a rational
        binomial), unless every prime dividing d divides p - 1, that is d
        has no part coprime to p - 1, and 4 divides p - 1 when it divides d
        (Lidl & Niederreiter, Finite Fields, Theorem 3.75)."""
        cs = self.cdf.nums
        if self.cdf.den % p == 0 or cs[-1] % p == 0:
            return False
        d = self.degree
        if d < 2 or any(cs[1:-1]):
            return True
        return coprime_part(d, p - 1) == 1 and (d % 4 != 0 or p % 4 == 1)

    def reduce(self, p: int, images: dict[int, int]) -> Optional[list[int]]:
        """R's coefficients mod p, with the target's tower atoms mapped to
        their images and each word's atom to its word's residue; None when
        the denominator or the leading numerator of cdf vanishes mod p, or
        the target does not reduce."""
        if self.cdf.den % p == 0 or self.cdf.nums[-1] % p == 0:
            return None
        inv = pow(self.cdf.den, -1, p)
        cs = [c * inv % p for c in self.cdf.nums]
        if self.target is not None:
            for w in self.words:
                r = w.residue(p, images)
                if r is None:
                    return None
                images = {**images, id(w.atom): r}
            t = _residue_mod(self.target, p, images)
            if t is None:
                return None
            cs[0] = (cs[0] - t) % p
        return cs


def _pattern_mod(cs: list[int], p: int) -> Optional[tuple[int, ...]]:
    """The factor-degree pattern of cs over F_p, ascending, or None when
    cs is not squarefree there.  Computed afresh, without the image cache
    and without dividing out a factor: for a monic squarefree f, the
    degree of gcd(f, x^(p^k) - x) is the sum of the degrees of the
    irreducible factors whose degree divides k, so the number of degree-k
    factors is that degree, less the degrees of the factors whose degree
    properly divides k, over k."""
    f = _monic_mod(cs, p)
    n = len(f) - 1
    df = _fp_trim([i * c % p for i, c in enumerate(f)][1:])
    if not df or len(_fp_gcd(f, df, p)) > 1:
        return None
    x = _fp_rem([0, 1], f, p)
    frob = x  # x^(p^k) mod f
    counts: dict[int, int] = {}
    pattern: list[int] = []
    while sum(pattern) < n:
        k = len(counts) + 1
        frob = _fp_powmod(frob, p, f, p)
        total = len(_fp_gcd(f, _fp_sub(frob, x, p), p)) - 1
        counts[k] = (total - sum(d * c for d, c in counts.items() if k % d == 0)) // k
        pattern += [k] * counts[k]
    return tuple(pattern)


# -- tower types -----------------------------------------------------------------


class StepKind(enum.Enum):
    TRIVIAL = "trivial"
    RADICAL = "radical"
    SQRT = "sqrt"
    ALGEBRAIC = "algebraic"


# (p, chain, pattern): a degree-1 prime, the roots mod p of the earlier
# steps' relative polynomials, and the factor degrees of a step's relative
# polynomial reduced there
Witness = tuple[int, tuple[int, ...], tuple[int, ...]]


@dataclass
class ExtensionStep:
    """One adjunction.  A nontrivial step also records what it brings to
    the field: atom, the tower atom it adjoins, when known; form, the
    (radicand, index) of a step whose generator is a rational radical,
    whichever route decided it, so that its atom, that real radical, is a
    generator of L and the step's degree is its lattice degree over the
    radicals before it; relative, the minimal polynomial of atom over the
    field below, when known, with the words of the radicals it reduces
    by; and certificate, the witnesses (p, chain, pattern) when the
    degree sieve at degree-1 primes decided the degree: chain holds the
    roots mod p of the earlier steps' relative polynomials, pattern the
    factor degrees of the relative polynomial reduced there, and together
    the patterns leave no proper degree.  The last witness removed the
    last degree; a prime at which the polynomial stays irreducible has
    the pattern (degree,)."""

    generator: AlgebraicNumber
    kind: StepKind
    degree: int
    source: str
    radical_index: Optional[int] = None
    radicand: Optional[AlgebraicNumber] = None
    relative: Optional[RelativePoly] = None
    certificate: Optional[tuple[Witness, ...]] = None
    form: Optional[tuple[Fraction, int]] = None
    atom: Optional[_Node] = None

    def kind_label(self) -> str:
        if self.kind is StepKind.RADICAL:
            return f"radical^{self.radical_index}"
        return self.kind.value


def _step(value: AlgebraicNumber, degree: int, **parts) -> ExtensionStep:
    """A decided step, before the adjunction names its kind and source; a
    trivial step brings nothing to the field."""
    if degree == 1:
        return ExtensionStep(value, StepKind.TRIVIAL, 1, "")
    return ExtensionStep(value, StepKind.ALGEBRAIC, degree, "", **parts)


def _triangular_set(steps: list[ExtensionStep]) -> Optional[list[RelativePoly]]:
    """The relative polynomials of the nontrivial steps, in order: the
    triangular set of the field the steps generate.  None once a
    nontrivial step has no relative polynomial of its degree at an atom."""
    out = []
    for s in steps:
        if s.degree > 1:
            if s.relative is None or s.relative.atom is None:
                return None
            out.append(s.relative)
    return out


def _images(tri: list[RelativePoly], chain: tuple[int, ...]) -> dict[int, int]:
    return {id(rel.atom): r for rel, r in zip(tri, chain)}


def _chains(p: int, tri: list[RelativePoly], chain: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Every chain of simple roots at p through the triangular set tri that
    extends chain, in lexicographic order and depth first: the degree-1
    primes of K above p at which the chain embeds K.  A level whose
    reduction is not squarefree mod p extends no chain (`_modp_roots`)."""
    if len(chain) == len(tri):
        yield chain
        return
    cs = tri[len(chain)].reduce(p, _images(tri, chain))
    for r in (None if cs is None else _modp_roots(cs, p)) or ():
        yield from _chains(p, tri, chain + (r,))


def _patterns(
    rel: RelativePoly, tri: list[RelativePoly]
) -> Iterator[tuple[tuple[int, tuple[int, ...]], tuple[int, ...]]]:
    """((p, chain), pattern) for each squarefree image of R at the chains
    of the first CERTIFICATE_PRIMES primes that `RelativePoly.may_certify`
    admits, in order: the factor degrees of its cached distinct-degree
    factorization.  A rational R reduces alike at every chain of p, so
    only p's first chain is read."""
    tried = 0
    for p in primes():
        if not rel.may_certify(p):
            continue
        for chain in _chains(p, tri):
            cs = rel.reduce(p, _images(tri, chain))
            image = None if cs is None else _modp_image(cs, p)
            if image is not None:
                yield (p, chain), _pattern(image.parts())
            if rel.target is None:
                break
        tried += 1
        if tried == CERTIFICATE_PRIMES:
            return


def _field_words(node: _Node, below: list[ExtensionStep]) -> Optional[tuple[Word, ...]]:
    """Does the value lie in K, built by field operations from tower atoms
    and rational radicals that the lattice puts in the field of K's
    rational-radical steps?  Then the words of those radicals; else None.
    The nontrivial steps below are K's."""
    atoms = {id(s.atom) for s in below if s.atom is not None}
    if not atoms:
        return None
    radicals = [s for s in below if s.form is not None]
    words = []
    for a in _dag_atoms(node):
        if id(a) in atoms:
            continue
        if not (radicals and isinstance(a, _RootAtom) and isinstance(a.operand, Fraction)):
            return None
        m, word = _radical_degree(a.operand, a.index, [s.form for s in radicals])
        if m > 1:
            return None
        words.append(_spelled(a, word, radicals))
    return tuple(words)


def _spelled(atom: _RootAtom, word: RadicalWord, radicals: list[ExtensionStep]) -> Word:
    """The lattice's word of a rational radical atom in L, over the atoms
    of L's steps."""
    q, exps = word
    return Word(atom, q, tuple((s.atom, c) for s, c in zip(radicals, exps) if c))


def _radical_relative(
    atom: _RootAtom, form: tuple[Fraction, int], m: int, word: RadicalWord, radicals: list[ExtensionStep]
) -> RelativePoly:
    """The relative polynomial of a rational radical v = r^(1/d) of degree
    m over L, the field of the steps radicals: its minimal polynomial over
    Q when that has degree m, else the binomial t^m - v^m, where v^m, the
    real (d/m)-th root of r, is the atom of one of those steps or lies in
    L by its word."""
    mp = _minpoly(atom)
    if mp.degree == m:
        return RelativePoly(atom, mp)
    r, d = form
    target = nth_root(r, d // m)._node
    words = ()
    if isinstance(target, _RootAtom) and all(s.atom is not target for s in radicals):
        words = (_spelled(target, word, radicals),)
    return RelativePoly(atom, Poly.monomial(m), target, words)


def _cut_relative(node: _Node, below: list[ExtensionStep]) -> Optional[RelativePoly]:
    """F(t) - target for a cut answer of the CDF F, and t^d - radicand for
    a d-th root, when the target lies in K; None otherwise."""
    if isinstance(node, _CutRootAtom):
        cdf, target = node.cdf, node.target
    elif isinstance(node, _RootAtom) and not isinstance(node.operand, Fraction):
        cdf, target = Poly.monomial(node.index), node.operand
    else:
        return None
    words = _field_words(target, below)
    return None if words is None else RelativePoly(node, cdf, target, words)


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
    """Single-writer ledger of field extensions above the rationals.  The
    steps are its state: the generators, tower atoms, lattice forms and
    triangular set of the current field are read off them."""

    def __init__(self, allow_mediator_sqrt: bool = False):
        self.steps: list[ExtensionStep] = []
        self.allow_mediator_sqrt = allow_mediator_sqrt

    @property
    def total_degree(self) -> int:
        out = 1
        for s in self.steps:
            out *= s.degree
        return out

    # -- adjunction -------------------------------------------------------------

    def adjoin(
        self,
        value: AlgebraicNumber,
        claimed_radical: Optional[tuple[int, AlgebraicNumber]] = None,
        source: str = "",
    ) -> ExtensionStep:
        if claimed_radical is None:
            return self._adjoin_value(value, StepKind.TRIVIAL, None, None, source)
        index, radicand = claimed_radical
        if (value**index).compare(radicand) != 0:
            raise ValueError("radical witness does not verify")
        r = radicand.as_rational()
        claim = None if r is None else (r, index)
        return self._adjoin_value(value, StepKind.RADICAL, index, radicand, source, claim)

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
        return self._adjoin_value(radicand.root(2), StepKind.SQRT, 2, radicand, source)

    def _adjoin_value(
        self,
        value: AlgebraicNumber,
        kind: StepKind,
        index: Optional[int],
        radicand: Optional[AlgebraicNumber],
        source: str,
        claim: Optional[tuple[Fraction, int]] = None,
    ) -> ExtensionStep:
        step = self._step_degree(value, claim)
        if step.degree > 1 and kind is not StepKind.TRIVIAL:
            step.kind = kind
        step.source, step.radical_index, step.radicand = source, index, radicand
        self.steps.append(step)
        return step

    @uncounted()
    def _step_degree(
        self, value: AlgebraicNumber, claim: Optional[tuple[Fraction, int]] = None
    ) -> ExtensionStep:
        """The step that adjoining value would append, its degree
        [K(value) : K] decided over the current field K, leaving the tower
        unchanged.  claim is the (radicand, index) of a verified radical
        witness with a rational radicand.  A rational radical's degree
        over the field L of the radical steps below comes from the lattice
        (`_radical_degree`), except when there is no such step: then L = Q,
        and the degree is the index of the radical's interned atom."""
        node = value._node
        below = [s for s in self.steps if s.degree > 1]
        if value.as_rational() is not None or _field_words(node, below) is not None:
            return _step(value, 1)
        atom, form = _generating_atom(node), claim
        if isinstance(atom, _RootAtom) and isinstance(atom.operand, Fraction):
            form = (atom.operand, atom.index)
        elif form is not None:
            atom = nth_root(*form)._node
        if form is not None:
            radicals = [s for s in below if s.form is not None]
            if not radicals and isinstance(atom, _RootAtom):
                # over L = Q the lattice is skipped: interned radicals are
                # exponent-reduced (`algebraic._reduce_radical`), so the
                # atom's binomial is v's minimal polynomial, its index is
                # m and v^m is its radicand
                deg, word = atom.index, (atom.operand, ())
            else:
                deg, word = _radical_degree(*form, [s.form for s in radicals])
            if deg == 1:
                return _step(value, 1)
            rel = _radical_relative(atom, form, deg, word, radicals)
            # each radical step has its lattice degree, so the other steps'
            # degrees multiply to [K:L], and [K(v):K] = [L(v):L] when the
            # two are coprime
            if math.gcd(deg, math.prod(s.degree for s in below if s.form is None)) == 1:
                return _step(value, deg, form=form, atom=atom, relative=rel)
        else:
            rel = _cut_relative(node, below)
            if rel is None:
                rel = RelativePoly(atom, value.minimal_polynomial() if atom is None else _minpoly(atom))
                if math.gcd(rel.degree, self.total_degree) == 1:
                    return _step(value, rel.degree, atom=atom, relative=rel)
        tri = _triangular_set(self.steps)
        if tri is not None:
            left, witnesses = _sieve_degrees(_patterns(rel, tri), set(range(1, rel.degree)))
            if not left:
                certificate = tuple((p, chain, pattern) for (p, chain), pattern in witnesses)
                return _step(
                    value, rel.degree, form=form, atom=rel.atom, relative=rel, certificate=certificate
                )
        if rel.target is not None and self._lands(rel):
            return _step(value, 1)
        if tri is None:
            raise MembershipUndecidable(
                f"membership undecided: the field below has no triangular set for a degree-{rel.degree} step"
            )
        raise MembershipUndecidable(
            f"membership undecided: factor degrees {sorted(left)} of a degree-{rel.degree} "
            "relative polynomial survive the sieve"
        )

    def _lands(self, rel: RelativePoly) -> bool:
        """The landing rule: R = F(t) - target has the factor t - w over K
        when a value w of K has F(w) = target.  A cut's F is strictly
        increasing on [0, 1] and t^d on [0, oo), where the value is their
        one root, so a step generator w there with F(w) = target is the
        value itself, and the step is trivial.  A comparison past the
        degree cap rules nothing in."""
        target = AlgebraicNumber(rel.target)
        cut = isinstance(rel.atom, _CutRootAtom)
        seen = set()
        for s in self.steps:
            w = s.generator
            if id(w._node) in seen:
                continue
            seen.add(id(w._node))
            try:
                if w >= 0 and (not cut or w <= 1) and poly_at(rel.cdf, w) == target:
                    return True
            except DegreeCapExceeded:
                pass
        return False

    # -- queries -----------------------------------------------------------------

    def is_pth_power(self, b: AlgebraicNumber, p: int) -> bool:
        """Does the real p-th root of b lie in the current field?  Decided
        by the route an adjunction of that root would take, without
        adjoining it."""
        if p < 2:
            raise ValueError("p must be at least 2")
        s = b.sign()
        if s == 0:
            return True  # 0 = 0^p
        if s < 0 and p % 2 == 0:
            raise ValueError("even roots need a nonnegative radicand")
        return self._step_degree(b.root(p)).degree == 1

    def verify_lemma1(self, p: int) -> Lemma1Report:
        """Audit every step's degree against {1, p}, after rechecking every
        stored word (`_recheck_words`), before any image is used, and every
        stored degree certificate (`_recheck_certificates`)."""
        _recheck_words(self.steps)
        _recheck_certificates(self.steps)
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


def _recheck_words(steps: list[ExtensionStep]) -> None:
    """Recheck each word a relative polynomial stores, in rational
    arithmetic (`Word.holds`), and that it is written over the atoms of
    earlier rational-radical steps, which the chains give images.  Raises
    TowerCertificateError on the first that fails."""
    for i, s in enumerate(steps):
        radicals = {id(t.atom) for t in steps[:i] if t.degree > 1 and t.form is not None}
        for w in () if s.relative is None else s.relative.words:
            if not w.holds() or any(id(a) not in radicals for a, _ in w.powers):
                raise TowerCertificateError(f"step {i}: a radical's word does not hold over the steps below")


def _recheck_certificates(steps: list[ExtensionStep]) -> None:
    """Recheck each step's witnesses from the steps alone: each p is
    prime, each chain root is a simple root mod p of its step's relative
    polynomial reduced at the roots before it, the step's own relative
    polynomial reduces there to the step's degree with the stored factor
    degrees (`_pattern_mod`, not the image cache that issued them), and no
    proper degree is a subset sum of every pattern.  Raises
    TowerCertificateError on the first mismatch."""
    for i, s in enumerate(steps):
        if s.certificate is not None:
            _recheck_step(i, s, _triangular_set(steps[:i]))


def _recheck_step(i: int, step: ExtensionStep, chain: Optional[list[RelativePoly]]) -> None:
    def fail(why: str) -> TowerCertificateError:
        return TowerCertificateError(f"step {i}: degree certificate: {why}")

    if chain is None or step.relative is None:
        raise fail("the field below has no triangular set")
    patterns = []
    for p, roots, pattern in step.certificate:
        where = f"at p = {p}"
        if not is_probable_prime(p):
            raise fail(f"{where}: p is not prime")
        if len(roots) != len(chain):
            raise fail(f"{where}: {len(roots)} chain roots for {len(chain)} steps")
        images: dict[int, int] = {}
        for level, (rel, r) in enumerate(zip(chain, roots)):
            cs = rel.reduce(p, images)
            if cs is None or not 0 <= r < p:
                raise fail(f"{where}: chain level {level} does not reduce")
            if _horner_mod(cs, r, p) != 0 or _horner_mod(_derivative(cs), r, p) == 0:
                raise fail(f"{where}: {r} is not a simple root at chain level {level}")
            images[id(rel.atom)] = r
        cs = step.relative.reduce(p, images)
        if cs is None or len(cs) - 1 != step.degree or _pattern_mod(cs, p) != tuple(pattern):
            raise fail(f"{where}: the relative polynomial does not reduce to factor degrees {tuple(pattern)}")
        patterns.append((p, tuple(pattern)))
    left, _ = _sieve_degrees(patterns, set(range(1, step.degree)))
    if left:
        raise fail(
            f"the relative polynomial is not irreducible of degree {step.degree}: "
            f"factor degrees {sorted(left)} remain"
        )
