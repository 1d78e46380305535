"""Measures, query sessions, allocations, and exact fairness auditing.

A measure is a strictly increasing polynomial CDF on [0, 1] with rational
coefficients.  Validation accepts a density with no negative coefficient
at once and isolates the density's roots on [0, 1] only otherwise.
Allocations must give each piece one owner among the players and tile
[0, 1] with pieces that run left to right.  A session executes cut and eval queries against a list of
measures, logging every answer into a transcript and a field tower.  The
evaluators at the bottom decide proportionality, envy-freeness,
equitability and utilitarian welfare with exact comparisons only; a
fairness report keeps the values it compared, and the CLI prints those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebraic import AlgebraicNumber, _make_cut_root, _residue_poly_at, count_ops
from .errors import InfeasibleAmountError, InvalidMeasureError, QueryDomainError
from .polys import Poly, horner, sturm_isolate
from .dyadic import DyadicInterval
from .tower import Tower

Alg = AlgebraicNumber


def _alg(x) -> Alg:
    return AlgebraicNumber.of(x)


def poly_at(p: Poly, v: Alg) -> Alg:
    """Evaluate a rational polynomial at an algebraic point, exactly: on
    residues when the point lies in one atom's field, otherwise by folding
    one multiplication and one addition per coefficient."""
    r = v.as_rational()
    if r is not None:
        return _alg(p(r))
    node = _residue_poly_at(p, v._node)
    if node is not None:
        return AlgebraicNumber(node)
    acc: Alg = _alg(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


# -- measures -------------------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """A player's valuation: cdf(x) is the measure of [0, x]."""

    cdf: Poly
    label: str = ""

    @staticmethod
    def make(cdf: Poly, label: str = "") -> "Measure":
        validate_cdf(cdf)
        return Measure(cdf, label)

    @property
    def density(self) -> Poly:
        return self.cdf.derivative()

    def value(self, a: Alg, b: Alg) -> Alg:
        """Exact measure of the interval [a, b]."""
        return poly_at(self.cdf, b) - poly_at(self.cdf, a)

    def __str__(self) -> str:
        name = self.label or "measure"
        return f"{name}: {self.cdf}"


def validate_cdf(f: Poly) -> None:
    """Reject any f that is not a strictly increasing CDF on [0, 1]."""
    if f(Fraction(0)) != 0:
        raise InvalidMeasureError(f"f(0) = {f(Fraction(0))}, expected 0")
    if f(Fraction(1)) != 1:
        raise InvalidMeasureError(f"f(1) = {f(Fraction(1))}, expected 1")
    g = f.derivative()
    if g.is_zero:
        raise InvalidMeasureError("density is identically zero")
    # a density with no negative coefficient is >= 0 on [0, 1] term by term
    if all(c >= 0 for c in g.nums):
        return
    # otherwise probe every sign region that its real roots delimit on
    # [0, 1], on g's numerators
    ivs = sturm_isolate(g, DyadicInterval.make(0, 1))
    samples = [Fraction(0), Fraction(1)]
    bounds = sorted({iv.lo for iv in ivs} | {iv.hi for iv in ivs} | {Fraction(0), Fraction(1)})
    for lo, hi in zip(bounds, bounds[1:]):
        samples.append((lo + hi) / 2)
    for s in samples:
        if 0 <= s <= 1 and horner(g.nums, s.numerator, s.denominator) < 0:
            raise InvalidMeasureError(f"density is negative at x = {s}: not monotone")


# -- allocations ------------------------------------------------------------------


@dataclass
class Allocation:
    """Per-player lists of closed subintervals of [0, 1]."""

    pieces: tuple[tuple[tuple[Alg, Alg], ...], ...]

    @staticmethod
    def simple(cuts: Sequence[Alg], owners: Optional[Sequence[int]] = None, n: Optional[int] = None) -> "Allocation":
        """Contiguous allocation: cut points split [0, 1] left to right and
        piece k goes to owners[k] (identity by default).  There must be one
        owner per piece, each in range(n)."""
        bounds = [_alg(0)] + [_alg(c) for c in cuts] + [_alg(1)]
        k = len(bounds) - 1
        owners = list(owners) if owners is not None else list(range(k))
        if len(owners) != k:
            raise ValueError(f"expected one owner per piece ({k}), got {len(owners)}")
        n = n if n is not None else (max(owners) + 1)
        for o in owners:
            if not 0 <= o < n:
                raise ValueError(f"owner {o} is not a player index in 0..{n - 1}")
        per: list[list[tuple[Alg, Alg]]] = [[] for _ in range(n)]
        for j in range(k):
            per[owners[j]].append((bounds[j], bounds[j + 1]))
        return Allocation(tuple(tuple(p) for p in per))

    @property
    def n_players(self) -> int:
        return len(self.pieces)

    def cutpoints(self) -> list[Alg]:
        """Interior piece endpoints, sorted ascending."""
        pts: list[Alg] = []
        for per in self.pieces:
            for lo, hi in per:
                for e in (lo, hi):
                    if (e - 0).sign() == 0 or (e - 1).sign() == 0:
                        continue
                    if not any((e - q).sign() == 0 for q in pts):
                        pts.append(e)
        pts.sort()
        return pts

    def validate(self) -> None:
        """Pieces must tile [0, 1] with pairwise disjoint interiors, each
        with lo <= hi."""
        all_pieces = [iv for per in self.pieces for iv in per]
        if not all_pieces:
            raise ValueError("empty allocation")
        all_pieces.sort(key=lambda iv: iv[0])
        if all_pieces[0][0].sign() != 0:
            raise ValueError("allocation must start at 0")
        for (alo, ahi), (blo, bhi) in zip(all_pieces, all_pieces[1:]):
            if (ahi - blo).sign() != 0:
                raise ValueError("pieces must tile without gaps or overlap")
        if (all_pieces[-1][1] - 1).sign() != 0:
            raise ValueError("allocation must end at 1")
        # sorted by lo and chained hi = next lo, only the last piece can
        # run backwards
        lo, hi = all_pieces[-1]
        if (hi - lo).sign() < 0:
            raise ValueError(f"piece [{lo}, {hi}] is reversed: hi < lo")


# -- query sessions ----------------------------------------------------------------


@dataclass(frozen=True)
class QueryRecord:
    index: int
    player: int
    kind: str  # "cut" or "eval"
    args: tuple[Alg, ...]
    answer: Alg


@dataclass
class Transcript:
    records: list[QueryRecord] = field(default_factory=list)
    bss_op_count: int = 0
    tower: Tower = field(default_factory=Tower)

    @property
    def rw_query_count(self) -> int:
        return len(self.records)

    def dump(self, digits: int = 12) -> str:
        lines = []
        for r in self.records:
            args = ", ".join(a.decimal(digits) for a in r.args)
            lines.append(
                f"#{r.index} player{r.player + 1} {r.kind} args=({args}) "
                f"answer={r.answer.decimal(digits)}"
            )
        tower_dump = self.tower.dump()
        if tower_dump:
            lines.append(tower_dump)
        return "\n".join(lines)


class Session:
    """Executes queries for a fixed list of measures.

    Single-writer: one protocol run owns a session.  Every answer is
    recorded; every answer joins the tower (evals are always trivial
    steps since a polynomial CDF maps field points into the field)."""

    def __init__(self, measures: Sequence[Measure]):
        if not measures:
            raise ValueError("need at least one measure")
        self.measures = list(measures)
        self.transcript = Transcript(tower=Tower())
        self._ops = [0]

    @property
    def n(self) -> int:
        return len(self.measures)

    def counting(self):
        """Context manager: field operations performed inside are added to
        the transcript's mediator-operation count."""
        return count_ops(self._ops)

    def _finish(self) -> None:
        self.transcript.bss_op_count = self._ops[0]

    def _check_unit_range(self, *points: Alg) -> None:
        for pt in points:
            if pt.sign() < 0 or (pt - 1).sign() > 0:
                raise QueryDomainError("query point outside [0, 1]")

    def eval(self, player: int, x, y) -> Alg:
        """Ask the player the exact value of [x, y]."""
        x, y = _alg(x), _alg(y)
        self._check_unit_range(x, y)
        if (y - x).sign() < 0:
            raise QueryDomainError("reversed interval in eval query")
        f = self.measures[player].cdf
        answer = poly_at(f, y) - poly_at(f, x)
        idx = len(self.transcript.records)
        self.transcript.records.append(QueryRecord(idx, player, "eval", (x, y), answer))
        # a polynomial CDF maps field points into the field, so eval
        # answers are always trivial tower steps
        self.transcript.tower.adjoin_trivial(answer, source=f"#{idx}")
        self._finish()
        return answer

    def cut(self, player: int, x, amount) -> Alg:
        """Ask the player for the y with value([x, y]) = amount."""
        x, amount = _alg(x), _alg(amount)
        self._check_unit_range(x)
        if amount.sign() < 0:
            raise InfeasibleAmountError("cut amount must be nonnegative")
        f = self.measures[player].cdf
        fx = poly_at(f, x)
        remaining = _alg(1) - fx
        if (amount - remaining).sign() > 0:
            raise InfeasibleAmountError("cut amount exceeds the remaining measure")
        target = fx + amount
        mono = _monomial_degree(f)
        claimed = None
        in_field = False
        if amount.sign() == 0:
            # the answer is x itself, a point the mediator already holds
            answer = x
            in_field = True
        elif mono is not None and mono >= 2:
            radicand = target
            answer = radicand.root(mono)
            claimed = (mono, radicand)
        elif mono == 1:
            # uniform-style CDF: the answer is x + amount, already in field
            answer = target
            in_field = True
        else:
            answer = _increasing_preimage(f, target)
        idx = len(self.transcript.records)
        self.transcript.records.append(QueryRecord(idx, player, "cut", (x, amount), answer))
        if in_field:
            self.transcript.tower.adjoin_trivial(answer, source=f"#{idx}")
        else:
            self.transcript.tower.adjoin(answer, claimed_radical=claimed, source=f"#{idx}")
        self._finish()
        return answer


def _monomial_degree(f: Poly) -> Optional[int]:
    if f.nums and f.nums[-1] == f.den and not any(f.nums[:-1]):
        return f.degree
    return None


def _increasing_preimage(f: Poly, target: Alg) -> Alg:
    """The unique y in [0, 1] with f(y) = target, f strictly increasing."""
    return AlgebraicNumber(_make_cut_root(f, target._node))


# -- fairness and welfare ------------------------------------------------------------


@dataclass(frozen=True)
class FairnessWitness:
    criterion: str
    player: int
    other: Optional[int]
    own_value: Alg
    other_value: Alg

    def describe(self, digits: int = 12) -> str:
        if self.criterion == "proportional":
            return (
                f"player {self.player + 1} holds {self.own_value.decimal(digits)} "
                f"< fair share {self.other_value.decimal(digits)}"
            )
        if self.criterion == "envy_free":
            return (
                f"player {self.player + 1} values player {self.other + 1}'s share at "
                f"{self.other_value.decimal(digits)} > own {self.own_value.decimal(digits)}"
            )
        return (
            f"player {self.player + 1} gets {self.own_value.decimal(digits)} but "
            f"player {self.other + 1} gets {self.other_value.decimal(digits)}"
        )


@dataclass
class FairnessReport:
    proportional: bool
    envy_free: bool
    equitable: bool
    witnesses: list[FairnessWitness]
    values: list[list[Alg]]  # [i][j]: player i's value of player j's share

    @property
    def own_values(self) -> list[Alg]:
        return [row[i] for i, row in enumerate(self.values)]


def _piece_value(measure: Measure, pieces: Iterable[tuple[Alg, Alg]]) -> Alg:
    total: Alg = _alg(0)
    for lo, hi in pieces:
        total = total + measure.value(lo, hi)
    return total


def value_matrix(alloc: Allocation, measures: Sequence[Measure]) -> list[list[Alg]]:
    return [[_piece_value(m, per) for per in alloc.pieces] for m in measures]


def own_values(alloc: Allocation, measures: Sequence[Measure]) -> list[Alg]:
    """Each player's value of their own share."""
    if len(measures) != alloc.n_players:
        raise ValueError("measure count must match the allocation")
    return [_piece_value(m, per) for m, per in zip(measures, alloc.pieces)]


def check_fairness(alloc: Allocation, measures: Sequence[Measure]) -> FairnessReport:
    """Decide the three fairness flags with exact comparisons; each failed
    flag carries a witness naming the violating pair and both values.  The
    report keeps the value matrix, so a caller prints the values the audit
    compared instead of valuing the shares again."""
    n = alloc.n_players
    if len(measures) != n:
        raise ValueError("measure count must match the allocation")
    vm = value_matrix(alloc, measures)
    share = Fraction(1, n)
    witnesses: list[FairnessWitness] = []
    proportional = True
    for i in range(n):
        if (vm[i][i] - share).sign() < 0:
            proportional = False
            witnesses.append(FairnessWitness("proportional", i, None, vm[i][i], _alg(share)))
            break
    envy_free = True
    for i in range(n):
        for j in range(n):
            if i != j and (vm[i][i] - vm[i][j]).sign() < 0:
                envy_free = False
                witnesses.append(FairnessWitness("envy_free", i, j, vm[i][i], vm[i][j]))
                break
        if not envy_free:
            break
    equitable = True
    for i in range(n):
        for j in range(i + 1, n):
            if (vm[i][i] - vm[j][j]).sign() != 0:
                equitable = False
                witnesses.append(FairnessWitness("equitable", i, j, vm[i][i], vm[j][j]))
                break
        if not equitable:
            break
    return FairnessReport(proportional, envy_free, equitable, witnesses, vm)


def welfare(alloc: Allocation, measures: Sequence[Measure]) -> Alg:
    """Utilitarian social welfare: the sum of own-piece values, folded left
    from 0."""
    return sum(own_values(alloc, measures), _alg(0))


def max_welfare(measures: Sequence[Measure]) -> Allocation:
    """Welfare-maximizing allocation by pointwise density dominance.

    Cut points are the roots in (0, 1) of pairwise density differences;
    each region goes to a player whose density dominates there (ties to
    the lowest index), so the total dominates every other allocation."""
    n = len(measures)
    densities = [m.density for m in measures]
    breakpoints: list[Alg] = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = densities[i] - densities[j]
            if diff.is_zero:
                continue
            for iv in sturm_isolate(diff, DyadicInterval.make(0, 1)):
                if diff(Fraction(0)) == 0 and iv.contains(Fraction(0)):
                    continue  # the root is 0 itself
                if diff(Fraction(1)) == 0 and iv.contains(Fraction(1)):
                    continue
                root = AlgebraicNumber.real_root(diff, iv.lo, iv.hi)
                if root.sign() <= 0 or (root - 1).sign() >= 0:
                    continue
                if not any((root - b).sign() == 0 for b in breakpoints):
                    breakpoints.append(root)
    breakpoints.sort()
    bounds: list[Alg] = [_alg(0)] + breakpoints + [_alg(1)]
    owners: list[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        q = _rational_inside(lo, hi)
        vals = [g(q) for g in densities]
        best = max(vals)
        owners.append(vals.index(best))
    # merge equal neighbors
    cuts: list[Alg] = []
    merged_owners = owners[:1]
    for k in range(1, len(owners)):
        if owners[k] != merged_owners[-1]:
            cuts.append(bounds[k])
            merged_owners.append(owners[k])
    return Allocation.simple(cuts, merged_owners, n)


def _rational_inside(lo: Alg, hi: Alg) -> Fraction:
    """A rational strictly between two distinct algebraic numbers."""
    eps = Fraction(1, 16)
    while True:
        llo, lhi = lo.approx(eps)
        hlo, hhi = hi.approx(eps)
        if lhi < hlo:
            return (lhi + hlo) / 2
        eps /= 16
