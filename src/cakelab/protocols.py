"""Classical discrete cake-cutting protocols over the query interface.

Protocols talk to measures only through cut and eval queries, so query
counts and tower contents are faithful.  Exact arithmetic makes ties
reachable; every tie rule here is deterministic and documented:

* cut-and-choose: the chooser takes the left piece on indifference;
* last-diminisher: a player diminishes only on a strictly larger value;
* even-paz: tied marks order by player index (lower counts as smaller);
* selfridge-conway: tied best pieces resolve to the lower piece index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebraic import AlgebraicNumber
from .cake import Allocation, Measure, Session, Transcript

Alg = AlgebraicNumber


@dataclass
class ProtocolRun:
    protocol: str
    allocation: Allocation
    transcript: Transcript
    guarantees: frozenset[str]


def _assemble(pieces_by_player: dict[int, list[tuple[Alg, Alg]]], n: int) -> Allocation:
    per = []
    for i in range(n):
        ivs = pieces_by_player.get(i, [])
        ivs.sort(key=lambda iv: iv[0])
        per.append(tuple(ivs))
    return Allocation(tuple(per))


def cut_and_choose(m1: Measure, m2: Measure) -> ProtocolRun:
    """Two players: the first cuts at its half-value point, the second takes
    the piece it weakly prefers (left on a tie)."""
    session = Session([m1, m2])
    with session.counting():
        y = session.cut(0, 0, Fraction(1, 2))
        left_value = session.eval(1, 0, y)
        chooser_takes_left = left_value.compare(Fraction(1, 2)) >= 0
        if chooser_takes_left:
            alloc = _assemble({1: [(AlgebraicNumber(0), y)], 0: [(y, AlgebraicNumber(1))]}, 2)
        else:
            alloc = _assemble({0: [(AlgebraicNumber(0), y)], 1: [(y, AlgebraicNumber(1))]}, 2)
    return ProtocolRun("cut-and-choose", alloc, session.transcript, frozenset({"proportional", "envy_free"}))


def last_diminisher(measures: Sequence[Measure]) -> ProtocolRun:
    """Banach-Knaster rounds: the current piece passes along the remaining
    players, each trimming it to exactly 1/n of the whole only if they
    value it strictly above 1/n; the last trimmer (or the cutter) exits
    with the piece."""
    n = len(measures)
    if n < 2:
        raise ValueError("need at least two players")
    session = Session(measures)
    share = Fraction(1, n)
    taken: dict[int, list[tuple[Alg, Alg]]] = {}
    with session.counting():
        active = list(range(n))
        left: Alg = AlgebraicNumber(0)
        while len(active) > 1:
            cutter = active[0]
            right = session.cut(cutter, left, share)
            holder = cutter
            for p in active[1:]:
                v = session.eval(p, left, right)
                if v.compare(share) > 0:
                    right = session.cut(p, left, share)
                    holder = p
            taken[holder] = [(left, right)]
            active.remove(holder)
            left = right
        taken[active[0]] = [(left, AlgebraicNumber(1))]
    return ProtocolRun("last-diminisher", _assemble(taken, n), session.transcript, frozenset({"proportional"}))


def even_paz(measures: Sequence[Measure]) -> ProtocolRun:
    """Divide-and-conquer halving.  A group of k players splits at the
    floor(k/2)-th smallest of their marks, each mark placed at floor(k/2)/k
    of the player's remaining value (exactly half for even k); the low-mark
    half recurses left.  Tied marks order by player index."""
    n = len(measures)
    if n < 1:
        raise ValueError("need at least one player")
    session = Session(measures)
    taken: dict[int, list[tuple[Alg, Alg]]] = {}

    def divide(players: list[int], left: Alg, right: Alg) -> None:
        if len(players) == 1:
            taken[players[0]] = [(left, right)]
            return
        k = len(players)
        half = k // 2
        marks: list[tuple[Alg, int]] = []
        for p in players:
            remaining = session.eval(p, left, right)
            mark = session.cut(p, left, remaining * Fraction(half, k))
            marks.append((mark, p))
        # marks are built in ascending player order, and the stable sort
        # keeps that order among exactly tied marks
        marks.sort(key=lambda mp: mp[0])
        pivot = marks[half - 1][0]
        left_group = sorted(p for _, p in marks[:half])
        right_group = sorted(p for _, p in marks[half:])
        divide(left_group, left, pivot)
        divide(right_group, pivot, right)

    with session.counting():
        divide(list(range(n)), AlgebraicNumber(0), AlgebraicNumber(1))
    return ProtocolRun("even-paz", _assemble(taken, n), session.transcript, frozenset({"proportional"}))


def selfridge_conway(measures: Sequence[Measure]) -> ProtocolRun:
    """The classical three-player envy-free procedure, with exact trims.

    Player 1 cuts three equal pieces by its own measure; player 2 trims
    the strictly largest down to a tie with the second largest; players
    choose 3, 2, 1 with the trimmer forced onto the trimmed piece when
    still available.  The trim residue is split by whichever of players
    2 and 3 did not take the trimmed piece, and chosen T-taker first,
    then player 1, then the residue divider."""
    if len(measures) != 3:
        raise ValueError("exactly three players")
    session = Session(measures)
    taken: dict[int, list[tuple[Alg, Alg]]] = {0: [], 1: [], 2: []}
    with session.counting():
        third = Fraction(1, 3)
        y1 = session.cut(0, 0, third)
        y2 = session.cut(0, y1, third)
        pieces: list[tuple[Alg, Alg]] = [
            (AlgebraicNumber(0), y1),
            (y1, y2),
            (y2, AlgebraicNumber(1)),
        ]
        vals2 = [session.eval(1, lo, hi) for lo, hi in pieces]
        order = _ranked(vals2)
        largest, second = order[0], order[1]
        trimmed_idx: Optional[int] = None
        residue: Optional[tuple[Alg, Alg]] = None
        if vals2[largest].compare(vals2[second]) > 0:
            lo, hi = pieces[largest]
            z = session.cut(1, lo, vals2[second])
            pieces[largest] = (lo, z)
            residue = (z, hi)
            trimmed_idx = largest
        # phase one choices: player 3, then player 2, then player 1
        available = [0, 1, 2]
        pick3 = _best_piece(session, 2, pieces, available)
        available.remove(pick3)
        if trimmed_idx is not None and trimmed_idx in available:
            pick2 = trimmed_idx
        else:
            pick2 = _best_piece(session, 1, pieces, available)
        available.remove(pick2)
        pick1 = available[0]
        taken[2].append(pieces[pick3])
        taken[1].append(pieces[pick2])
        taken[0].append(pieces[pick1])
        if residue is not None:
            t_taker = 2 if pick3 == trimmed_idx else 1
            divider = 1 if t_taker == 2 else 2
            rlo, rhi = residue
            r_total = session.eval(divider, rlo, rhi)
            w1 = session.cut(divider, rlo, r_total / 3)
            w2 = session.cut(divider, w1, r_total / 3)
            rpieces = [(rlo, w1), (w1, w2), (w2, rhi)]
            ravail = [0, 1, 2]
            for chooser in (t_taker, 0, divider):
                pick = _best_piece(session, chooser, rpieces, ravail)
                ravail.remove(pick)
                taken[chooser].append(rpieces[pick])
    return ProtocolRun(
        "selfridge-conway", _assemble(taken, 3), session.transcript, frozenset({"envy_free"})
    )


def _ranked(values: list[Alg]) -> list[int]:
    """Piece indices sorted by value descending, index ascending on ties."""
    idx = list(range(len(values)))
    for i in range(1, len(idx)):
        j = i
        while j > 0:
            a, b = idx[j - 1], idx[j]
            s = values[a].compare(values[b])
            if s < 0 or (s == 0 and b < a):
                idx[j - 1], idx[j] = b, a
                j -= 1
            else:
                break
    return idx


def _best_piece(session: Session, player: int, pieces: list[tuple[Alg, Alg]], available: list[int]) -> int:
    vals = {k: session.eval(player, pieces[k][0], pieces[k][1]) for k in available}
    best = available[0]
    for k in available[1:]:
        if vals[k].compare(vals[best]) > 0:
            best = k
    return best


PROTOCOLS: dict[str, Callable[..., ProtocolRun]] = {
    "cut-and-choose": lambda measures: cut_and_choose(measures[0], measures[1]),
    "last-diminisher": last_diminisher,
    "even-paz": even_paz,
    "selfridge-conway": selfridge_conway,
}


def run_protocol(name: str, measures: Sequence[Measure]) -> ProtocolRun:
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}")
    if name == "cut-and-choose" and len(measures) != 2:
        raise ValueError("cut-and-choose needs exactly two measures")
    return PROTOCOLS[name](measures)
