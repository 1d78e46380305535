import math
from fractions import Fraction

import pytest

from cakelab import (
    AlgebraicNumber,
    cake,
    check_fairness,
    cut_and_choose,
    even_paz,
    last_diminisher,
    nth_root,
    run_protocol,
    selfridge_conway,
)

from _corpus import corpus, power, uniform

A = AlgebraicNumber


def piece_bounds(alloc, player):
    return [(lo, hi) for lo, hi in alloc.pieces[player]]


class TestOpCount:
    """`bss_op_count` is the session's count when its last query ends: the
    ticks inside each query and the protocol's comparisons between them.
    A comparison after the last query is not counted."""

    @pytest.fixture()
    def spans(self, monkeypatch):
        spans = []
        for name in ("cut", "eval"):
            query = getattr(cake.Session, name)

            def spanned(self, *args, _query=query, _name=name):
                before = self._ops[0]
                answer = _query(self, *args)
                spans.append((_name, before, self._ops[0]))
                return answer

            monkeypatch.setattr(cake.Session, name, spanned)
        return spans

    def test_cut_and_choose(self, spans):
        run = cut_and_choose(uniform("a"), power(2, "b"))
        # 4 ticks in the cut and 4 in the eval; the chooser's comparison
        # comes after the last query
        assert spans == [("cut", 0, 4), ("eval", 4, 8)]
        assert run.transcript.bss_op_count == 8

    def test_last_diminisher(self, spans):
        run = last_diminisher([uniform("a"), power(2, "b"), power(3, "c")])
        # 23 ticks in five queries, and one comparison of 1 tick after
        # each of the first two evals
        assert spans == [("cut", 0, 4), ("eval", 4, 8), ("eval", 9, 13), ("cut", 14, 21), ("eval", 21, 25)]
        assert sum(end - start for _, start, end in spans) == 23
        assert run.transcript.bss_op_count == 25


class TestCutAndChoose:
    def test_uniform_vs_quintic(self):
        run = cut_and_choose(uniform("a"), power(5, "b"))
        # the chooser values the left piece at 1/32 < 1/2 and takes the right
        (p1_lo, p1_hi), = piece_bounds(run.allocation, 0)
        (p2_lo, p2_hi), = piece_bounds(run.allocation, 1)
        assert p1_lo == 0 and p1_hi == Fraction(1, 2)
        assert p2_lo == Fraction(1, 2) and p2_hi == 1
        vals = [power(5).value(p2_lo, p2_hi)]
        assert vals[0].as_rational() == Fraction(31, 32)
        assert run.transcript.rw_query_count == 2

    def test_tie_gives_chooser_the_left_piece(self):
        run = cut_and_choose(uniform("a"), uniform("b"))
        (lo, hi), = piece_bounds(run.allocation, 1)
        assert lo == 0 and hi == Fraction(1, 2)

    def test_quintic_cutter(self):
        run = cut_and_choose(power(5, "a"), uniform("b"))
        # the cutter marks (1/2)^(1/5) ~ 0.87; the chooser takes the left
        y = nth_root(Fraction(1, 2), 5)
        (lo, hi), = piece_bounds(run.allocation, 1)
        assert lo == 0 and (hi - y).sign() == 0
        (lo1, hi1), = piece_bounds(run.allocation, 0)
        assert power(5).value(lo1, hi1).as_rational() == Fraction(1, 2)


class TestLastDiminisher:
    def test_three_identical_uniform(self):
        run = last_diminisher([uniform("a"), uniform("b"), uniform("c")])
        expect = [(0, Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), 1)]
        for i, (elo, ehi) in enumerate(expect):
            (lo, hi), = piece_bounds(run.allocation, i)
            assert lo == elo and hi == ehi

    def test_two_identical_uniform(self):
        run = last_diminisher([uniform("a"), uniform("b")])
        (lo, hi), = piece_bounds(run.allocation, 0)
        assert lo == 0 and hi == Fraction(1, 2)

    def test_two_players_reduces_to_cut_and_compare(self):
        run = last_diminisher([uniform("a"), power(5, "b")])
        kinds = [(r.kind, r.player) for r in run.transcript.records]
        assert kinds[0] == ("cut", 0)
        assert kinds[1] == ("eval", 1)

    def test_diminish_branch(self):
        # the square player values the first piece above 1/3 and trims it
        run = last_diminisher([power(2, "a"), uniform("b"), power(3, "c")])
        (lo, hi), = piece_bounds(run.allocation, 1)
        assert lo == 0 and hi == Fraction(1, 3)
        rep = check_fairness(run.allocation, [power(2, "a"), uniform("b"), power(3, "c")])
        assert rep.proportional


class TestEvenPaz:
    def test_two_identical(self):
        run = even_paz([uniform("a"), uniform("b")])
        (lo, hi), = piece_bounds(run.allocation, 0)
        assert lo == 0 and hi == Fraction(1, 2)

    def test_uniform_vs_quintic_marks(self):
        run = even_paz([uniform("a"), power(5, "b")])
        marks = [r.answer for r in run.transcript.records if r.kind == "cut"]
        assert marks[0].as_rational() == Fraction(1, 2)
        assert (marks[1] - nth_root(Fraction(1, 2), 5)).sign() == 0
        (lo, hi), = piece_bounds(run.allocation, 0)
        assert lo == 0 and hi == Fraction(1, 2)
        assert power(5).value(*piece_bounds(run.allocation, 1)[0]).as_rational() == Fraction(31, 32)

    def test_four_identical_quarters(self):
        run = even_paz([uniform(c) for c in "abcd"])
        for i in range(4):
            (lo, hi), = piece_bounds(run.allocation, i)
            assert lo == Fraction(i, 4) and hi == Fraction(i + 1, 4)

    def test_query_count_snapshot_power_of_two(self):
        # one eval and one cut per player per level
        run2 = even_paz([uniform("a"), uniform("b")])
        assert run2.transcript.rw_query_count == 4
        run4 = even_paz([uniform(c) for c in "abcd"])
        assert run4.transcript.rw_query_count == 16
        trace4 = [(r.kind, r.player, str(r.answer)) for r in run4.transcript.records]
        assert trace4[:4] == [
            ("eval", 0, "1"),
            ("cut", 0, "1/2"),
            ("eval", 1, "1"),
            ("cut", 1, "1/2"),
        ]

    def test_query_count_bound_on_corpus(self):
        for _, name, measures in corpus():
            if name != "even-paz":
                continue
            run = even_paz(measures)
            n = len(measures)
            assert run.transcript.rw_query_count <= 2 * n * max(1, math.log2(n)) + n


class TestSelfridgeConway:
    def test_identical_uniform_trisection_no_trim(self):
        run = selfridge_conway([uniform("a"), uniform("b"), uniform("c")])
        assert run.transcript.rw_query_count == 10  # 2 cuts + 3 + 5 choice evals
        for per in run.allocation.pieces:
            assert len(per) == 1
        vals = [uniform().value(*run.allocation.pieces[i][0]).as_rational() for i in range(3)]
        assert vals == [Fraction(1, 3)] * 3

    def test_envy_free_with_quintic(self):
        measures = [uniform("a"), uniform("b"), power(5, "c")]
        run = selfridge_conway(measures)
        assert check_fairness(run.allocation, measures).envy_free

    def test_trim_produces_two_piece_share(self):
        measures = [uniform("a"), power(2, "b"), uniform("c")]
        run = selfridge_conway(measures)
        assert check_fairness(run.allocation, measures).envy_free
        sizes = sorted(len(per) for per in run.allocation.pieces)
        assert sizes == [2, 2, 2]

    def test_first_chooser_takes_the_trimmed_piece(self):
        # with (x, x^2, x^3) the cubic player prefers the trimmed piece,
        # which drives the other residue-division branch
        measures = [uniform("a"), power(2, "b"), power(3, "c")]
        run = selfridge_conway(measures)
        assert check_fairness(run.allocation, measures).envy_free

    def test_mixed_quadratic_trimmer(self):
        # the trimmer owns a general quadratic CDF; trim and residue cuts
        # land in three independent quadratic fields, all handled by the
        # radical lattice (total tower degree 8)
        from fractions import Fraction

        from cakelab import Measure, Poly

        measures = [
            uniform("a"),
            Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]), "b"),
            power(2, "c"),
        ]
        run = selfridge_conway(measures)
        assert check_fairness(run.allocation, measures).envy_free
        degrees = [s.degree for s in run.transcript.tower.steps if s.degree > 1]
        assert degrees == [2, 2, 2]

    def test_player_count_validation(self):
        with pytest.raises(ValueError):
            run_protocol("cut-and-choose", [uniform("a"), uniform("b"), uniform("c")])
        with pytest.raises(ValueError):
            selfridge_conway([uniform("a"), uniform("b")])
        with pytest.raises(ValueError):
            run_protocol("no-such-protocol", [uniform("a"), uniform("b")])


class TestCorpusAudits:
    @pytest.mark.parametrize("case_id,protocol,measures", corpus())
    def test_guarantees_hold_exactly(self, case_id, protocol, measures):
        run = run_protocol(protocol, measures)
        rep = check_fairness(run.allocation, measures)
        flags = {
            "proportional": rep.proportional,
            "envy_free": rep.envy_free,
            "equitable": rep.equitable,
        }
        for g in run.guarantees:
            assert flags[g], f"{case_id}: {g} audit failed"
        run.allocation.validate()


class TestTranscriptProperties:
    def test_determinism_byte_for_byte(self):
        for _, protocol, measures in corpus()[:6]:
            a = run_protocol(protocol, measures).transcript.dump()
            b = run_protocol(protocol, measures).transcript.dump()
            assert a == b

    def test_cutpoints_reproduce_from_answers(self):
        # every allocation endpoint is 0, 1, or exactly equals a recorded answer
        for _, protocol, measures in corpus():
            run = run_protocol(protocol, measures)
            answers = [r.answer for r in run.transcript.records]
            for per in run.allocation.pieces:
                for endpoint in (e for piece in per for e in piece):
                    r = endpoint.as_rational()
                    if r is not None and r in (0, 1):
                        continue
                    assert any((endpoint - ans).sign() == 0 for ans in answers)

    def test_lemma1_on_prime_measures(self):
        quintic3 = [uniform("a"), uniform("b"), power(5, "c")]
        quintic2 = [uniform("a"), power(5, "b")]
        for measures in (quintic2, quintic3):
            for protocol in ("last-diminisher", "even-paz"):
                run = run_protocol(protocol, measures)
                assert run.transcript.tower.verify_lemma1(5).passed
        run = cut_and_choose(*quintic2)
        assert run.transcript.tower.verify_lemma1(5).passed

    def test_nontrivial_cut_steps_carry_radical_witnesses(self):
        # on monomial measures every nontrivial step is a verified radical
        from cakelab import StepKind

        for _, protocol, measures in corpus():
            if not all(len([c for c in m.cdf.coeffs if c != 0]) == 1 for m in measures):
                continue
            run = run_protocol(protocol, measures)
            for step in run.transcript.tower.steps:
                if step.degree == 1:
                    continue
                assert step.kind is StepKind.RADICAL
                assert (step.generator**step.radical_index - step.radicand).sign() == 0
