import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cakelab.algebraic as alg
import cakelab.cake as cake
from cakelab import factoring
from cakelab import (
    AlgebraicNumber,
    Allocation,
    DegreeCapExceeded,
    InfeasibleAmountError,
    InvalidMeasureError,
    Measure,
    Poly,
    QueryDomainError,
    Session,
    check_fairness,
    max_welfare,
    nth_root,
    welfare,
)
from _oracle import validate_cdf_oracle
from conftest import time_limit

A = AlgebraicNumber
X = Poly.x()


def uniform(label="u"):
    return Measure.make(X, label)


def power(d, label=None):
    return Measure.make(Poly.monomial(d), label or f"pow{d}")


class TestMeasureValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(InvalidMeasureError, match="f\\(0\\)"):
            Measure.make(Poly([-1, 2]))

    def test_must_end_at_one(self):
        with pytest.raises(InvalidMeasureError, match="f\\(1\\)"):
            Measure.make(Poly([0, Fraction(1, 2)]))

    def test_density_sign_change_rejected(self):
        # f = 3x^2 - 2x^3 ends at 1 but decreases beyond x = 1 only; craft
        # one that dips inside: f = 3x - 2x^3 - ... use 4x^3 - 3x^2 ... pick
        # f with f' negative inside (0,1): f = 4x^3 - 3x^2 fails f(1)=1 ok
        # but f'(x) = 12x^2 - 6x < 0 near 0+.
        with pytest.raises(InvalidMeasureError, match="monotone"):
            Measure.make(Poly([0, 0, -3, 4]))

    def test_valid_mixed(self):
        m = Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]), "mq")
        assert m.cdf(Fraction(1)) == 1

    def test_flat_density_at_interior_point_ok(self):
        # f = x^2 has f'(0) = 0: fine, still strictly increasing on [0,1]
        Measure.make(Poly.monomial(2))


def _cdfs():
    """Rational f with f(0) = 0 and f(1) = 1: free coefficients of either
    sign with the top one fixed by f(1) = 1, or nonnegative weights scaled
    to sum to 1."""
    q = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8))

    def signed(cs):
        return Poly([0, *cs, 1 - sum(cs)])

    def weights(ws):
        return Poly([0, *(Fraction(w, sum(ws)) for w in ws)])

    return st.one_of(
        st.lists(q, min_size=0, max_size=5).map(signed),
        st.lists(st.integers(0, 6), min_size=1, max_size=6).filter(any).map(weights),
    )


class TestValidationShortcut:
    """A density with no negative coefficient is accepted with no Sturm
    isolation; every other density keeps the isolation and its messages."""

    @settings(max_examples=300, deadline=None)
    @given(_cdfs())
    @example(Poly([0, 0, 3, -2]))
    @example(Poly([0, 0, -3, 4]))
    @example(Poly([0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)]))
    def test_agrees_with_sturm_oracle(self, f):
        def outcome(check):
            try:
                check(f)
            except InvalidMeasureError as e:
                return str(e)
            return None

        assert outcome(cake.validate_cdf) == outcome(validate_cdf_oracle)

    @pytest.mark.parametrize(
        "coeffs, isolations",
        [
            ([0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)], 0),  # x/2 + x^5/2
            ([0, 0, 3, -2], 1),  # 3x^2 - 2x^3, valid: f' = 6x(1 - x)
        ],
    )
    def test_isolation_count(self, monkeypatch, coeffs, isolations):
        calls = []
        isolate = cake.sturm_isolate

        def counted(p, span):
            calls.append(p)
            return isolate(p, span)

        monkeypatch.setattr(cake, "sturm_isolate", counted)
        Measure.make(Poly(coeffs))
        assert len(calls) == isolations


class TestQueries:
    @pytest.mark.parametrize("f", [X**3, Poly([0, Fraction(1, 2), Fraction(1, 2)]), Poly([0, Fraction(1, 2), 0, 0, 0, Fraction(1, 2)])])
    def test_comparisons_build_no_difference_node(self, f, monkeypatch):
        # the range, amount and order checks and the tower's radical
        # witness compare without a subtraction: the only differences
        # built are 1 - F(x) in the cut and the eval's answer
        s = Session([Measure(f)])
        subs = []
        fold_sub = alg._fold_sub

        def spy(a, b):
            subs.append((a, b, fold_sub(a, b)))
            return subs[-1][2]

        monkeypatch.setattr(alg, "_fold_sub", spy)
        x, amount = Fraction(1, 4), Fraction(1, 3)
        y = s.cut(0, x, amount)
        assert [(a.value, b.value) for a, b, _ in subs] == [(1, f(x))]
        answer = s.eval(0, x, y)
        assert len(subs) == 2 and subs[1][2] is answer._node
        assert answer.compare(amount) == 0

    def test_eval_examples(self):
        s = Session([uniform(), power(5)])
        assert s.eval(1, 0, Fraction(1, 2)).as_rational() == Fraction(1, 32)
        assert s.eval(0, Fraction(1, 4), Fraction(3, 4)).as_rational() == Fraction(1, 2)

    def test_transcript_of_a_cut_at_a_rational_target_past_the_cap(self):
        # t is 3/8 with no single-atom form, and elimination would need
        # degree 64 for (a+b)(a-b); the atoms' algebra of 2^(1/4) and
        # 3^(1/4) has dimension 16 and decides it.  The CDF reaches 3/8 at
        # the grid point 1/2
        a, b = nth_root(2, 4), nth_root(3, 4)
        t = (a + b) * (a - b) - (a * a - b * b) + Fraction(3, 8)
        s = Session([Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]))])
        with time_limit(2):
            assert s.cut(0, 0, t) == Fraction(1, 2)
            assert s.transcript.dump() == (
                "#0 player1 cut args=(0, 0.375) answer=0.5\nstep 0: deg=1 kind=trivial source=#0"
            )

    def test_transcript_of_a_cut_at_a_rational_target_past_the_algebra_cap(self):
        # over seventh roots the algebra has dimension 49, past the cap of
        # 48, and the elimination for a+b asks for degree 49
        a, b = nth_root(2, 7), nth_root(3, 7)
        t = (a + b) * (a - b) - (a * a - b * b) + Fraction(3, 8)
        s = Session([Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]))])
        with time_limit(2):
            with pytest.raises(DegreeCapExceeded):
                s.cut(0, 0, t)
            try:
                s.transcript.dump()
            except DegreeCapExceeded:
                pass

    def test_eval_at_cut_point_is_definitional_inverse(self):
        s = Session([uniform(), power(5)])
        y = s.cut(1, 0, Fraction(1, 2))
        assert s.eval(1, 0, y).as_rational() == Fraction(1, 2)

    def test_eval_at_a_cut_point_past_the_cap(self):
        # b solves b/2 + b^7/2 = a for a = (1/2)^(1/7): degree 7 over the
        # tower's field, 49 over Q, past the default cap.  Evaluating x^2 at
        # b has no residue form then; it folds one multiplication and one
        # addition per coefficient instead, which charges the same ticks as
        # the residue form does at a cap that admits b's minimal polynomial
        septic = Measure.make(Poly([0, Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(1, 2)]))

        def run():
            s = Session([power(7), septic, power(2)])
            with s.counting():
                a = s.cut(0, 0, Fraction(1, 2))
                b = s.cut(1, 0, a)
                v = s.eval(2, 0, b)
            return s, b, v

        s, b, v = run()
        with pytest.raises(DegreeCapExceeded):
            b.minimal_polynomial()
        eps = Fraction(1, 1 << 64)
        (lo, hi), (vlo, vhi) = b.approx(eps), v.approx(eps)
        assert vlo <= hi * hi and lo * lo <= vhi
        assert [st.degree for st in s.transcript.tower.steps] == [7, 7, 1]
        factoring.set_degree_cap(64)  # the fixture restores the default
        ref, ref_b, ref_v = run()
        assert ref_b.minimal_polynomial().degree == 49
        assert s.transcript.bss_op_count == ref.transcript.bss_op_count == 24
        assert v.approx(eps) == ref_v.approx(eps)

    def test_cut_examples(self):
        s = Session([uniform(), power(5)])
        assert s.cut(0, 0, Fraction(1, 2)).as_rational() == Fraction(1, 2)
        y = s.cut(1, 0, Fraction(1, 2))
        assert str(y.minimal_polynomial()) == "2*x^5 - 1"
        assert [st.degree for st in s.transcript.tower.steps] == [1, 5]

    def test_cut_from_interior(self):
        s = Session([power(5)])
        y = s.cut(0, Fraction(1, 2), Fraction(1, 2))
        assert (y**5 - Fraction(17, 32)).sign() == 0

    def test_cut_general_polynomial(self):
        m = Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]), "mq")
        s = Session([m])
        y = s.cut(0, 0, Fraction(1, 2))
        # y^2 + y - 1 = 0: the golden section
        assert str(y.minimal_polynomial()) == "x^2 + x - 1"

    def test_inverse_law_random(self):
        rng = random.Random(41)
        for m in (uniform(), power(2), power(5), Measure.make(Poly([0, Fraction(1, 2), Fraction(1, 2)]), "mq")):
            for _ in range(10):
                s = Session([m])
                x = Fraction(rng.randint(0, 20), 40)
                room = 1 - m.cdf(x)
                a = room * Fraction(rng.randint(0, 16), 16)
                y = s.cut(0, x, a)
                assert (s.eval(0, x, y) - a).sign() == 0

    def test_cut_monotone_in_amount(self):
        s = Session([power(3)])
        y1 = s.cut(0, Fraction(1, 8), Fraction(1, 4))
        y2 = s.cut(0, Fraction(1, 8), Fraction(1, 2))
        assert (y1 - Fraction(1, 8)).sign() >= 0
        assert (y2 - y1).sign() > 0
        assert (A(1) - y2).sign() >= 0

    def test_domain_errors(self):
        s = Session([uniform()])
        with pytest.raises(QueryDomainError):
            s.eval(0, Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(QueryDomainError):
            s.eval(0, Fraction(-1, 4), Fraction(1, 2))
        with pytest.raises(InfeasibleAmountError):
            s.cut(0, Fraction(1, 2), Fraction(3, 4))
        with pytest.raises(InfeasibleAmountError):
            s.cut(0, 0, Fraction(-1, 2))

    def test_transcript_dump_shape(self):
        s = Session([uniform(), power(5)])
        s.cut(0, 0, Fraction(1, 2))
        s.eval(1, 0, Fraction(1, 2))
        lines = s.transcript.dump().splitlines()
        assert lines[0].startswith("#0 player1 cut args=(0, 0.5) answer=0.5")
        assert lines[1].startswith("#1 player2 eval args=(0, 0.5) answer=0.03125")
        assert lines[2].startswith("step 0:")


class TestFairness:
    def test_half_split_under_uniform_and_quintic(self):
        alloc = Allocation.simple([A(Fraction(1, 2))])
        rep = check_fairness(alloc, [uniform("a"), power(5, "b")])
        assert rep.proportional and rep.envy_free and not rep.equitable
        w = rep.witnesses[0]
        assert w.criterion == "equitable"
        assert w.own_value.as_rational() == Fraction(1, 2)
        assert w.other_value.as_rational() == Fraction(31, 32)

    def test_identical_uniform_all_three(self):
        alloc = Allocation.simple([A(Fraction(1, 2))])
        rep = check_fairness(alloc, [uniform("a"), uniform("b")])
        assert rep.proportional and rep.envy_free and rep.equitable

    def test_equitable_at_the_cubic_cutpoint(self):
        t_star = A.real_root(X**3 + X**2 - Poly.constant(1), 0, 1)
        alloc = Allocation.simple([t_star])
        rep = check_fairness(alloc, [uniform("a"), power(5, "b")])
        assert rep.equitable  # 1 - t^5 = t because t^5 + t - 1 = 0


class TestWelfare:
    def test_whole_cake_to_one_player(self):
        alloc = Allocation(((( A(0), A(1) ),), ()))
        assert welfare(alloc, [uniform("a"), power(3, "b")]).as_rational() == 1

    def test_half_split(self):
        alloc = Allocation.simple([A(Fraction(1, 2))])
        assert welfare(alloc, [uniform("a"), power(3, "b")]).as_rational() == Fraction(11, 8)

    def test_algebraic_cut(self):
        cut = nth_root(Fraction(1, 3), 2)
        alloc = Allocation.simple([cut])
        w = welfare(alloc, [uniform("a"), power(3, "b")])
        expected = 1 + 2 * nth_root(3, 2) / 9
        assert (w - expected).sign() == 0


class TestMaxWelfare:
    def test_uniform_vs_cubic(self):
        alloc = max_welfare([uniform("a"), power(3, "b")])
        assert alloc.pieces[0][0][0].sign() == 0
        cut = alloc.pieces[0][0][1]
        assert (cut - nth_root(Fraction(1, 3), 2)).sign() == 0
        assert (alloc.pieces[1][0][1] - 1).sign() == 0

    def test_identical_measures_tie_to_first(self):
        alloc = max_welfare([uniform("a"), uniform("b")])
        assert len(alloc.pieces[0]) == 1 and not alloc.pieces[1]
        assert welfare(alloc, [uniform("a"), uniform("b")]).as_rational() == 1

    def test_uniform_vs_quintic(self):
        alloc = max_welfare([uniform("a"), power(5, "b")])
        x0 = nth_root(Fraction(1, 5), 4)
        assert (alloc.pieces[0][0][1] - x0).sign() == 0
        w = welfare(alloc, [uniform("a"), power(5, "b")])
        assert (w - (x0 + 1 - x0**5)).sign() == 0

    def test_dominates_random_allocations(self):
        measures = [uniform("a"), power(3, "b")]
        best = welfare(max_welfare(measures), measures)
        rng = random.Random(59)
        for _ in range(60):
            cuts = sorted(Fraction(rng.randint(0, 64), 64) for _ in range(rng.choice((1, 2))))
            owners = [rng.randint(0, 1) for _ in range(len(cuts) + 1)]
            alloc = Allocation.simple([A(c) for c in cuts], owners, n=2)
            assert (best - welfare(alloc, measures)).sign() >= 0

    def test_pointwise_dominance(self):
        # the assigned player's density dominates every rival throughout
        # the piece: nonnegative at the midpoint and at a sample inside
        # every root-free sub-segment (so it never dips negative)
        from cakelab import DyadicInterval
        from cakelab.polys import sturm_isolate

        measures = [uniform("a"), power(3, "b"), power(5, "c")]
        alloc = max_welfare(measures)
        densities = [m.density for m in measures]
        for owner, per in enumerate(alloc.pieces):
            for lo, hi in per:
                import math as _math

                llo, lhi = lo.approx(Fraction(1, 2**20))
                hlo, hhi = hi.approx(Fraction(1, 2**20))
                # dyadic rational points strictly inside the piece
                a = Fraction(_math.ceil(lhi * 2**16), 2**16)
                b = Fraction(_math.floor(hlo * 2**16), 2**16)
                if a >= b:
                    continue
                for j in range(len(measures)):
                    if j == owner:
                        continue
                    diff = densities[owner] - densities[j]
                    samples = [a, b, (a + b) / 2]
                    cuts = sturm_isolate(diff, DyadicInterval.make(a, b)) if not diff.is_zero else []
                    bounds = sorted({a, b} | {iv.lo for iv in cuts} | {iv.hi for iv in cuts})
                    samples.extend((u + v) / 2 for u, v in zip(bounds, bounds[1:]))
                    for q in samples:
                        if a <= q <= b:
                            assert diff(q) >= 0


class TestAllocation:
    def test_validate_partition(self):
        alloc = Allocation.simple([A(Fraction(1, 3)), A(Fraction(2, 3))])
        alloc.validate()

    def test_validate_rejects_gap(self):
        bad = Allocation(
            (
                ((A(0), A(Fraction(1, 3))),),
                ((A(Fraction(1, 2)), A(1)),),
            )
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_reversed_piece(self):
        # the tiling holds, but [3/2, 1] runs backwards
        bad = Allocation.simple([A(Fraction(3, 2))])
        with pytest.raises(ValueError, match="reversed"):
            bad.validate()

    @pytest.mark.parametrize(
        "cuts, owners",
        [
            ([Fraction(1, 2)], [0, 5]),  # owner outside range(2)
            ([Fraction(1, 2)], [0, -1]),
            ([Fraction(1, 2), Fraction(3, 4)], None),  # three pieces, two players
            ([Fraction(1, 2)], [0]),  # two pieces, one owner
            ([], [0, 1]),  # one piece, two owners
        ],
    )
    def test_simple_needs_one_owner_per_piece_in_range(self, cuts, owners):
        with pytest.raises(ValueError, match="owner"):
            Allocation.simple([A(c) for c in cuts], owners, n=2)

    def test_cutpoints_sorted_unique(self):
        alloc = Allocation.simple([A(Fraction(1, 3)), A(Fraction(2, 3))], [0, 1, 0])
        pts = alloc.cutpoints()
        assert [p.as_rational() for p in pts] == [Fraction(1, 3), Fraction(2, 3)]
