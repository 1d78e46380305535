import importlib.util
import json
import os
import statistics

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# base runs with quartiles 0.98 and 1.02 around the median 1.0
BASE = [1.0, 0.97, 1.03, 0.99, 1.01, 1.0, 0.98, 1.02, 0.96, 1.04]


def verdict(base, head, lower_is_better=True, bound=0.25):
    return bench_pairs.verdict(base, head, lower_is_better, bound)


class TestVerdict:
    def test_claimed_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread(self):
        assert verdict(BASE, [b * 0.8 for b in BASE]) == "claimed"
        # nine wins of ten are enough, eight are not
        nine = [b * 0.8 for b in BASE[:9]] + [BASE[9] * 1.1]
        assert verdict(BASE, nine) == "claimed"
        assert verdict(BASE, nine[:8] + [BASE[8] * 1.1, BASE[9] * 1.1]) == "no regression"
        # every pair won, but by less than the base's quartile spread
        assert verdict(BASE, [b - 0.001 for b in BASE]) == "no regression"

    def test_ties_count_for_neither_side(self):
        assert verdict(BASE, list(BASE)) == "no regression"
        assert verdict([1.0] * 10, [1.0] * 10, lower_is_better=False, bound=0.05) == "no regression"

    def test_regression_past_the_bound(self):
        assert verdict(BASE, [b * 1.2 for b in BASE]) == "no regression"
        assert verdict(BASE, [b * 1.3 for b in BASE]) == "regression"

    def test_direction_of_a_higher_is_better_metric(self):
        base = [0.95] * 10
        assert verdict(base, [0.99] * 10, lower_is_better=False, bound=0.05) == "claimed"
        assert verdict(base, [0.91] * 10, lower_is_better=False, bound=0.05) == "no regression"
        assert verdict(base, [0.80] * 10, lower_is_better=False, bound=0.05) == "regression"
        assert verdict(base, [0.99] * 10, lower_is_better=True, bound=0.05) == "no regression"

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        wide = [1.0, 0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1]
        assert verdict(wide, [1.05 * b for b in reversed(wide)]) == "unresolved"
        # a 30% worse median is still unresolved: the base cannot tell it apart
        assert verdict(wide, [1.3] * 10) == "unresolved"
        # unless every head run is better than every base run
        wide_quartiles = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]
        assert verdict(wide_quartiles, [0.9] * 10) == "no regression"

    def test_needs_two_pairs_for_quartiles(self):
        with pytest.raises(statistics.StatisticsError):
            verdict([1.0], [0.5])


def _tsv(*rows):
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


class TestDigestChanges:
    BASE = _tsv((0, "eval", "decided", "aa"), (1, "run-protocol", "failed", "bb"), (2, "cut", "decided", "cc"))

    def test_identical_runs_have_no_changes(self):
        assert bench_pairs.digest_changes(self.BASE, self.BASE) == []

    def test_outcome_and_digest_changes_with_each_side_outcome(self):
        head = _tsv((0, "eval", "decided", "aa"), (1, "run-protocol", "decided", "dd"), (2, "cut", "decided", "ee"))
        assert bench_pairs.digest_changes(self.BASE, head) == [
            {"i": 1, "kind": "run-protocol", "base": "failed", "head": "decided"},
            {"i": 2, "kind": "cut", "base": "decided", "head": "decided"},
        ]

    def test_an_item_only_one_run_reached(self):
        head = _tsv((0, "eval", "decided", "aa"), (1, "run-protocol", "failed", "bb"))
        assert bench_pairs.digest_changes(self.BASE, head) == [
            {"i": 2, "kind": "cut", "base": "decided", "head": None},
        ]
        assert bench_pairs.digest_changes(head, self.BASE) == [
            {"i": 2, "kind": "cut", "base": None, "head": "decided"},
        ]

    def test_indices_in_numeric_order(self):
        base = _tsv(*[(i, "eval", "decided", "aa") for i in range(12)])
        head = _tsv(*[(i, "eval", "decided", "aa" if i not in (2, 10) else "zz") for i in range(12)])
        assert [c["i"] for c in bench_pairs.digest_changes(base, head)] == [2, 10]


class TestReport:
    def test_stability_per_side_and_changes_against_base(self, tmp_path, monkeypatch, capsys):
        # BASE's runs all agree; HEAD decides item 1 and its third run
        # differs from its first at item 2
        ends = [{"name": "par2_ms", "better": "lower", "bound": 0.25}]
        for side in ("base", "head"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": ends}))
        base = _tsv((0, "eval", "decided", "aa"), (1, "run-protocol", "failed", "bb"), (2, "cut", "decided", "cc"))
        head = _tsv((0, "eval", "decided", "aa"), (1, "run-protocol", "decided", "dd"), (2, "cut", "decided", "cc"))
        runs = {"base": [base] * 3, "head": [head, head, head.replace("cc", "ee")]}

        def run(checkout, args):
            side = os.path.basename(checkout)
            result = {"metrics": {"par2_ms": {"value": 1.0 if side == "base" else 0.5}}, "failed": 0, "correct": 3}
            return result, runs[side].pop(0)

        monkeypatch.setattr(bench_pairs, "_run", run)
        out = tmp_path / "pairs.json"
        bench_pairs.main([str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "cli-mix",
                          "--pairs", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["digests_stable"] == {"base": True, "head": False}
        assert report["digest_changes"] == [{"i": 1, "kind": "run-protocol", "base": "failed", "head": "decided"}]
