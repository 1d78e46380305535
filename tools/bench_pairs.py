#!/usr/bin/env python3
"""Alternating benchmark runs in two checkouts, paired.

    python3 tools/bench_pairs.py BASE HEAD --workload W --seed S [--pairs N] [--trace T] [--out FILE]

Runs `python3 bench/run.py --workload W --seed S --trace T` (T = 0 by
default), at the benchmark's own run length, in the checkout BASE and in
the checkout HEAD, once each per pair (N = 10 by default), BASE first in
odd pairs and HEAD first in even ones, so that a drift in the host's speed
falls on both sides alike.  Each run's last line of output is the
benchmark's JSON result.

FILE (default bench-pairs-W-seedS.json, or bench-pairs-W-seedS-trace.json
with T = 1) receives, for each pair, the metrics, `failed` and `correct`
of both sides; the medians per side; whether the per-item digests of each
side's untraced runs equal those of that side's first run
(`digests_stable`); the items at which HEAD's first run differs from
BASE's first run in outcome or digest, each with its index, kind and
outcome on either side (`digest_changes`); and the pairs in which HEAD's
`failed` differs from BASE's, with both counts (`failed_changed`), since a
larger share of failed items is a regression whatever the timings say.

With T = 0 the metrics are the six end-to-end metrics, and FILE also holds
BASE's quartiles per metric, the number of pairs in which HEAD is better,
by the metric's direction in HEAD's BENCHMARK.json, and each metric's
verdict (`verdict`).  With T = 1 they are the per-layer metrics of
HEAD's BENCHMARK.json that every run reports (each layer's self time,
call counts, the tower's step counts), read from the traced run, and FILE
holds their medians only: a traced run times every call, so its times
show where time goes, not whether a change is faster.  Nothing is
written in either checkout but what bench/run.py writes under its
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _command(args) -> list[str]:
    return ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]


def _run(checkout: str, args) -> tuple[dict, str]:
    """One benchmark run in the checkout: (result, per-item digests of its
    untraced items)."""
    proc = subprocess.run([sys.executable, *_command(args)], cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    workdir = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digests = os.path.join(checkout, ".bench_out", workdir, "digests-untraced.tsv")
    with open(digests, encoding="utf-8") as fh:
        return result, fh.read()


def _items(digests: str) -> list[tuple[str, ...]]:
    """The rows (index, kind, outcome, digest) of a digests-*.tsv file."""
    return [tuple(line.split("\t")) for line in digests.splitlines() if line]


def digest_changes(base: str, head: str) -> list[dict]:
    """The items whose outcome or digest differs between two runs' digest
    files, in index order, with each side's outcome; an item that only one
    run reached reads None on the other."""
    b = {row[0]: row for row in _items(base)}
    h = {row[0]: row for row in _items(head)}
    changes = []
    for i in sorted(b.keys() | h.keys(), key=int):
        rb, rh = b.get(i), h.get(i)
        if rb is None or rh is None or rb[2:] != rh[2:]:
            changes.append({"i": int(i), "kind": (rb or rh)[1],
                            "base": rb and rb[2], "head": rh and rh[2]})
    return changes


def failed_changed(pairs: list[dict]) -> list[dict]:
    """The pairs whose HEAD run failed a different number of items than
    their BASE run, each with both counts."""
    return [{"pair": p["pair"], "base": p["base"]["failed"], "head": p["head"]["failed"]}
            for p in pairs if p["base"]["failed"] != p["head"]["failed"]]


def _summary(result: dict, names: list[str]) -> dict:
    out = {name: result["metrics"][name]["value"] for name in names if name in result["metrics"]}
    out["failed"] = result["failed"]
    out["correct"] = result["correct"]
    return out


def verdict(base: list[float], head: list[float], lower_is_better: bool, bound: float) -> str:
    """The verdict on one metric over paired runs base[i], head[i], at least
    two, with the metric's direction and relative bound.

    - "claimed": HEAD is better in at least nine tenths of the pairs, ties
      counting for neither, and its median is better than BASE's by more
      than the distance between BASE's quartiles;
    - "unresolved": otherwise, when that distance is wider than the bound
      times BASE's median and not every HEAD run is better than every BASE
      run;
    - "regression" when HEAD's median is worse than BASE's by more than
      the bound times BASE's median, else "no regression"."""

    def gain(b: float, h: float) -> float:
        return b - h if lower_is_better else h - b

    wins = sum(gain(b, h) > 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if 10 * wins >= 9 * len(base) and gain(mb, mh) > q3 - q1:
        return "claimed"
    if q3 - q1 > bound * abs(mb) and not all(gain(b, h) > 0 for b in base for h in head):
        return "unresolved"
    return "regression" if -gain(mb, mh) > bound * abs(mb) else "no regression"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]

    pairs, digests = [], {"base": [], "head": []}
    for i in range(1, args.pairs + 1):
        order = ("base", "head") if i % 2 else ("head", "base")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            result, dig = _run(getattr(args, side), args)
            pair[side] = _summary(result, names)
            digests[side].append(dig)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    # a per-layer metric that some run did not report has no median
    names = [n for n in names if all(n in p[side] for p in pairs for side in ("base", "head"))]

    def values(side, name):
        return [p[side][name] for p in pairs]

    report = {
        "command": "python3 " + " ".join(_command(args)),
        "base": os.path.abspath(args.base),
        "head": os.path.abspath(args.head),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pairs": pairs,
        "median": {side: {n: statistics.median(values(side, n)) for n in names + ["failed"]}
                   for side in ("base", "head")},
    }
    if not args.trace:
        lower = {m["name"]: m["better"] == "lower" for m in declared}
        bound = {m["name"]: m["bound"] for m in declared}
        report["base_quartiles"] = {
            n: statistics.quantiles(values("base", n), n=4)[::2] if len(pairs) > 1 else None for n in names
        }
        report["head_better_pairs"] = {
            n: sum((h < b) if lower[n] else (h > b) for b, h in zip(values("base", n), values("head", n)))
            for n in names
        }
        report["verdict"] = {
            n: verdict(values("base", n), values("head", n), lower[n], bound[n]) if len(pairs) > 1 else None
            for n in names
        }
    report["digests_stable"] = {side: all(d == digests[side][0] for d in digests[side]) for side in ("base", "head")}
    report["digest_changes"] = digest_changes(digests["base"][0], digests["head"][0])
    report["failed_changed"] = failed_changed(pairs)
    out = args.out or f"bench-pairs-{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    keys = ("median", "head_better_pairs", "verdict", "digests_stable", "digest_changes", "failed_changed")
    print(json.dumps({k: report[k] for k in keys if k in report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
