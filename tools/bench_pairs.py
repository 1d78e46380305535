#!/usr/bin/env python3
"""Alternating benchmark runs in two checkouts, paired.

    python3 tools/bench_pairs.py BASE HEAD --workload W --seed S [--pairs N] [--out FILE]

Runs `python3 bench/run.py --workload W --seed S --trace 0`, at the
benchmark's own run length, in the checkout BASE and in the checkout
HEAD, once each per pair (N = 10 by default), BASE first in odd pairs
and HEAD first in even ones, so that a drift in the host's speed falls
on both sides alike.  Each run's last line of output
is the benchmark's JSON result.

FILE (default bench-pairs-W-seedS.json) receives, for each pair, the six
end-to-end metrics, `failed` and `correct` of both sides; the medians
per side; BASE's quartiles per metric; the number of pairs in which HEAD
is better, by the metric's direction in HEAD's BENCHMARK.json; each
metric's verdict (`verdict`); whether the per-item digests of each
side's runs equal those of that side's first run (`digests_stable`); and
the items at which HEAD's first run differs from BASE's first run in
outcome or digest, each with its index, kind and outcome on either side
(`digest_changes`).  Nothing is written in either checkout but what
bench/run.py writes under its .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(checkout: str, args) -> tuple[dict, str]:
    """One benchmark run in the checkout: (result, per-item digests)."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    digests = os.path.join(checkout, ".bench_out", f"{args.workload}-seed{args.seed}-trace0", "digests-untraced.tsv")
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


def _summary(result: dict, names: list[str]) -> dict:
    out = {name: result["metrics"][name]["value"] for name in names}
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
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    names = [m["name"] for m in end_to_end]
    lower = {m["name"]: m["better"] == "lower" for m in end_to_end}
    bound = {m["name"]: m["bound"] for m in end_to_end}

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

    def values(side, name):
        return [p[side][name] for p in pairs]

    report = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} --trace 0",
        "base": os.path.abspath(args.base),
        "head": os.path.abspath(args.head),
        "workload": args.workload,
        "seed": args.seed,
        "pairs": pairs,
        "median": {side: {n: statistics.median(values(side, n)) for n in names + ["failed"]}
                   for side in ("base", "head")},
        "base_quartiles": {n: statistics.quantiles(values("base", n), n=4)[::2] if len(pairs) > 1 else None
                           for n in names},
        "head_better_pairs": {
            n: sum((h < b) if lower[n] else (h > b) for b, h in zip(values("base", n), values("head", n)))
            for n in names
        },
        "verdict": {n: verdict(values("base", n), values("head", n), lower[n], bound[n]) if len(pairs) > 1 else None
                    for n in names},
        "digests_stable": {side: all(d == digests[side][0] for d in digests[side]) for side in ("base", "head")},
        "digest_changes": digest_changes(digests["base"][0], digests["head"][0]),
    }
    out = args.out or f"bench-pairs-{args.workload}-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"median": report["median"], "head_better_pairs": report["head_better_pairs"],
                      "verdict": report["verdict"], "digests_stable": report["digests_stable"],
                      "digest_changes": report["digest_changes"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
