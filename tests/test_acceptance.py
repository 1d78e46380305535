"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with -s to see the per-criterion report.  Every check is exact; the
stated wall-clock budgets are asserted where the criterion carries one.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from cakelab import (
    AlgebraicNumber,
    Allocation,
    Poly,
    TrinomialFamily,
    TrinomialStatus,
    check_fairness,
    check_impossibility_equitable,
    factor_over_Q,
    isolate_equitable_cutpoint,
    max_welfare,
    nth_root,
    run_protocol,
    selmer_classify,
    welfare,
)
from cakelab.cli import main as cli_main
from cakelab.ints import SMALL_PRIMES
from cakelab.polys import _modp_ddf, rational_roots

from _corpus import corpus, mixed_quadratic, mixed_quintic, power, uniform
from _oracle import kronecker_find_factor, oracle_factor

X = Poly.x()


def cli_json(capsys, args):
    code = cli_main(["--format", "structured"] + args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_01_equitable_quintic_certificate(capsys):
    t0 = time.perf_counter()
    code, data = cli_json(capsys, ["check-impossibility", "equitable", "--d", "5"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert data["verdict"] == "IMPOSSIBLE"
    assert sorted(f["factor"] for f in data["factorization"]) == [
        "x^2 - x + 1",
        "x^3 + x^2 - 1",
    ]
    assert data["real_root_degree"] == 3
    assert data["tower_primes"] == [5]
    assert elapsed < 1.0
    report(1, f"d=5 certificate exact in {elapsed:.3f}s")


def test_02_square_root_remark(capsys):
    code, data = cli_json(capsys, ["check-impossibility", "equitable", "--d", "5", "--allow-sqrt"])
    assert code == 0
    assert data["verdict"] == "IMPOSSIBLE"
    assert data["tower_primes"] == [2, 5]
    assert data["galois_fact"]["target_degree"] == 3
    report(2, "d=5 stays impossible with mediator square roots")


def test_03_equitable_degree_grid(capsys):
    t0 = time.perf_counter()
    for d in (6, 7, 8, 9, 10, 12):
        code, data = cli_json(capsys, ["check-impossibility", "equitable", "--d", str(d)])
        assert code == 0 and data["verdict"] == "IMPOSSIBLE"
        assert data["galois_fact"]["kind"] == "symmetric-nonsolvable"
        assert data["galois_fact"]["group"] == f"S_{d}"
    code, data = cli_json(capsys, ["check-impossibility", "equitable", "--d", "11"])
    assert code == 0 and data["verdict"] == "IMPOSSIBLE"
    degs = sorted(f["degree"] for f in data["factorization"])
    assert degs == [2, 9]
    for deg in degs:
        n = deg
        while n % 11 == 0:
            n //= 11
        assert n != 1  # not a power of 11
    for d in (1, 2, 3, 4):
        code, data = cli_json(capsys, ["check-impossibility", "equitable", "--d", str(d)])
        assert code == 2 and data["verdict"] == "NO-OBSTRUCTION-FOUND"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"degree grid 1..12 verdicts exact in {elapsed:.2f}s")


def test_04_welfare_grid(capsys):
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for p in (3, 5, 7):
            code, data = cli_json(capsys, ["check-impossibility", "welfare", "--n", str(n), "--p", str(p)])
            assert code == 0 and data["verdict"] == "IMPOSSIBLE"
            assert data["real_root_degree"] == p - 1
            codes = [s["code"] for s in data["narrative"]]
            assert "eisenstein-reversal" in codes
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"welfare grid (n,p) in {{2,3,4}}x{{3,5,7}} impossible in {elapsed:.2f}s")


def test_05_selmer_conformance():
    reducible = []
    for d in range(5, 13):
        cls = selmer_classify(d, TrinomialFamily.PLUS_MINUS)
        p = TrinomialFamily.PLUS_MINUS.poly(d)
        if cls.status is TrinomialStatus.FACTOR_MINUS:
            reducible.append(d)
            quad = Poly([1, -1, 1])
            assert cls.factor == quad
            assert quad * cls.cofactor == p  # exact division check
        else:
            # independent probe: exhaustive divisor search up to degree 8,
            # modular irreducibility beyond
            if d <= 8:
                assert not rational_roots(p)
                assert kronecker_find_factor(p.int_coeffs(), d // 2) is None
            else:
                ddfs = [_modp_ddf(p.int_coeffs(), q) for q in SMALL_PRIMES]
                assert any(ddf is not None and ddf[0][0] == d for ddf in ddfs)
    assert reducible == [5, 11]
    report(5, "trinomial classification reducible exactly at d in {5, 11}")


def test_06_equitable_cutpoint():
    cp = isolate_equitable_cutpoint(uniform("a"), power(5, "b"))
    assert str(cp.minpoly) == "x^3 + x^2 - 1"
    assert cp.degree == 3
    lo, hi = cp.value.approx(Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert Fraction("0.754877666") <= lo and hi <= Fraction("0.754877667")
    cert = check_impossibility_equitable(5)
    assert cp.degree == cert.real_root_factor.degree
    report(6, "equitable cutpoint isolated to 1e-12 with matching degree 3")


def test_07_lemma1_suite():
    two = [uniform("a"), power(5, "b")]
    three = [uniform("a"), uniform("b"), power(5, "c")]
    runs = [run_protocol("cut-and-choose", two)]
    for name in ("even-paz", "last-diminisher"):
        runs.append(run_protocol(name, two))
        runs.append(run_protocol(name, three))
    violations = 0
    for run in runs:
        rep = run.transcript.tower.verify_lemma1(5)
        violations += len(rep.violations)
        assert all(deg in (1, 5) for _, deg, _, _ in rep.entries)
    assert violations == 0
    report(7, f"{len(runs)} protocol towers conform to the {{1, 5}} degree set")


def test_08_query_algebra_identity():
    measures = [uniform("u")] + [power(d) for d in range(2, 7)] + [
        mixed_quadratic("mq"),
        mixed_quintic("mc"),
    ]
    rng = random.Random(2024)
    failures = 0
    checked = 0
    for m in measures:
        from cakelab import Session

        for _ in range(200):
            s = Session([m])
            x = Fraction(rng.randint(0, 40), 40)
            room = 1 - m.cdf(x)
            a = room * Fraction(rng.randint(0, 32), 32)
            y = s.cut(0, x, a)
            if (s.eval(0, x, y) - a).sign() != 0:
                failures += 1
            checked += 1
    assert checked == 200 * len(measures)
    assert failures == 0
    report(8, f"cut/eval inverse identity exact on {checked} random query pairs")


def test_09_fairness_audits():
    cases = corpus()
    assert len(cases) == 20
    for case_id, protocol, measures in cases:
        run = run_protocol(protocol, measures)
        rep = check_fairness(run.allocation, measures)
        flags = {
            "proportional": rep.proportional,
            "envy_free": rep.envy_free,
            "equitable": rep.equitable,
        }
        for g in run.guarantees:
            assert flags[g], f"{case_id}: {g} failed"
    report(9, "all guarantees hold exactly on the 20-case corpus")


def test_10_welfare_optimality():
    t0 = time.perf_counter()
    measures = [uniform("a"), power(3, "b")]
    opt = max_welfare(measures)
    cut = opt.pieces[0][0][1]
    assert (cut - nth_root(Fraction(1, 3), 2)).sign() == 0
    w_opt = welfare(opt, measures)
    assert (w_opt - (1 + 2 * nth_root(3, 2) / 9)).sign() == 0
    rng = random.Random(99)
    for _ in range(1000):
        cuts = sorted(Fraction(rng.randint(0, 128), 128) for _ in range(rng.choice((1, 2))))
        owners = [rng.randint(0, 1) for _ in range(len(cuts) + 1)]
        alloc = Allocation.simple([AlgebraicNumber(q) for q in cuts], owners, n=2)
        assert (w_opt - welfare(alloc, measures)).sign() >= 0
    for p in (3, 5, 7):
        ms = [uniform("a"), power(p, "b")]
        opt_p = max_welfare(ms)
        w_p = welfare(opt_p, ms)
        x0 = opt_p.pieces[0][0][1]
        for delta in (Fraction(1, 1000), Fraction(-1, 1000)):
            cutp = x0 + delta
            alloc = Allocation(
                (((AlgebraicNumber(0), cutp),), ((cutp, AlgebraicNumber(1)),))
            )
            assert (w_p - welfare(alloc, ms)).sign() > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, f"welfare optimum exact, dominant over 1000 allocations in {elapsed:.2f}s")


def test_11_factorization_oracle():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    checked = 0
    while checked < 300:
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(2, 7))]
        if not any(coeffs):
            continue
        p = Poly(coeffs)
        if p.degree < 1:
            continue
        checked += 1
        fac = factor_over_Q(p)
        assert fac.reconstruct() == p
        ours = sorted((tuple(int(c) for c in f.coeffs), m) for f, m in fac.factors)
        assert ours == oracle_factor(coeffs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(11, f"pipeline matches the bounded-divisor oracle on 300 inputs in {elapsed:.1f}s")


def test_12_cli_determinism(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text("alice: x\nbob: x^5\n")
    three = tmp_path / "three.txt"
    three.write_text("a: x\nb: x\nc: x^5\n")
    commands = [
        ["check-impossibility", "equitable", "--d", "5"],
        ["--format", "structured", "check-impossibility", "equitable", "--d", "11"],
        ["check-impossibility", "welfare", "--n", "3", "--p", "5"],
        ["run-protocol", "--protocol", "even-paz", "--measures", str(mfile)],
        ["--format", "structured", "run-protocol", "--protocol", "selfridge-conway",
         "--measures", str(three)],
        ["max-welfare", "--measures", str(mfile)],
        ["isolate-cutpoint", "--measures", str(mfile)],
        ["analyze-trinomial", "--d", "11"],
    ]
    for cmd in commands:
        outputs = set()
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "cakelab"] + cmd, capture_output=True
            )
            assert res.returncode == 0, res.stderr
            outputs.add(res.stdout)
        assert len(outputs) == 1, f"nondeterministic output for {cmd}"
    report(12, f"{len(commands)} CLI commands byte-identical across repeated runs")
