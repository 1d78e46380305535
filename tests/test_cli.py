import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cakelab import cake, cli, factoring, parse_measures, run_protocol
from cakelab.cli import main


@pytest.fixture()
def measures_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("alice: x\nbob: x^5\n")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def leaves(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from leaves(v)
    else:
        yield node


class TestExitCodes:
    def test_grid(self, capsys):
        # the full certificate grid keeps its contract
        for d in range(1, 13):
            code, out, _ = run_cli(["check-impossibility", "equitable", "--d", str(d)], capsys)
            if d <= 4:
                assert code == 2 and "NO-OBSTRUCTION-FOUND" in out
            else:
                assert code == 0 and "IMPOSSIBLE" in out

    def test_uncovered_case(self, capsys):
        code, _, err = run_cli(["check-impossibility", "equitable", "--d", "35"], capsys)
        assert code == 3 and "uncovered" in err

    def test_input_error(self, capsys):
        code, _, err = run_cli(["run-protocol", "--protocol", "even-paz", "--measures", "/nonexistent"], capsys)
        assert code == 1 and err

    def test_invalid_measure_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a: x - 1\n")
        code, _, err = run_cli(["isolate-cutpoint", "--measures", str(p)], capsys)
        assert code == 1 and "f(0)" in err

    def test_welfare_certificate(self, capsys):
        code, out, _ = run_cli(["check-impossibility", "welfare", "--n", "2", "--p", "3"], capsys)
        assert code == 0 and "IMPOSSIBLE" in out

    def test_verify_tower_pass(self, capsys, measures_file):
        code, out, _ = run_cli(
            ["verify-tower", "--measures", measures_file, "--protocol", "even-paz", "--prime", "5"],
            capsys,
        )
        assert code == 0 and "passed: True" in out

    def test_verify_tower_violation(self, capsys, measures_file):
        code, out, _ = run_cli(
            ["verify-tower", "--measures", measures_file, "--protocol", "even-paz", "--prime", "3"],
            capsys,
        )
        assert code == 2 and "passed: False" in out


class TestCommands:
    def test_run_protocol(self, capsys, measures_file):
        code, out, _ = run_cli(
            ["run-protocol", "--protocol", "cut-and-choose", "--measures", measures_file], capsys
        )
        assert code == 0
        assert "guarantees_hold: True" in out
        assert "#0 player1 cut" in out

    def test_check_fairness(self, capsys, measures_file):
        code, out, _ = run_cli(
            ["check-fairness", "--measures", measures_file, "--cuts", "1/2"], capsys
        )
        assert code == 0
        assert "proportional: True" in out
        assert "equitable: False" in out

    def test_max_welfare(self, capsys, measures_file):
        code, out, _ = run_cli(["max-welfare", "--measures", measures_file], capsys)
        assert code == 0
        assert "welfare" in out

    def test_analyze_trinomial(self, capsys):
        code, out, _ = run_cli(["analyze-trinomial", "--d", "6"], capsys)
        assert code == 0
        assert "irreducible; Galois group S_6; not solvable by radicals" in out

    def test_isolate_cutpoint(self, capsys, measures_file):
        code, out, _ = run_cli(["isolate-cutpoint", "--measures", measures_file], capsys)
        assert code == 0
        assert "0.754877666246" in out
        assert "x^3 + x^2 - 1" in out
        assert "degree: 3" in out


class TestNonPositiveWidth:
    @pytest.mark.parametrize("width", ["0", "-1/8"])
    def test_width_is_an_input_error(self, capsys, measures_file, width):
        code, out, err = run_cli(
            ["isolate-cutpoint", "--measures", measures_file, f"--width={width}"], capsys
        )
        assert code == 1 and out == ""
        assert err == f"error: approximation width must be positive, got {width}\n"

    def test_negative_digits_is_an_input_error(self, capsys, measures_file):
        code, out, err = run_cli(
            ["--digits", "-1", "isolate-cutpoint", "--measures", measures_file], capsys
        )
        assert code == 1 and out == ""
        assert err == "error: digits must be non-negative, got -1\n"


class TestArgumentErrors:
    """Bad option values are named input errors: exit 1, one `error:` line
    on stderr and no report."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["check-fairness", "--cuts", "1/0"], "column 1: --cuts: '1/0' is not a rational"),
            (["check-fairness", "--cuts", "1/4,1/0"], "column 5: --cuts: '1/0' is not a rational"),
            (["isolate-cutpoint", "--width", "1/0"], "--width: '1/0' is not a rational"),
            (["check-fairness", "--cuts", "1/2", "--owners", "0,5"], "owner 5 is not a player index"),
            (["check-fairness", "--owners", "0,5"], "one owner per piece (1), got 2"),
            (["check-fairness", "--cuts", "1/2,1/4"], "owner 2 is not a player index"),
            (["check-fairness", "--cuts", "1/2,1/4", "--owners", "0,1,0"], "pieces must tile"),
            (["check-fairness", "--cuts", "3/2"], "piece [3/2, 1] is reversed"),
        ],
    )
    def test_exits_1_with_named_error(self, capsys, measures_file, args, message):
        code, out, err = run_cli([args[0], "--measures", measures_file, *args[1:]], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_huge_exponent_is_positioned(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("a: x\nb: x^99999999\n")
        code, out, err = run_cli(["check-fairness", "--measures", str(p)], capsys)
        assert code == 1 and out == ""
        assert err == "error: line 2, column 6: exponent 99999999 exceeds the maximum 1000\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# argparse's own output at a fixed terminal width
PARSER_GOLDEN = [
    (["--help"], 0, "help.stdout"),
    (["run-protocol", "--help"], 0, "run-protocol-help.stdout"),
    (["run-protocol", "--protocol", "nope", "--measures", "m.txt"], 2, "run-protocol-usage-error.stderr"),
]


def _golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


class TestSharedParser:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *a, **kw):
            built.append(kw.get("prog"))
            init(self, *a, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        assert run_cli(["analyze-trinomial", "--d", "6"], capsys)[0] == 0
        once = len(built)
        assert built.count("cakelab") == 1
        assert run_cli(["analyze-trinomial", "--d", "7"], capsys)[0] == 0
        assert len(built) == once

    @pytest.mark.parametrize("args, code, name", PARSER_GOLDEN, ids=[g[2] for g in PARSER_GOLDEN])
    def test_subprocess_bytes(self, args, code, name):
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", *args],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8", "COLUMNS": "80"},
        )
        assert res.returncode == code
        assert (res.stdout if name.endswith(".stdout") else res.stderr) == _golden(name)

    @pytest.mark.parametrize("args, code, name", PARSER_GOLDEN, ids=[g[2] for g in PARSER_GOLDEN])
    def test_in_process_bytes_repeat(self, monkeypatch, capsys, args, code, name):
        # the shared parser prints the same bytes on every call
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(3):
            with pytest.raises(SystemExit) as e:
                main(args)
            assert e.value.code == code
            out = capsys.readouterr()
            text = out.out if name.endswith(".stdout") else out.err
            assert text.encode() == _golden(name)


class TestGoldenBytes:
    """Reports are pinned byte for byte: a change to how roots are bisected
    must land on the same dyadic endpoints, and a change to how minimal
    polynomials are eliminated on the same polynomials and tower degrees."""

    @pytest.mark.parametrize("measures", ["power", "mixture"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_isolate_cutpoint(self, measures, fmt):
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, "isolate-cutpoint",
             "--measures", os.path.join(GOLDEN, f"{measures}.measures"),
             "--width", f"1/{2**80}"],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, f"isolate-cutpoint-{measures}.{fmt}"), "rb") as fh:
            assert res.stdout == fh.read()

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_isolate_cutpoint_to_2_to_minus_4096(self, fmt):
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, "isolate-cutpoint",
             "--measures", os.path.join(GOLDEN, "power.measures"),
             "--width", f"1/{2**4096}"],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, f"isolate-cutpoint-power-4096.{fmt}"), "rb") as fh:
            assert res.stdout == fh.read()

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_even_paz_step_certified_past_the_64th_prime(self, fmt):
        # the degree-6 cut step over a field of degree 12 first reduces to
        # an irreducible sextic at 491, past the first 64 primes.  A
        # primitive element of that field with the cut point has degree 72,
        # past the default cap; the bytes are those the primitive-element
        # route printed at cap 500
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, "run-protocol",
             "--protocol", "even-paz",
             "--measures", os.path.join(GOLDEN, "even-paz-sieve.measures")],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == 0
        assert res.stdout == _golden(f"run-protocol-even-paz-sieve.{fmt}")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_even_paz_degree_30_compositum_at_cap_48(self, fmt):
        # the compositum of this tower has degree 30 (6 x 5), past the
        # default cap of 24; the step degrees 6 and 5 are coprime, so the
        # tower no longer builds it, and the report is the same at either
        # cap.  The cap is raised in the child process only
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, "run-protocol",
             "--protocol", "even-paz",
             "--measures", os.path.join(GOLDEN, "even-paz-deg30.measures")],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8", "CAKELAB_DEGREE_CAP": "48"},
        )
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, f"run-protocol-even-paz-deg30.{fmt}"), "rb") as fh:
            assert res.stdout == fh.read()

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_even_paz_radical_over_a_mixed_tower(self, fmt):
        # (1/3)^(1/6) over the field of a quintic cut point and (1/3)^(1/3):
        # its degree 2 over the radicals' field is coprime to the quintic's
        # 5, so it is its step degree, and the binomial t^2 - (1/3)^(1/3)
        # keeps the triangular set that decides the later cut steps.  The
        # step's sextic t^6 - 1/3 is reducible there, and the tower left it
        # undecided before
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, "run-protocol",
             "--protocol", "even-paz",
             "--measures", os.path.join(GOLDEN, "even-paz-radical-word.measures")],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == 0
        assert res.stdout == _golden(f"run-protocol-even-paz-radical-word.{fmt}")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_last_diminisher_cut_minpoly_is_not_factored(self, fmt, monkeypatch, capsys):
        # player 1's second cut (#4) is F^-1(tau) for its sextic CDF F at a
        # target tau of degree 6, with the annihilator m_tau(F) of degree
        # 36.  The degree sieve over Q(tau) proves F(t) - tau irreducible,
        # so no factorization of degree 36 runs; the bytes are those that
        # factoring it printed
        from cakelab import algebraic

        degrees = []

        def recorded(p):
            degrees.append(p.degree)
            return factor_over_q(p)

        factor_over_q = factoring.factor_over_Q
        monkeypatch.setattr(algebraic, "factor_over_Q", recorded)
        monkeypatch.setattr(factoring, "factor_over_Q", recorded)
        code, out, _ = run_cli(
            ["--format", fmt, "run-protocol", "--protocol", "last-diminisher",
             "--measures", os.path.join(GOLDEN, "last-diminisher-3-27.measures")],
            capsys,
        )
        assert code == 0
        assert out.encode() == _golden(f"run-protocol-last-diminisher-3-27.{fmt}")
        assert 36 not in degrees

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize(
        "protocol, name", [("even-paz", "even-paz-3-00"), ("last-diminisher", "last-diminisher-3-25")]
    )
    def test_longest_sieve_walks(self, protocol, name, fmt, capsys):
        # the towers whose degree sieve read the most chains on the cli-mix
        # bench at seed 1: even-paz's last step, t^3 - tau over levels of
        # degrees 3, 4, 3 and 4, is certified at p = 7069, and one
        # last-diminisher step at p = 2029.  Both walk fewer chains once
        # each prime is screened on the tower's rational levels; the bytes
        # are those printed before the screen
        code, out, _ = run_cli(
            ["--format", fmt, "run-protocol", "--protocol", protocol,
             "--measures", os.path.join(GOLDEN, f"{name}.measures")],
            capsys,
        )
        assert code == 0
        assert out.encode() == _golden(f"run-protocol-{name}.{fmt}")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_selfridge_conway_piece_between_own_cut_roots(self, fmt, capsys):
        # p3 takes [y10, y11] between its own cut roots (transcript #10 and
        # #11) and values it at F3(y11) - F3(y10), which folds to the
        # amount of the cut #11.
        # Evaluated on residues instead, the report's minimal polynomial of
        # that share needs an elimination of degree 81, past the cap
        code, out, _ = run_cli(
            ["--format", fmt, "run-protocol", "--protocol", "selfridge-conway",
             "--measures", os.path.join(GOLDEN, "selfridge-conway-3-25.measures")],
            capsys,
        )
        assert code == 0
        assert out.encode() == _golden(f"run-protocol-selfridge-conway-3-25.{fmt}")

    @pytest.mark.degree_cap(81)
    def test_selfridge_conway_values_equal_the_residue_route(self, monkeypatch):
        # each printed share value is the sum of its pieces' values F(hi) -
        # F(lo) built without the folds of `poly_at`, which the raised cap
        # decides; so is the printed count of field operations
        from cakelab import algebraic

        with open(os.path.join(GOLDEN, "selfridge-conway-3-25.measures"), encoding="utf-8") as fh:
            measures = parse_measures(fh.read())
        printed = json.loads(_golden("run-protocol-selfridge-conway-3-25.structured"))
        run = run_protocol("selfridge-conway", measures)
        values = cake.check_fairness(run.allocation, measures).own_values
        monkeypatch.setattr(algebraic, "_held_poly_at", lambda p, node: None)
        assert run_protocol("selfridge-conway", measures).transcript.bss_op_count == printed["bss_op_count"]
        for m, pieces, value, share in zip(measures, run.allocation.pieces, values, printed["allocation"]):
            residues = sum((m.value(lo, hi) for lo, hi in pieces), algebraic.AlgebraicNumber(0))
            assert residues.compare(value) == 0
            assert share["value"] == cli._alg_data(residues, 12)

    @pytest.mark.parametrize(
        "command",
        [
            ["max-welfare"],
            ["check-fairness", "--cuts", "1/4,3/4", "--owners", "0,1,0"],
            ["verify-tower", "--protocol", "cut-and-choose", "--prime", "3"],
        ],
        ids=["max-welfare", "check-fairness", "verify-tower"],
    )
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_mixture_reports(self, command, fmt):
        # the welfare breakpoints and every measure check isolate roots by
        # Sturm sequences, so these pin the isolating intervals
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, command[0],
             "--measures", os.path.join(GOLDEN, "welfare-mixture.measures"), *command[1:]],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == 0
        with open(os.path.join(GOLDEN, f"{command[0]}-mixture.{fmt}"), "rb") as fh:
            assert res.stdout == fh.read()

    @pytest.mark.parametrize(
        "name, args, code",
        [
            ("check-impossibility-welfare-n2-p5", ["check-impossibility", "welfare", "--n", "2", "--p", "5"], 0),
            ("check-impossibility-equitable-d7", ["check-impossibility", "equitable", "--d", "7"], 0),
            ("check-impossibility-equitable-d3", ["check-impossibility", "equitable", "--d", "3"], 2),
            ("check-impossibility-equitable-d11", ["check-impossibility", "equitable", "--d", "11"], 0),
            ("check-impossibility-equitable-d1", ["check-impossibility", "equitable", "--d", "1"], 2),
            ("check-impossibility-equitable-d11-sqrt",
             ["check-impossibility", "equitable", "--d", "11", "--allow-sqrt"], 0),
            ("run-protocol-cut-and-choose-quadratic",
             ["run-protocol", "--protocol", "cut-and-choose",
              "--measures", os.path.join(GOLDEN, "quadratic.measures")], 0),
            ("max-welfare-probe",
             ["max-welfare", "--measures", os.path.join(GOLDEN, "max-welfare-probe.measures")], 0),
        ],
        ids=["welfare-isolator", "equitable-isolator", "equitable-small-degree",
             "equitable-reducible", "equitable-rational", "equitable-reducible-sqrt",
             "quadratic-cut-op-count", "max-welfare-probe"],
    )
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_isolators_and_op_counts(self, name, args, code, fmt):
        # the certificates' real_root_isolator is the value's isolating
        # interval, d = 3 and d = 11 pin the small-degree and reducible
        # certificates (NO-OBSTRUCTION-FOUND exits 2), d = 1 the rational
        # cutpoint and --allow-sqrt the tower primes [2, 11]; the first cut of
        # quadratic.measures is the root of 27x^2 + 5x - 16, whose
        # construction bss_op_count charges; the max-welfare probe's welfare
        # total, a sum over two atoms of degrees 2 and 5, has degree 10 in
        # their algebra, where elimination needs degree 50
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", "--format", fmt, *args],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert res.returncode == code
        assert res.stdout == _golden(f"{name}.{fmt}")


class TestReportValuesOnce:
    """A report prints the share values its library call built: it adds no
    CDF evaluation to those of the audit, or for max-welfare to those of
    `welfare`, which values each own share once."""

    @pytest.mark.parametrize(
        "argv, audit, evaluations",
        [
            (["max-welfare", "--measures", "welfare-mixture.measures"],
             lambda ms: cake.welfare(cake.max_welfare(ms), ms), 6),
            (["check-fairness", "--measures", "welfare-mixture.measures", "--cuts", "1/4,3/4", "--owners", "0,1,0"],
             lambda ms: cake.check_fairness(
                 cake.Allocation.simple([Fraction(1, 4), Fraction(3, 4)], [0, 1, 0], n=len(ms)), ms
             ), 12),
            (["run-protocol", "--protocol", "cut-and-choose", "--measures", "quadratic.measures"],
             lambda ms: cake.check_fairness(run_protocol("cut-and-choose", ms).allocation, ms), 11),
        ],
        ids=["max-welfare", "check-fairness", "run-protocol"],
    )
    def test_report_adds_no_evaluation(self, monkeypatch, capsys, argv, audit, evaluations):
        calls = []
        poly_at = cake.poly_at

        def counted(p, v):
            calls.append(p)
            return poly_at(p, v)

        monkeypatch.setattr(cake, "poly_at", counted)
        at = argv.index("--measures") + 1
        path = os.path.join(GOLDEN, argv[at])
        with open(path) as fh:
            audit(parse_measures(fh.read()))
        assert len(calls) == evaluations
        calls.clear()
        assert run_cli([*argv[:at], path, *argv[at + 1:]], capsys)[0] == 0
        assert len(calls) == evaluations


class TestFormats:
    def test_structured_is_json_with_version(self, capsys, measures_file):
        code, out, _ = run_cli(
            ["--format", "structured", "check-impossibility", "equitable", "--d", "5"], capsys
        )
        data = json.loads(out)
        assert data["format_version"] == 1
        assert data["verdict"] == "IMPOSSIBLE"
        assert sorted(f["factor"] for f in data["factorization"]) == [
            "x^2 - x + 1",
            "x^3 + x^2 - 1",
        ]

    def test_text_and_structured_agree_field_by_field(self, capsys, measures_file):
        for args in (
            ["check-impossibility", "equitable", "--d", "5"],
            ["run-protocol", "--protocol", "even-paz", "--measures", measures_file],
            ["analyze-trinomial", "--d", "7"],
        ):
            _, text_out, _ = run_cli(args, capsys)
            _, json_out, _ = run_cli(["--format", "structured"] + args, capsys)
            data = json.loads(json_out)
            data.pop("format_version")
            for leaf in leaves(data):
                assert str(leaf) in text_out, f"missing {leaf!r} in text output"


class TestDegreeCapEnv:
    def test_env_override(self, monkeypatch, capsys):
        # the conftest fixture restores the cap that main sets
        monkeypatch.setenv("CAKELAB_DEGREE_CAP", "14")
        code, _, _ = run_cli(["analyze-trinomial", "--d", "6"], capsys)
        assert code == 0
        assert factoring.degree_cap() == 14

    def test_env_invalid(self, monkeypatch, capsys):
        monkeypatch.setenv("CAKELAB_DEGREE_CAP", "not-a-number")
        code, _, err = run_cli(["analyze-trinomial", "--d", "6"], capsys)
        assert code == 1 and "CAKELAB_DEGREE_CAP" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one(self, monkeypatch, capsys, value):
        monkeypatch.setenv("CAKELAB_DEGREE_CAP", value)
        code, out, err = run_cli(["analyze-trinomial", "--d", "6"], capsys)
        assert code == 1 and out == ""
        assert err == "error: CAKELAB_DEGREE_CAP must be at least 1\n"

    @pytest.mark.parametrize(
        "args",
        [["check-impossibility", "equitable", "--d", "53"], ["analyze-trinomial", "--d", "53"]],
        ids=["check-impossibility", "analyze-trinomial"],
    )
    def test_env_cap_reaches_certificates(self, args):
        # x^53 + x - 1 = (x^2 - x + 1) * cofactor, whose degree 51 is past
        # the default cap: the environment's cap must reach the cofactor's
        # irreducibility proof behind the verdict
        env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
        env.pop("CAKELAB_DEGREE_CAP", None)
        res = subprocess.run([sys.executable, "-m", "cakelab", *args], capture_output=True, env=env)
        assert res.returncode == 1
        assert b"degree 51 exceeds the factorization cap 48" in res.stderr
        res = subprocess.run(
            [sys.executable, "-m", "cakelab", *args],
            capture_output=True,
            env={**env, "CAKELAB_DEGREE_CAP": "64"},
        )
        assert res.returncode == 0 and res.stderr == b""
        if args[0] == "check-impossibility":
            assert b"IMPOSSIBLE" in res.stdout


class TestDeterminism:
    def test_byte_identical_runs(self, measures_file):
        commands = [
            ["check-impossibility", "equitable", "--d", "5"],
            ["--format", "structured", "run-protocol", "--protocol", "selfridge-conway",
             "--measures", None],  # placeholder replaced below
        ]
        three = measures_file.replace("m.txt", "three.txt")
        with open(three, "w") as fh:
            fh.write("a: x\nb: x\nc: x^5\n")
        commands[1][-1] = three
        for cmd in commands:
            outs = set()
            for _ in range(2):
                res = subprocess.run(
                    [sys.executable, "-m", "cakelab"] + cmd,
                    capture_output=True,
                    text=True,
                )
                assert res.returncode == 0
                outs.add(res.stdout)
            assert len(outs) == 1
