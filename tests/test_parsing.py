import sys
from fractions import Fraction

import pytest

from cakelab import (
    InvalidMeasureError,
    ParseError,
    Poly,
    format_measures,
    parse_measures,
    parse_polynomial,
)
from cakelab.parsing import MAX_EXPONENT

X = Poly.x()


class TestPolynomialGrammar:
    def test_basic_terms(self):
        assert parse_polynomial("x^5 + x - 1") == X**5 + X - Poly.constant(1)
        assert parse_polynomial("x") == X
        assert parse_polynomial("3") == Poly.constant(3)
        assert parse_polynomial("x^2") == Poly.monomial(2)

    def test_rational_coefficients(self):
        assert parse_polynomial("1/2*x^2 + 1/2*x") == Poly([0, Fraction(1, 2), Fraction(1, 2)])
        assert parse_polynomial("3/4") == Poly.constant(Fraction(3, 4))

    def test_whitespace_insignificant(self):
        assert parse_polynomial("x^5+x-1") == parse_polynomial("  x^5 +  x -   1 ")

    def test_leading_sign(self):
        assert parse_polynomial("-x + 1") == -X + Poly.constant(1)

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_polynomial("x^")
        assert e.value.line == 1 and e.value.column == 3
        with pytest.raises(ParseError):
            parse_polynomial("2x")  # multiplication must be explicit
        with pytest.raises(ParseError):
            parse_polynomial("x + * 2")
        with pytest.raises(ParseError):
            parse_polynomial("1/0")

    def test_exponent_bound(self):
        assert parse_polynomial(f"x^{MAX_EXPONENT}") == Poly.monomial(MAX_EXPONENT)
        with pytest.raises(ParseError, match=f"exponent {MAX_EXPONENT + 1} exceeds the maximum") as e:
            parse_polynomial(f"1/2*x + x^ {MAX_EXPONENT + 1}")
        assert (e.value.line, e.value.column) == (1, 12)

    def test_literal_past_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(ParseError, match="integer literal of 641 digits is too long") as e:
                parse_polynomial("x + " + "7" * 641 + "*x^2")
            assert e.value.column == 5
            with pytest.raises(ParseError, match="column 3: integer literal of 700 digits"):
                parse_polynomial("x^" + "1" * 700)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_non_decimal_digits_are_syntax_errors(self):
        # superscripts pass str.isdigit but are no integer literal
        with pytest.raises(ParseError, match="column 3: expected an integer exponent"):
            parse_polynomial("x^\u00b2")

    def test_roundtrip(self):
        for text in ("x^5 + x - 1", "1/2*x^2 + 1/2*x", "2*x - 1", "x"):
            p = parse_polynomial(text)
            assert parse_polynomial(str(p)) == p


class TestMeasuresFile:
    def test_two_players(self):
        ms = parse_measures("alice: x\nbob: x^5\n")
        assert [m.label for m in ms] == ["alice", "bob"]
        assert str(ms[1].cdf) == "x^5"

    def test_single(self):
        ms = parse_measures("a: x^2")
        assert len(ms) == 1

    def test_invalid_measure_names_invariant(self):
        with pytest.raises(InvalidMeasureError, match="f\\(0\\) = -1"):
            parse_measures("a: x - 1")
        with pytest.raises(InvalidMeasureError, match="f\\(1\\)"):
            parse_measures("a: 1/2*x")
        with pytest.raises(InvalidMeasureError, match="monotone"):
            parse_measures("a: 4*x^3 - 3*x^2")

    def test_line_positions_in_errors(self):
        with pytest.raises(ParseError) as e:
            parse_measures("a: x\nb: x^^2\n")
        assert e.value.line == 2

    def test_huge_exponent_positioned_in_file(self):
        with pytest.raises(ParseError) as e:
            parse_measures("a: x\nb: x^99999999\n")
        assert (e.value.line, e.value.column) == (2, 6)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("a: x\na: x^2\n")

    def test_missing_colon(self):
        with pytest.raises(ParseError):
            parse_measures("just a polynomial")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("\n\n")

    def test_roundtrip(self):
        text = "alice: x\nbob: 1/2*x^2 + 1/2*x\n"
        ms = parse_measures(text)
        again = parse_measures(format_measures(ms))
        assert [(m.label, m.cdf) for m in ms] == [(m.label, m.cdf) for m in again]
