"""Text grammar for polynomials and measure files.

Polynomial terms are `c`, `c*x^k`, `x^k`, `x`, joined by + or -, with
integer or p/q rational coefficients; whitespace is insignificant.
Exponents are at most MAX_EXPONENT, and integer literals must convert
within Python's digit limit.  A measures file holds one
`name: polynomial` line per player.  All diagnostics carry line and
column positions.
"""

from __future__ import annotations

from fractions import Fraction

from .cake import Measure
from .errors import InvalidMeasureError, ParseError
from .polys import Poly, format_poly

MAX_EXPONENT = 1000


class _Scanner:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset

    @property
    def col(self) -> int:
        return self.pos + 1 + self.col_offset

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        if c:
            self.pos += 1
        return c

    def expect_int(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise self.error(f"expected {what}")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's integer string limit
            digits, self.pos = self.pos - start, start
            raise self.error(f"integer literal of {digits} digits is too long") from None

    def at_end(self) -> bool:
        return self.peek() == ""


def _parse_term(sc: _Scanner) -> tuple[int, Fraction]:
    """One term as (exponent, coefficient)."""
    c = sc.peek()
    if c.isdecimal():
        num = sc.expect_int("an integer coefficient")
        coeff = Fraction(num)
        if sc.peek() == "/":
            sc.take()
            den = sc.expect_int("a denominator")
            if den == 0:
                raise sc.error("zero denominator")
            coeff = Fraction(num, den)
        if sc.peek() == "*":
            sc.take()
            if sc.peek() != "x":
                raise sc.error("expected the variable x after '*'")
            return _parse_varpart(sc), coeff
        return 0, coeff
    if c == "x":
        return _parse_varpart(sc), Fraction(1)
    if c == "":
        raise sc.error("unexpected end of polynomial")
    raise sc.error(f"unexpected character {c!r}")


def _parse_varpart(sc: _Scanner) -> int:
    """The exponent of `x` or `x^k`."""
    sc.take()  # the x
    if sc.peek() == "^":
        sc.take()
        sc.skip_ws()
        col = sc.col
        k = sc.expect_int("an integer exponent")
        if k > MAX_EXPONENT:
            raise ParseError(f"exponent {k} exceeds the maximum {MAX_EXPONENT}", sc.line, col)
        return k
    return 1


def parse_polynomial(text: str, line: int = 1, col_offset: int = 0) -> Poly:
    """Parse the term grammar into an exact polynomial, summing the terms
    into one coefficient list."""
    sc = _Scanner(text, line, col_offset)
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    coeffs: list[Fraction] = []
    while True:
        k, c = _parse_term(sc)
        if k >= len(coeffs):
            coeffs.extend([Fraction(0)] * (k + 1 - len(coeffs)))
        coeffs[k] += c if sign > 0 else -c
        if sc.at_end():
            return Poly(coeffs)
        op = sc.peek()
        if op not in "+-":
            raise sc.error(f"expected '+' or '-', found {op!r}")
        sc.take()
        sign = 1 if op == "+" else -1


def parse_measures(text: str) -> list[Measure]:
    """Parse and validate a measures file: one `name: polynomial` per line."""
    measures: list[Measure] = []
    seen: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ParseError("expected 'name: polynomial'", ln, len(raw.rstrip()) + 1)
        name, _, body = raw.partition(":")
        name = name.strip()
        if not name or not all(ch.isalnum() or ch in "_-" for ch in name):
            raise ParseError(f"invalid player name {name.strip()!r}", ln, 1)
        if name in seen:
            raise ParseError(f"duplicate player name {name!r}", ln, 1)
        seen.add(name)
        poly = parse_polynomial(body, line=ln, col_offset=raw.index(":") + 1)
        try:
            measures.append(Measure.make(poly, name))
        except InvalidMeasureError as e:
            raise InvalidMeasureError(f"line {ln} ({name}): {e}") from None
    if not measures:
        raise ParseError("no measures found", 1, 1)
    return measures


def format_measures(measures: list[Measure]) -> str:
    """Inverse of parse_measures; parsing the output reproduces the input."""
    return "\n".join(f"{m.label}: {format_poly(m.cdf)}" for m in measures) + "\n"
