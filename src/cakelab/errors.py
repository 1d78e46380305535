"""Exception types shared across the package."""

from __future__ import annotations


class CakelabError(Exception):
    """Base class for all package errors."""


class DegreeCapExceeded(CakelabError):
    """A symbolic computation would need to factor past the degree cap."""

    def __init__(self, needed: int, cap: int, context: str = ""):
        self.needed = needed
        self.cap = cap
        self.context = context
        msg = f"degree {needed} exceeds the factorization cap {cap}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ZeroPolynomialError(CakelabError):
    """Root isolation or factorization was asked about the zero polynomial."""


class MembershipUndecidable(CakelabError):
    """Field membership could not be decided within the degree cap."""


class TowerCertificateError(CakelabError):
    """A stored tower-degree certificate does not recheck."""


class InvalidMeasureError(CakelabError):
    """A CDF fails one of the measure invariants (names the violated one)."""


class InfeasibleAmountError(CakelabError):
    """A cut query asked for more value than remains to the right of x."""


class QueryDomainError(CakelabError):
    """A query argument lies outside [0, 1] or the interval is reversed."""


class UncoveredCaseError(CakelabError):
    """The requested certificate lies outside the cases the checker covers."""


class ParseError(CakelabError):
    """Syntax error in the polynomial / measure-file grammar."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
