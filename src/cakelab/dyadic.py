"""Dyadic intervals: exact endpoints with power-of-two denominators.

Dyadic endpoints halve without denominator growth, which keeps repeated
bisection cheap and canonical.  Used as the certified container for real
roots throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


@dataclass(frozen=True)
class DyadicInterval:
    """Closed interval [lo, hi] with dyadic rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (is_dyadic(self.lo) and is_dyadic(self.hi)):
            raise ValueError("endpoints must have power-of-two denominators")
        if self.lo > self.hi:
            raise ValueError("lo must not exceed hi")

    @staticmethod
    def make(lo, hi) -> "DyadicInterval":
        return DyadicInterval(Fraction(lo), Fraction(hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"
