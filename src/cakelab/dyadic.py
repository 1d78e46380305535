"""Dyadic intervals: exact endpoints with power-of-two denominators.

Halving a dyadic interval k times splits it into 2^k equal cells whose
ends are integer mantissas over one power of two, so root refinement
stays in integers: `polys.bisect_root` picks cells of that grid, evaluates
only at its points, and builds `Fraction`s only for the endpoints it
returns.  A point m / 2^e of a fine grid is also the reduced point
(m >> z) / 2^(e - z) of a coarse one, z = `trailing_zeros(m, e)`, where
evaluation is cheaper (`polys.horner`).  Used as the certified container
for real roots throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def trailing_zeros(m: int, cap: int) -> int:
    """The number of trailing zero bits of m, at most cap; cap for m = 0.
    m / 2^e is m >> z over 2^(e - z) for z = trailing_zeros(m, e)."""
    return min((m & -m).bit_length() - 1, cap) if m else cap


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
