"""Exact arithmetic and ordering for numbers of the form a + b*sqrt(2).

The representation (a, b) with rational a, b is unique because sqrt(2) is
irrational, so equality is structural and ordering reduces to integer sign
analysis.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt

from .exactcore import parse_rational

LESS, EQUAL, GREATER = -1, 0, 1


@total_ordering
@dataclass(frozen=True)
class QuadraticSurd:
    """The number a + b*sqrt(2) with exact rational components."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        return QuadraticSurd(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        return QuadraticSurd(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.a, -self.b)

    def __mul__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        return QuadraticSurd(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __lt__(self, other: "QuadraticSurd") -> bool:
        return surd_compare(self, other) == LESS

    def __str__(self) -> str:
        return format_surd(self)


def _int_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(2) for integers a, b, via comparison of a*a
    against 2*b*b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    # opposite signs: the side with the larger square wins
    return sa if a * a > 2 * b * b else sb


def surd_sign(u: QuadraticSurd) -> int:
    """Exact sign of a + b*sqrt(2), on numerators over a common positive
    denominator."""
    a, b = u.a, u.b
    return _int_sign(a.numerator * b.denominator, b.numerator * a.denominator)


def surd_compare(u: QuadraticSurd, v: QuadraticSurd) -> int:
    """Three-way exact comparison: -1 (Less), 0 (Equal), +1 (Greater).

    The sign of u - v, with the rational and the radical part of the
    difference cross-multiplied to integers over one positive denominator.
    """
    da, db = u.a.denominator * v.a.denominator, u.b.denominator * v.b.denominator
    a = u.a.numerator * v.a.denominator - v.a.numerator * u.a.denominator
    b = u.b.numerator * v.b.denominator - v.b.numerator * u.b.denominator
    return _int_sign(a * db, b * da)


def _over_one_denominator(u: QuadraticSurd) -> tuple[int, int, int]:
    """Integers (a, b, d), d > 0, with u = (a + b*sqrt(2))/d."""
    return (u.a.numerator * u.b.denominator, u.b.numerator * u.a.denominator,
            u.a.denominator * u.b.denominator)


def surd_floor(u: QuadraticSurd) -> int:
    """Exact floor of a + b*sqrt(2).

    With (A, B, D) from _over_one_denominator, floor(u) =
    (A + floor(B*sqrt(2))) // D, and floor(B*sqrt(2)) comes from an integer
    square root of 2*B*B.
    """
    big_a, big_b, d = _over_one_denominator(u)
    if big_b >= 0:
        fb = isqrt(2 * big_b * big_b)
    else:
        fb = -isqrt(2 * big_b * big_b) - 1  # 2*B*B is never a perfect square
    return (big_a + fb) // d


def parse_surd(text: str) -> QuadraticSurd:
    """Parse `a+b*s2`; a bare rational literal is accepted as a+0*s2."""
    text = text.strip()
    if text.endswith("*s2"):
        a, plus, b = text[:-3].partition("+")
        if plus:
            return QuadraticSurd(parse_rational(a), parse_rational(b))
    return QuadraticSurd(parse_rational(text), 0)


def format_surd(u: QuadraticSurd) -> str:
    return f"{u.a}+{u.b}*s2"
