"""Exact arithmetic and ordering for numbers of the form a + b*sqrt(2).

A surd is held as integer numerators `an`, `bn` over one positive
denominator `den`, reduced to gcd 1, the way `qspan.SpanElement` holds its
coordinates.  That form is unique because sqrt(2) is irrational, so equality
and hash are structural, and every sign, comparison and floor is an integer
test.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm

from .exactcore import Record, exact_rational, parse_rational

LESS, EQUAL, GREATER = -1, 0, 1


@total_ordering
class QuadraticSurd(Record):
    """The number a + b*sqrt(2), from rational components a, b (ints,
    Fractions or literal strings, no floats) or from integer numerators over
    a nonzero `den`; held as (an + bn*sqrt(2))/den with den > 0 and gcd 1
    (zero is 0, 0 over 1)."""

    __slots__ = ("an", "bn", "den")

    def __init__(self, an, bn, den: int | None = None):
        if den is None:
            a, b = exact_rational(an), exact_rational(bn)
            ad, bd = a.denominator, b.denominator
            den = lcm(ad, bd)  # a and b are reduced, so gcd(an, bn, den) is already 1
            an, bn = a.numerator * (den // ad), b.numerator * (den // bd)
        else:
            if den <= 0:
                if not den:
                    raise ZeroDivisionError("zero denominator")
                an, bn, den = -an, -bn, -den
            g = gcd(an, bn, den)  # a TypeError unless all are integers
            if g != 1:
                an, bn, den = an // g, bn // g, den // g
        object.__setattr__(self, "an", an)
        object.__setattr__(self, "bn", bn)
        object.__setattr__(self, "den", den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.bn, self.den)

    @property
    def is_zero(self) -> bool:
        return not (self.an or self.bn)

    def __add__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        d, e = self.den, other.den
        return QuadraticSurd(self.an * e + other.an * d, self.bn * e + other.bn * d, d * e)

    def __sub__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        d, e = self.den, other.den
        return QuadraticSurd(self.an * e - other.an * d, self.bn * e - other.bn * d, d * e)

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.an, -self.bn, self.den)

    def __mul__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        a, b, c, e = self.an, self.bn, other.an, other.bn
        return QuadraticSurd(a * c + 2 * b * e, a * e + b * c, self.den * other.den)

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
    """Exact sign of a + b*sqrt(2): that of its numerators, as den > 0."""
    return _int_sign(u.an, u.bn)


def surd_compare(u: QuadraticSurd, v: QuadraticSurd) -> int:
    """Three-way exact comparison: -1 (Less), 0 (Equal), +1 (Greater).

    The sign of u - v, times the positive u.den * v.den: each surd's
    numerators cross-multiplied by the other's denominator.
    """
    d, e = u.den, v.den
    return _int_sign(u.an * e - v.an * d, u.bn * e - v.bn * d)


def surd_floor(u: QuadraticSurd) -> int:
    """Exact floor of (an + bn*sqrt(2))/den: (an + floor(bn*sqrt(2))) // den,
    and floor(bn*sqrt(2)) comes from an integer square root of 2*bn*bn."""
    bn = u.bn
    if bn >= 0:
        fb = isqrt(2 * bn * bn)
    else:
        fb = -isqrt(2 * bn * bn) - 1  # 2*bn*bn is never a perfect square
    return (u.an + fb) // u.den


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
