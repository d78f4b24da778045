"""Component projections on the quadratic field a + b*sqrt(2).

`rational_component` keeps a, `radical_component` keeps b*sqrt(2); their sum
is the identity.  Both are periodic and, depending on the shift, quasiperiodic
at the same time; `classify_shift` decides which, and `density_witness`
produces exact in-rectangle graph points.
"""

from __future__ import annotations

from fractions import Fraction

from .qspan import Direction, ShiftClass, ShiftKind, shift_class  # noqa: F401 (re-exported)
from .surds import (
    LESS,
    QuadraticSurd,
    _int_sign,
    _over_one_denominator,
    surd_compare,
    surd_floor,
    surd_sign,
)


def rational_component(x: QuadraticSurd) -> QuadraticSurd:
    return QuadraticSurd(x.a, 0)


def radical_component(x: QuadraticSurd) -> QuadraticSurd:
    return QuadraticSurd(0, x.b)


PROJECTIONS = {"p": rational_component, "q": radical_component}


def classify_shift(fn: str, t: QuadraticSurd) -> ShiftClass:
    """Classify a nonzero shift t as period or quasiperiod of projection fn.

    For `p` the increment is the rational part of t, for `q` the radical
    part; the shift is a period exactly when that part vanishes.
    """
    if fn not in PROJECTIONS:
        raise ValueError(f"unknown projection: {fn!r}")
    return shift_class(t, PROJECTIONS[fn](t), surd_sign)


def simplest_dyadic_between(lo: QuadraticSurd, hi: QuadraticSurd) -> Fraction:
    """Dyadic rational m/2**k with minimal k (then minimal m) strictly
    between two exact values, doubling the grid until one fits."""
    if surd_compare(lo, hi) != LESS:
        raise ValueError("empty interval")
    # hi = (a + b*sqrt(2))/d, so m/2**k < hi iff a*2**k - m*d + b*2**k*sqrt(2) > 0
    a, b, d = _over_one_denominator(hi)
    for k, f in enumerate(_doubled_floors(lo)):
        scale = 1 << k
        if _int_sign(a * scale - (f + 1) * d, b * scale) > 0:
            return Fraction(f + 1, scale)


def _doubled_floors(u: QuadraticSurd):
    """floor(u * 2**k) for k = 0, 1, 2, ...

    The first is surd_floor(u).  With f = floor(u * 2**k), the next is 2f or
    2f + 1, and it is 2f + 1 exactly when u * 2**(k+1) - (2f + 1) >= 0: one
    sign test on integers (equality only when u is rational).
    """
    a, b, d = _over_one_denominator(u)
    f = surd_floor(u)
    while True:
        yield f
        a, b = 2 * a, 2 * b
        f = 2 * f + (_int_sign(a - (2 * f + 1) * d, b) >= 0)


def density_witness(
    fn: str,
    x_lo: Fraction,
    x_hi: Fraction,
    y_lo: Fraction,
    y_hi: Fraction,
) -> QuadraticSurd:
    """Exact point x with x_lo < x < x_hi and y_lo < fn(x) < y_hi.

    The function value is pinned first (a rational for `p`, a rational
    multiple of sqrt(2) for `q`), then the free component is chosen so the
    argument lands in the x-window; membership is re-verified exactly.
    """
    if fn not in PROJECTIONS:
        raise ValueError(f"unknown projection: {fn!r}")
    x_lo, x_hi = Fraction(x_lo), Fraction(x_hi)
    y_lo, y_hi = Fraction(y_lo), Fraction(y_hi)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise ValueError("empty window")
    if fn == "p":
        a = simplest_dyadic_between(QuadraticSurd(y_lo, 0), QuadraticSurd(y_hi, 0))
        # need b*sqrt(2) in (x_lo - a, x_hi - a), i.e. b in that window / sqrt(2)
        b = simplest_dyadic_between(
            QuadraticSurd(0, (x_lo - a) / 2), QuadraticSurd(0, (x_hi - a) / 2)
        )
        witness = QuadraticSurd(a, b)
    else:
        b = simplest_dyadic_between(
            QuadraticSurd(0, y_lo / 2), QuadraticSurd(0, y_hi / 2)
        )
        a = simplest_dyadic_between(QuadraticSurd(x_lo, -b), QuadraticSurd(x_hi, -b))
        witness = QuadraticSurd(a, b)

    value = PROJECTIONS[fn](witness)
    if not (
        surd_compare(QuadraticSurd(x_lo, 0), witness) == LESS
        and surd_compare(witness, QuadraticSurd(x_hi, 0)) == LESS
        and surd_compare(QuadraticSurd(y_lo, 0), value) == LESS
        and surd_compare(value, QuadraticSurd(y_hi, 0)) == LESS
    ):
        raise AssertionError("witness failed exact verification")
    return witness
