"""Component projections on the quadratic field a + b*sqrt(2).

`rational_component` keeps a, `radical_component` keeps b*sqrt(2); their sum
is the identity.  Both are periodic and, depending on the shift, quasiperiodic
at the same time; `classify_shift` decides which, and `density_witness`
produces exact in-rectangle graph points.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import exact_rational
from .qspan import Direction, ShiftClass, ShiftKind, shift_class  # noqa: F401 (re-exported)
from .surds import (
    LESS,
    QuadraticSurd,
    _int_sign,
    surd_compare,
    surd_floor,
    surd_sign,
)


def rational_component(x: QuadraticSurd) -> QuadraticSurd:
    return QuadraticSurd(x.an, 0, x.den)


def radical_component(x: QuadraticSurd) -> QuadraticSurd:
    return QuadraticSurd(0, x.bn, x.den)


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
    a, b, d = hi.an, hi.bn, hi.den
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
    a, b, d = u.an, u.bn, u.den
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
    x_lo, x_hi, y_lo, y_hi = map(exact_rational, (x_lo, x_hi, y_lo, y_hi))
    xln, xld, xhn, xhd = x_lo.numerator, x_lo.denominator, x_hi.numerator, x_hi.denominator
    yln, yld, yhn, yhd = y_lo.numerator, y_lo.denominator, y_hi.numerator, y_hi.denominator
    if xln * xhd >= xhn * xld or yln * yhd >= yhn * yld:
        raise ValueError("empty window")
    if fn == "p":
        a = simplest_dyadic_between(QuadraticSurd(yln, 0, yld), QuadraticSurd(yhn, 0, yhd))
        # need b*sqrt(2) in (x_lo - a, x_hi - a), i.e. b in that window / sqrt(2)
        an, ad = a.numerator, a.denominator
        b = simplest_dyadic_between(
            QuadraticSurd(0, xln * ad - an * xld, 2 * xld * ad),
            QuadraticSurd(0, xhn * ad - an * xhd, 2 * xhd * ad),
        )
    else:
        b = simplest_dyadic_between(QuadraticSurd(0, yln, 2 * yld), QuadraticSurd(0, yhn, 2 * yhd))
        bn, bd = b.numerator, b.denominator
        a = simplest_dyadic_between(
            QuadraticSurd(xln * bd, -bn * xld, xld * bd), QuadraticSurd(xhn * bd, -bn * xhd, xhd * bd)
        )
    w = QuadraticSurd(a, b)
    v = PROJECTIONS[fn](w)

    # n/d < (un + ubn*sqrt(2))/ud iff un*d - n*ud + ubn*d*sqrt(2) > 0 (d, ud > 0)
    if not (
        _int_sign(w.an * xld - xln * w.den, w.bn * xld) > 0
        and _int_sign(xhn * w.den - w.an * xhd, -w.bn * xhd) > 0
        and _int_sign(v.an * yld - yln * v.den, v.bn * yld) > 0
        and _int_sign(yhn * v.den - v.an * yhd, -v.bn * yhd) > 0
    ):
        raise AssertionError("witness failed exact verification")
    return w
