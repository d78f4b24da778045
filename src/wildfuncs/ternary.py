"""An everywhere surjection read off ternary digits.

Only the fractional ternary digits of the argument matter (so the map has
period 1).  If the canonical expansion has fewer than two digit-2s, or
infinitely many, the value is 0.  Otherwise the digits strictly between the
last two 2s form a binary integer part and the digits after the last 2 a
binary fractional part; those digits are automatically all 0/1.

The signed variant consumes the first digit of the between-block as a sign
flag: 0 means negative, 1 positive; an empty block stays non-negative.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import (
    DigitExpansion,
    _int_from_digits,
    cycle_lead,
    cylinder_for_interval,
    fraction_value,
    to_expansion,
)

_TWO = 2

# Digits of the cycle of frac(x) read, past its leading zeros, before the
# whole expansion is built.  The cycle is purely periodic, so a 2 among them
# means infinitely many 2s and decides the value.
_LEAD_DIGITS = 64


def _fractional_expansion(x: Fraction) -> DigitExpansion:
    num, den = x.numerator, x.denominator
    return to_expansion(x if 0 <= num < den else Fraction(num % den, den), 3)


def _locate_last_two(e: DigitExpansion) -> tuple[int, int] | None:
    """Positions (i, j) of the last two 2s in the fractional prefix, or None
    when the value of the map is 0 by convention."""
    if _TWO in e.cycle:  # infinitely many 2s
        return None
    if e.prefix.count(_TWO) < 2:
        return None
    j = e.prefix.rfind(_TWO)
    i = e.prefix.rfind(_TWO, 0, j)
    return i, j


def _read_tail(e: DigitExpansion, pos: tuple[int, int] | None) -> tuple[bytes, Fraction] | None:
    """(digits strictly between the last two 2s, binary value of the digits
    after the last 2) of a fractional expansion whose last two 2s are at
    pos, or None when the map is 0 there."""
    if pos is None:
        return None
    i, j = pos
    return e.prefix[i + 1 : j], fraction_value(e.prefix[j + 1 :], e.cycle, 2)


def _binary_tail(x: Fraction) -> tuple[bytes, Fraction] | None:
    """_read_tail for frac(x), after the lead check."""
    if type(x) is not Fraction:
        x = Fraction(x)
    lead = cycle_lead(x, 3)
    if lead is not None:
        while lead.read < _LEAD_DIGITS:
            if _TWO in lead.block(_LEAD_DIGITS):
                return None
    e = _fractional_expansion(x)
    return _read_tail(e, _locate_last_two(e))


def _unsigned_value(tail: tuple[bytes, Fraction] | None) -> Fraction:
    if tail is None:
        return Fraction(0)
    block, frac = tail
    return _int_from_digits(block, 2) + frac


def _signed_value(tail: tuple[bytes, Fraction] | None) -> Fraction:
    if tail is None:
        return Fraction(0)
    block, frac = tail
    if not block:
        return frac
    magnitude = _int_from_digits(block[1:], 2) + frac
    return magnitude if block[0] == 1 else -magnitude


def evaluate(x: Fraction) -> Fraction:
    """Exact value of the unsigned map at a rational point."""
    return _unsigned_value(_binary_tail(x))


def evaluate_signed(x: Fraction) -> Fraction:
    """Signed variant: the leading block digit is consumed as the sign."""
    return _signed_value(_binary_tail(x))


def shift_pair(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """(value at x, value at x + k); the two agree for every integer k."""
    x = Fraction(x)
    return evaluate(x), evaluate(x + k)


def preimage(
    y: Fraction, l: Fraction, r: Fraction, signed: bool = False
) -> Fraction:
    """Rational x with l < x < r whose map value is exactly y.

    A digit cylinder inside (l, r) pins the location; behind it the digits
    2, <sign flag if signed><binary integer digits of y>, 2, <binary fraction
    digits of y> are appended.  Every appended digit other than the two 2s is
    0 or 1, so they are the last two 2s and evaluation recovers y.
    """
    y, l, r = Fraction(y), Fraction(l), Fraction(r)
    if l >= r:
        raise ValueError("empty interval")
    if not signed and y < 0:
        raise ValueError("unsigned mode requires y >= 0")
    cyl = cylinder_for_interval(l, r, 3)
    bits = to_expansion(abs(y), 2)
    block = bits.integer_digits
    if signed:
        block = bytes([0 if y < 0 else 1]) + block
    suffix_prefix = bytes([_TWO]) + block + bytes([_TWO]) + bits.prefix
    tail = fraction_value(suffix_prefix, bits.cycle, 3)
    return cyl.value + tail / 3**cyl.depth


def digit_audit(x: Fraction) -> dict:
    """Digit-level trace of one evaluation, for display; both values are
    read off the one expansion it shows."""
    e = _fractional_expansion(Fraction(x))
    pos = _locate_last_two(e)
    tail = _read_tail(e, pos)
    audit = {
        "expansion": e.digit_str(),
        "two_positions": None,
        "block_digits": "",
        "tail_digits": "",
        "value": str(_unsigned_value(tail)),
        "value_signed": str(_signed_value(tail)),
    }
    if pos is not None:
        i, j = pos
        audit["two_positions"] = (i, j)
        audit["block_digits"] = "".join(map(str, e.prefix[i + 1 : j]))
        tail = "".join(map(str, e.prefix[j + 1 :]))
        if e.cycle:
            tail += "(" + "".join(map(str, e.cycle)) + ")"
        audit["tail_digits"] = tail
    return audit
