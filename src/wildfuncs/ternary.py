"""An everywhere surjection read off ternary digits.

Only the fractional ternary digits of the argument matter (so the map has
period 1).  If the canonical expansion has fewer than two digit-2s, or
infinitely many, the value is 0.  Otherwise the digits strictly between the
last two 2s form a binary integer part and the digits after the last 2 a
binary fractional part; those digits are automatically all 0/1.

The signed variant consumes the first digit of the between-block as a sign
flag: 0 means negative, 1 positive; an empty block stays non-negative.

A 2 among the first digits of the cycle makes the value 0, found on
integers; any other value is read off the validated canonical expansion.
Preimages are built on integers and digit bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import (
    DigitExpansion,
    _fraction_digits,
    _int_from_digits,
    _int_to_digits,
    cycle_lead,
    cylinder_for_interval,
    fraction_value,
    to_expansion,
)

_TWO = 2
_ZERO = Fraction(0)

# Digits of the cycle of frac(x) read, past its leading zeros, before the
# whole expansion is built.  The cycle is purely periodic, so a 2 among them
# means infinitely many 2s and decides the value.
_LEAD_DIGITS = 64


def _two_positions(prefix: bytes) -> tuple[int, int] | None:
    """Positions (i, j) of the last two 2s of a prefix, or None when it
    holds fewer than two."""
    j = prefix.rfind(_TWO)
    i = prefix.rfind(_TWO, 0, j)  # also -1 when there is no 2 at all
    return (i, j) if i >= 0 else None


def _read_tail(e: DigitExpansion) -> tuple[bytes, Fraction] | None:
    """(digits strictly between the last two 2s, binary value of the digits
    after the last 2) of a fractional expansion, or None when the map is 0
    there."""
    pos = None if _TWO in e.cycle else _two_positions(e.prefix)
    if pos is None:
        return None
    i, j = pos
    return e.prefix[i + 1 : j], fraction_value(e.prefix[j + 1 :], e.cycle, 2)


def _rational(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _binary_tail(x: Fraction) -> tuple[bytes, Fraction] | None:
    """_read_tail of frac(x), after the lead check.  For x >= 0 the
    fractional digits of x are those of frac(x)."""
    x = _rational(x)
    lead = cycle_lead(x, 3)
    if lead is not None:
        while lead.read < _LEAD_DIGITS:
            if _TWO in lead.block(_LEAD_DIGITS):
                return None
    if x.numerator < 0:
        x = Fraction(x.numerator % x.denominator, x.denominator)
    return _read_tail(to_expansion(x, 3))


def _value(tail: tuple[bytes, Fraction] | None, signed: bool) -> Fraction:
    if tail is None:
        return _ZERO
    block, frac = tail
    negative = False
    if signed and block:
        negative, block = block[0] == 0, block[1:]
    if block:
        d = frac.denominator
        frac = Fraction(_int_from_digits(block, 2) * d + frac.numerator, d)
    return -frac if negative else frac


def evaluate(x: Fraction) -> Fraction:
    """Exact value of the unsigned map at a rational point."""
    return _value(_binary_tail(x), False)


def evaluate_signed(x: Fraction) -> Fraction:
    """Signed variant: the leading block digit is consumed as the sign."""
    return _value(_binary_tail(x), True)


def shift_pair(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """(value at x, value at x + k); the two agree for every integer k."""
    x = _rational(x)
    return evaluate(x), evaluate(x + k)


def preimage(y: Fraction, l: Fraction, r: Fraction, signed: bool = False) -> Fraction:
    """Rational x with l < x < r whose map value is exactly y.

    A digit cylinder [m, m + 1] / 3**k inside (l, r) pins the location;
    behind it the digits 2, <sign flag if signed><binary integer digits of
    y>, 2, <binary fraction digits of y> are appended.  Every appended digit
    other than the two 2s is 0 or 1, so they are the last two 2s and
    evaluation recovers y.
    """
    cyl = cylinder_for_interval(l, r, 3)
    y = _rational(y)
    num, den = y.numerator, y.denominator
    if not signed and num < 0:
        raise ValueError("unsigned mode requires y >= 0")
    scale = 3**cyl.depth
    m = cyl.value.numerator * (scale // cyl.value.denominator)  # value = m / scale, reduced
    ipart, rem = divmod(abs(num), den)
    bits, cycle = _fraction_digits(rem, den, 2)
    block = _int_to_digits(ipart, 2)
    if signed:
        block = (b"\x00" if num < 0 else b"\x01") + block
    head = b"\x02" + block + b"\x02" + bits
    # x = (m + 0.<head>(<cycle>) read in base 3) / 3**k, over one denominator
    lift = 3 ** len(head)
    num, den = m * lift + _int_from_digits(head, 3), scale * lift
    if cycle:
        period = 3 ** len(cycle) - 1
        num, den = num * period + _int_from_digits(cycle, 3), den * period
    return Fraction(num, den)


def digit_audit(x: Fraction) -> dict:
    """Digit-level trace of one evaluation, for display; both values are
    read off the one expansion it shows."""
    x = _rational(x)
    e = to_expansion(Fraction(x.numerator % x.denominator, x.denominator), 3)
    tail = _read_tail(e)
    audit = {"expansion": e.digit_str(), "two_positions": None, "block_digits": "", "tail_digits": ""}
    if tail is not None:
        audit["two_positions"] = _two_positions(e.prefix)
        j = audit["two_positions"][1]
        audit["block_digits"] = "".join(map(str, tail[0]))
        audit["tail_digits"] = "".join(map(str, e.prefix[j + 1 :]))
        if e.cycle:
            audit["tail_digits"] += "(" + "".join(map(str, e.cycle)) + ")"
    audit["value"], audit["value_signed"] = str(_value(tail, False)), str(_value(tail, True))
    return audit
