"""Exact scalar kernel: reduced rationals, repeating positional expansions
in bases 2 and 3, and digit-cylinder targeting of open intervals.

Everything in this module is integer arithmetic over `fractions.Fraction`;
no floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from operator import attrgetter

SUPPORTED_BASES = (2, 3)

# per base: the digit values, and the top digit as a one-byte string
_DIGIT_SETS = {base: bytes(range(base)) for base in SUPPORTED_BASES}
_TOP_DIGITS = {base: bytes([base - 1]) for base in SUPPORTED_BASES}

# digits per integer in a rational literal: CPython's own default guard on
# int(str), so no literal that guard refuses is accepted
MAX_LITERAL_DIGITS = 4300

_RATIONAL_RE = re.compile(r"-?(\d+)(?:/(\d+))?")

# digit bytes <-> ascii digit strings
_ASCII_TO_DIGITS = bytes.maketrans(b"012", bytes([0, 1, 2]))
_DIGITS_TO_ASCII = bytes.maketrans(bytes([0, 1, 2]), b"012")


def parse_rational(text: str) -> Fraction:
    """Parse the literal syntax `n` or `n/d` with optional leading minus.

    This is the one parser of exact input text.  It takes no exponent, so
    a short literal never makes a huge integer, and it refuses an integer
    of more than MAX_LITERAL_DIGITS digits before converting it.
    """
    text = text.strip()
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a number: {text!r} (rational literals are n or n/d)")
    if max(len(m[1]), len(m[2] or "")) > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"rational literal too long: at most {MAX_LITERAL_DIGITS} digits per integer"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def exact_rational(v) -> Fraction:
    """v as a Fraction; a float raises TypeError, as Fraction(float) would
    carry binary rounding into an exact answer."""
    if isinstance(v, float):
        raise TypeError(f"exact values refuse floats, got {v!r}")
    return v if type(v) is Fraction else Fraction(v)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _check_base(base: int) -> None:
    if base not in SUPPORTED_BASES:
        raise ValueError(f"base must be one of {SUPPORTED_BASES}, got {base}")


# ---------------------------------------------------------------------------
# digit rendering helpers (bytes hold one digit value per byte, MSB first)

# Base 3 is divided ten digits per divmod, and each quotient is rendered as
# two five-digit groups from one table: entry v holds the five base-3 digits
# of v < 3**5.
_CHUNK = 10
_CHUNK_POW = 3**_CHUNK
_GROUPS = [bytes((v // 81, v // 27 % 3, v // 9 % 3, v // 3 % 3, v % 3)) for v in range(243)]

# Base-3 integers of more than _SPLIT_DIGITS digits are split in halves:
# int(s, 3) and repeated divmod by 3**10 are both quadratic.
_SPLIT_DIGITS = 320


def _ternary_chunks(n: int) -> bytes:
    """Base-3 digits of n >= 0, zero-padded to a multiple of ten."""
    table = _GROUPS
    parts = []
    while n:
        n, rem = divmod(n, _CHUNK_POW)
        hi, lo = divmod(rem, 243)
        parts += table[lo], table[hi]
    return b"".join(reversed(parts))


def _ternary_split(n: int, w: int, powers: dict[int, int]) -> bytes:
    """The w base-3 digits of 0 <= n < 3**w, leading zeros kept; the powers
    of 3 that split it are shared through `powers`."""
    if w <= _SPLIT_DIGITS:
        return _ternary_chunks(n)[-w:].rjust(w, b"\x00")
    half = w >> 1
    if half not in powers:
        powers[half] = 3**half
    hi, lo = divmod(n, powers[half])
    return _ternary_split(hi, w - half, powers) + _ternary_split(lo, half, powers)


def _int_to_digits(n: int, base: int, width: int = 0) -> bytes:
    """Digits of n >= 0 (none for 0), left-padded with zeros to `width`."""
    if base == 2:
        s = bin(n)[2:].encode("ascii").translate(_ASCII_TO_DIGITS) if n else b""
    else:
        # 3**w > 2**bit_length, as log_3(2) < 0.631
        w = n.bit_length() * 631 // 1000 + 1
        s = _ternary_split(n, w, {}).lstrip(b"\x00")
    return s.rjust(width, b"\x00")


def _int_from_digits(digits: bytes, base: int) -> int:
    if not digits:
        return 0
    if base == 2:
        return int(digits.translate(_DIGITS_TO_ASCII), 2)
    # int(s, 3) refuses long strings too: split in halves, with the powers
    # of 3 shared within the call
    powers: dict[int, int] = {}

    def rec(d: bytes) -> int:
        w = len(d)
        if w <= _SPLIT_DIGITS:
            return int(d.translate(_DIGITS_TO_ASCII), 3)
        half = w >> 1
        if half not in powers:
            powers[half] = 3**half
        return rec(d[: w - half]) * powers[half] + rec(d[w - half :])

    return rec(digits)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# the expansion engine: long division of r/m, 0 <= r < m

# Base-3 runs of at least _LANE_MIN_COUNT digits with m of at most
# _LANE_MAX_BITS bits are divided in packed lanes.  Both cutoffs come from a
# grid of bit lengths by counts (CHANGES.md): inside them the lanes beat the
# divmod loop everywhere, and a wider m makes every packed product dearer
# (0.5x the loop's speed at 200 bits and 3000 digits).
_LANE_MIN_COUNT = 3000
_LANE_MAX_BITS = 64

# table k maps a base-243 group (one byte) to its k-th base-3 digit, most
# significant first
_SPREAD = [bytes(_GROUPS[v % 243][k] for v in range(256)) for k in range(5)]


def _divide_lanes(r: int, m: int, count: int) -> bytes:
    """The first `count` base-3 digits of r/m, 0 <= r < m.

    The digits are cut into `lanes` runs of `steps` base-243 groups (five
    digits each).  Lane j starts at remainder r * 3**(5*steps*j) % m, and all
    lanes sit in one int, `s = 8*w` bits apart.  Each step multiplies every
    lane by 243 with whole-int operations and divides it by m:

    - with b = m.bit_length() and t = b + 8, a lane holds x < 243*m < 2**t,
      so (x * (2**t // m)) >> t is floor(x/m) or one less, and x * (2**t // m)
      < 2**(b+17) <= 2**s, so no lane spills into the next;
    - the remainder x - q*m is below 2*m < 2**(b+1), so bit b+1 of it plus
      2**(b+1) - m is set exactly when one more m must come off.

    The quotient bytes of a step are read with stride w, stored in lane
    order, and spread to five digits each by translate tables.
    """
    b = m.bit_length()
    w = (b + 24) // 8
    t, u = b + 8, b + 1
    groups = -(-count // 5)
    # lanes ~ 2*sqrt(groups): a lane costs a start remainder, a step costs
    # a dozen whole-int operations
    steps = max(1, isqrt(groups // 4))
    lanes = -(-groups // steps)
    jump = pow(3, 5 * steps, m)
    starts = bytearray()
    for _ in range(lanes):
        starts += r.to_bytes(w, "little")
        r = r * jump % m
    x = int.from_bytes(starts, "little")
    del starts
    ones = int.from_bytes((b"\x01" + bytes(w - 1)) * lanes, "little")
    qmask, bias, inverse = ones * 255, ones * ((1 << u) - m), (1 << t) // m
    size = lanes * w
    out = bytearray(lanes * steps)
    for i in range(steps):
        x *= 243
        q = (x * inverse >> t) & qmask
        x -= q * m
        carry = (x + bias >> u) & ones
        x -= carry * m
        q += carry
        out[i::steps] = q.to_bytes(size, "little")[::w]
    del x, q, carry
    digits = bytearray(5 * len(out))
    for k, table in enumerate(_SPREAD):
        digits[k::5] = out.translate(table)
    del out
    del digits[count:]
    return bytes(digits)


def _divide(r: int, m: int, base: int, count: int) -> tuple[bytes, int]:
    """The first `count` digits of r/m and the remainder after them.

    Base 2 divides once, shifted by `count` bits.  Base 3 runs long enough
    for a small m go through `_divide_lanes`; the rest take ten digits per
    divmod and append them as two groups from the group table as they go.
    No digits need no division: `_fraction_digits` asks for none whenever
    the denominator is coprime to the base.
    """
    if not count:
        return b"", r
    if base == 2:
        q, r = divmod(r << count, m)
        return _int_to_digits(q, 2, count), r
    if count >= _LANE_MIN_COUNT and m.bit_length() <= _LANE_MAX_BITS:
        return _divide_lanes(r, m, count), r * pow(3, count, m) % m
    table = _GROUPS
    full, rest = divmod(count, _CHUNK)
    digits = bytearray()
    for _ in range(full):
        q, r = divmod(r * _CHUNK_POW, m)
        hi, lo = divmod(q, 243)
        digits += table[hi]
        digits += table[lo]
    if rest:
        q, r = divmod(r * 3**rest, m)
        hi, lo = divmod(q, 243)
        digits += (table[hi] + table[lo])[-rest:]
    return bytes(digits), r


# The cycle reader's first block is _FIRST_BLOCK digits, one ten-digit
# divmod in base 3; the blocks after it are the powers of _BLOCK_GROWTH (64,
# 4096, 2**18, ...).  A digit that turns up early costs one short division,
# and a long read takes a few calls of _divide, the longer ones in packed
# lanes.
_FIRST_BLOCK = 10
_BLOCK_GROWTH = 64


class CycleReader:
    """Streams the digits of r/m, 0 <= r < m, in blocks of growing length.

    For m coprime to the base, r/m is purely periodic, so each digit read is
    a cycle digit.  Every block continues from the remainder `_divide` left
    after the block before: the blocks read so far, joined, are the first
    `read` digits of r/m, and `r` is the remainder after them.  Callers stop
    at the digit they look for, so a long cycle is read only as far as it
    has to be.  This is the one place where digits past a prefix are
    streamed, so a digit limit or a count of digits read belongs here.
    """

    __slots__ = ("r", "m", "base", "read", "_size")

    def __init__(self, r: int, m: int, base: int) -> None:
        self.r, self.m, self.base = r, m, base
        self.read = 0
        self._size = _FIRST_BLOCK

    def block(self, stop: int | None = None) -> bytes:
        """The next block, cut short where `stop` digits have been read in
        all; a caller reads while `read < stop`."""
        count = self._size
        if stop is not None and stop - self.read < count:
            count = stop - self.read
        block, self.r = _divide(self.r, self.m, self.base, count)
        self.read += count
        self._size = _BLOCK_GROWTH * (self._size if self._size >= _BLOCK_GROWTH else 1)
        return block


def cycle_lead(x: Fraction, base: int) -> CycleReader | None:
    """A reader of the cycle of frac(x) from past its leading zeros, or None
    when x terminates.

    Past the prefix, frac(x) continues as r/m with m = den / base**k coprime
    to the base.  For m > 1 that tail is purely periodic, so each of its
    digits is a cycle digit.  r * 3**z < m gives z leading zeros in base 3,
    and at least as many in base 2.  The bit lengths bound z from below
    (log_3(2) > 10/16), and the reader starts at r * base**z, past them.
    """
    m = _strip_base(x.denominator, base)[1]
    if m == 1:
        return None
    r = x.numerator % m
    z = max(0, (m.bit_length() - r.bit_length() - 1) * 10 // 16)
    return CycleReader(r * base**z, m, base)


# The order search starts with a table of _ORDER_START baby steps.  While the
# table holds fewer than _ORDER_WIDE entries a round takes half as many giant
# steps as it has entries, from then on four times as many; then the table
# doubles.  The three come from a grid of schedules timed on the orders the
# long-digits workload meets (CHANGES.md): against a fixed 128-entry table,
# orders from 128 to 1000 take a half to a third of the time and orders past
# 1.3 * 10**5 about 0.6 of it, while orders from 5 * 10**3 to 10**5 take up
# to about 20% more.
_ORDER_START = 32
_ORDER_WIDE = 128


def _multiplicative_order(b: int, m: int) -> int:
    """Least n > 0 with b**n = 1 (mod m), for m > 1 coprime to b.

    Baby-step/giant-step with a table that doubles.  The table marks b**i
    for i < size; the giant steps visit b**n at positions n = size apart,
    and b**n is marked, at i, exactly when n - i is a multiple of the order.
    Every position is at least size, the first position is size, and each
    gap is at most the table size, so the first marked position is the
    first one at or past the order, and n - i is the order itself.  Nothing
    is factored, so this is exact for every m.

    The work grows as the square root of the order: at most 6 * sqrt(order)
    multiplications, about 4 * sqrt(order) for large orders (3406 for an
    order of 10**6, where a fixed 128-entry table takes 7941).  The table
    holds at most max(_ORDER_WIDE, sqrt(order)) entries, since it grows
    past _ORDER_WIDE only after a round has passed 4 * size**2 positions
    without a mark.
    """
    marks = {}
    r = 1
    for i in range(_ORDER_START):
        marks[r] = i
        r = r * b % m
        if r == 1:
            return i + 1
    size = n = _ORDER_START
    step = baby = r  # b**size
    while True:
        end = n + (size // 2 if size < _ORDER_WIDE else 4 * size) * size
        for n in range(n, end, size):
            if r in marks:
                return n - marks[r]
            r = r * step % m
        n = end
        # the order is past every position so far, so b**i for i < 2 * size
        # are distinct
        for i in range(size, 2 * size):
            marks[baby] = i
            baby = baby * b % m
        size *= 2
        step = baby


# ---------------------------------------------------------------------------
# immutable records


class Record:
    """Base of the immutable value classes.  A subclass names its fields, in
    order, in `__slots__`, and its `__init__` sets them with
    `object.__setattr__`.  Equality, hash, repr (`Name(field=value, ...)`),
    copy and pickle follow the tuple of field values; assigning or deleting
    a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


# ---------------------------------------------------------------------------
# canonical expansions


class DigitExpansion(Record):
    """Canonical positional expansion of a rational in base 2 or 3.

    Digits are stored as bytes, one digit value per byte, most significant
    first.  ``cycle == b""`` means the expansion terminates.  Canonical form
    bans cycles that are all zeros or all (base-1), requires the shortest
    possible cycle, starts the cycle as early as possible, and represents
    zero as ``+0`` with no digits.  The constructor rejects anything else.
    """

    __slots__ = ("base", "sign", "integer_digits", "prefix", "cycle")

    def __init__(self, base: int, sign: int, integer_digits: bytes, prefix: bytes, cycle: bytes):
        ipart = integer_digits
        if type(ipart) is not bytes or type(prefix) is not bytes or type(cycle) is not bytes:
            ipart, prefix, cycle = bytes(ipart), bytes(prefix), bytes(cycle)
        _check_base(base)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        digits = _DIGIT_SETS[base]
        if ipart.translate(None, digits) or prefix.translate(None, digits) or cycle.translate(None, digits):
            raise ValueError("digit out of range for base")
        if ipart and ipart[0] == 0:
            raise ValueError("leading zero in integer digits")
        n = len(cycle)
        if n:
            if not cycle.strip(b"\x00"):
                raise ValueError("all-zero cycle is not canonical")
            if not cycle.strip(_TOP_DIGITS[base]):
                raise ValueError(f"all-{base - 1} cycle is the excluded representation")
            # a cycle repeating a shorter block repeats one of length n/p
            # for some prime p dividing n, and then has period n/p
            for p in _prime_factors(n):
                if cycle[n // p :] == cycle[: n - n // p]:
                    raise ValueError("cycle is not minimal")
            if prefix and prefix[-1] == cycle[-1]:
                raise ValueError("cycle does not start as early as possible")
        elif prefix and prefix[-1] == 0:
            raise ValueError("terminating expansion must not end in zero")
        if not (ipart or prefix or cycle) and sign != 1:
            raise ValueError("zero carries sign +1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "integer_digits", ipart)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def digit_str(self) -> str:
        out = "-" if self.sign < 0 else ""
        out += self.integer_digits.translate(_DIGITS_TO_ASCII).decode() or "0"
        if self.prefix or self.cycle:
            out += "." + self.prefix.translate(_DIGITS_TO_ASCII).decode()
            if self.cycle:
                out += "(" + self.cycle.translate(_DIGITS_TO_ASCII).decode() + ")"
        return out

    def __str__(self) -> str:
        return self.digit_str()


def _strip_base(m: int, base: int) -> tuple[int, int]:
    """(k, m // base**k) for the largest k with base**k dividing m."""
    if m % base:
        return 0, m
    if base == 2:
        k = (m & -m).bit_length() - 1
        return k, m >> k
    # base**(2**j) for as long as it divides m, then take them largest first
    powers = [base]
    while m % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    k = 0
    for j in reversed(range(len(powers))):
        if m % powers[j] == 0:
            m //= powers[j]
            k += 1 << j
    return k, m


def _fraction_digits(num: int, den: int, base: int) -> tuple[bytes, bytes]:
    """(prefix, cycle) digits of num/den in [0, 1), gcd(num, den) = 1.

    With den = base**pre * m, m coprime to the base, the first pre digits
    leave the remainder base**pre * (num % m), so the tail is (num % m)/m:
    reduced, purely periodic, and its cycle is as long as the order of the
    base mod m.
    """
    pre, m = _strip_base(den, base)
    prefix = _divide(num, den, base, pre)[0]
    if m == 1:
        return prefix, b""
    return prefix, _divide(num % m, m, base, _multiplicative_order(base, m))[0]


def to_expansion(x: Fraction, base: int) -> DigitExpansion:
    """Canonical expansion of x; the repeating block is detected exactly.

    x is an int or a Fraction (anything else goes through Fraction first);
    its numerator and denominator are read once, and the rest is integer
    and digit-byte work.
    """
    _check_base(base)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    sign = -1 if num < 0 else 1
    ipart, rem = divmod(abs(num), den)
    prefix, cycle = _fraction_digits(rem, den, base)
    return DigitExpansion(base, sign, _int_to_digits(ipart, base), prefix, cycle)


# Cycles longer than _DECODE_MIN_CYCLE digits (below it, reading the digits
# is cheaper) are first decoded from their leading _DECODE_DIGITS[base]
# digits.  These lie within base**-k of the value, and base**k exceeds
# 2 * _DECODE_DEN**2, so a value whose denominator is at most _DECODE_DEN is
# the fraction with such a denominator closest to them: limit_denominator
# returns it.
_DECODE_DEN = 1 << 64
_DECODE_DIGITS = {2: 140, 3: 90}
_DECODE_MIN_CYCLE = 8000


def _decode(prefix: bytes, cycle: bytes, base: int) -> Fraction | None:
    """Value of 0.<prefix>(<cycle>) if its denominator is at most 2**64.

    The candidate read off the leading digits is accepted only after its own
    long division reproduces prefix and cycle byte for byte; None otherwise.
    """
    k = _DECODE_DIGITS[base]
    lead = prefix[:k]
    while len(lead) < k:
        lead += cycle[: k - len(lead)]
    x = Fraction(_int_from_digits(lead, base), base**k)
    x = x.limit_denominator(_DECODE_DEN)
    num, den = x.numerator, x.denominator
    if num >= den:
        return None
    r = num * pow(base, len(prefix), den) % den
    if r * pow(base, len(cycle), den) % den != r:
        return None  # the digits after the prefix do not repeat every len(cycle)
    head, r = _divide(num, den, base, len(prefix))
    if head != prefix or _divide(r, den, base, len(cycle))[0] != cycle:
        return None
    return x


def fraction_value(prefix: bytes, cycle: bytes, base: int) -> Fraction:
    """Exact value of 0.<prefix>(<cycle>) in the given base.

    Pure value computation; the digits need not be in canonical form.  A
    long cycle is first decoded as a value of small denominator, checked
    digit for digit; digits that fail the check are read as integers.
    """
    p, n = len(prefix), len(cycle)
    if n > _DECODE_MIN_CYCLE:
        x = _decode(prefix, cycle, base)
        if x is not None:
            return x
    head = _int_from_digits(prefix, base)
    if n:
        c = _int_from_digits(cycle, base)
        period = base**n - 1
        return Fraction(head * period + c, base**p * period)
    return Fraction(head, base**p)


def from_expansion(e: DigitExpansion) -> Fraction:
    """Exact value of a canonical expansion.

    Canonical form is enforced by the `DigitExpansion` constructor, so any
    instance that exists can be converted.
    """
    frac = fraction_value(e.prefix, e.cycle, e.base)
    n, d = frac.numerator, frac.denominator
    ipart = _int_from_digits(e.integer_digits, e.base)
    return Fraction(e.sign * (ipart * d + n), d)


# ---------------------------------------------------------------------------
# digit cylinders


class CylinderPrefix(Record):
    """Digit prefix whose closed cylinder [value, value + base**-depth] sits
    strictly inside the open interval it was built for."""

    __slots__ = ("base", "depth", "value")

    def __init__(self, base: int, depth: int, value: Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "value", value)

    def right(self) -> Fraction:
        return self.value + Fraction(1, self.base**self.depth)


def cylinder_for_interval(l: Fraction, r: Fraction, base: int) -> CylinderPrefix:
    """Smallest-depth cylinder (leftmost on ties) strictly inside (l, r)."""
    _check_base(base)
    l, r = Fraction(l), Fraction(r)
    if l >= r:
        raise ValueError("empty interval")
    ln, ld, rn, rd = l.numerator, l.denominator, r.numerator, r.denominator
    k, scale = 0, 1
    while True:
        m = ln * scale // ld + 1  # least m with m/scale > l
        if (m + 1) * rd < rn * scale:  # (m + 1)/scale < r
            return CylinderPrefix(base, k, Fraction(m, scale))
        k += 1
        scale *= base
