"""A family of pairwise disjoint affine Cantor sets, one inside each interval
of a fixed enumeration of rational open intervals, together with a bit codec
that maps Cantor points onto exactly representable targets.

The enumeration, the inductive placement rule and the codec are all
deterministic, so every placement is a pure function of its index.
The enumeration is one generator, `_intervals`, drained on demand into a
list of basis intervals.  Placements are memoized sequentially (each
depends on all previous ones); a lock guards extension of both memos,
reads of finished entries are free.

A placement works in integer coordinates: it keeps the earlier hulls that
meet its basis interval, puts them over one common denominator, and refines
their cover one level at a time by scaling by 3 and splitting each segment
into its outer thirds.  Only the chosen hull becomes a Fraction again.
Evaluation skips every set whose closed hull misses x by an integer
cross-multiplication before it forms the set's coordinate of x.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exactcore import _int_from_digits, fraction_value, to_expansion

_lock = threading.RLock()

# ---------------------------------------------------------------------------
# enumeration of rationals and of basis intervals


def _intervals():
    """Basis intervals in enumeration order.

    Reduced rationals are ordered by (|num| + den, num); for s = 0, 1, ...
    the index pairs (s - j, j), j = 0..s, are scanned and kept when
    left < right.
    """
    rationals, total = [], 0  # every value with |num| + den <= total
    for s in itertools.count():
        while len(rationals) <= s:
            total += 1
            for num in range(1 - total, total):
                den = total - abs(num)
                if gcd(num, den) == 1:
                    rationals.append(Fraction(num, den))
        for j in range(s + 1):
            if rationals[s - j] < rationals[j]:
                yield rationals[s - j], rationals[j]


_basis: list[tuple[Fraction, Fraction]] = []
_enumeration = _intervals()


def basis_interval(n: int) -> tuple[Fraction, Fraction]:
    """n-th interval of the fixed enumeration (see _intervals)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    with _lock:
        while len(_basis) <= n:
            _basis.append(next(_enumeration))
    return _basis[n]


# ---------------------------------------------------------------------------
# inductive placement


@dataclass(frozen=True)
class AffineCantor:
    """Image of the standard ternary Cantor set under t -> c + t*(d - c)."""

    index: int
    c: Fraction
    d: Fraction

    def __post_init__(self):
        if self.c >= self.d:
            raise ValueError("need c < d")


_records: list[dict] = []
# (c.numerator, c.denominator, d.numerator, d.denominator) of each record's hull
_hulls: list[tuple[int, int, int, int]] = []


def _clipped_cover(c: Fraction, d: Fraction, lo: Fraction, hi: Fraction, t: int):
    """Level-t cover intervals of the Cantor set on [c, d] that meet (lo, hi)."""
    if d <= lo or c >= hi:
        return []
    if t == 0:
        return [(c, d)]
    third = (d - c) / 3
    return _clipped_cover(c, c + third, lo, hi, t - 1) + _clipped_cover(
        d - third, d, lo, hi, t - 1
    )


def _place(i: int) -> dict:
    """Hull of the i-th Cantor set, chosen against the earlier ones.

    Only earlier hulls meeting (a, b) can cover any of it.  They are put on
    integers over one common denominator q; each deeper cover level scales
    every coordinate by 3 and splits each surviving segment into its outer
    thirds, keeping those that still meet (a, b), as _clipped_cover does.
    The cover is refined until it covers less than half of (a, b); the
    hull is the middle half of its widest gap, leftmost on ties.
    """
    a, b = basis_interval(i)
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    near = [  # d > a and c < b
        (cn, cd, dn, dd)
        for cn, cd, dn, dd in _hulls[:i]
        if dn * ad > an * dd and cn * bd < bn * cd
    ]
    q = lcm(ad, bd, *(cd for _, cd, _, _ in near), *(dd for _, _, _, dd in near))
    lo, hi = an * (q // ad), bn * (q // bd)
    segments = [(cn * (q // cd), dn * (q // dd)) for cn, cd, dn, dd in near]
    depth = 0
    while True:
        # one sweep of the sorted cover: the length it covers beyond lo, and
        # its widest gap in (lo, hi), leftmost on ties
        covered, cursor, best = 0, lo, None
        for s, e in sorted(segments) + [(hi, hi)]:
            if s > cursor:
                if best is None or s - cursor > best[1] - best[0]:
                    best = (cursor, s)
                covered += e - s
                cursor = e
            elif e > cursor:
                covered += e - cursor
                cursor = e
        if 2 * (covered - (cursor - hi)) < hi - lo:
            break
        depth += 1
        q, lo, hi = 3 * q, 3 * lo, 3 * hi
        finer = []
        for s, e in segments:
            s, e, w = 3 * s, 3 * e, e - s
            if s + w > lo and s < hi:
                finer.append((s, s + w))
            if e > lo and e - w < hi:
                finer.append((e - w, e))
        segments = finer
    left, right = best
    return {
        "index": i,
        "a": a,
        "b": b,
        "c": Fraction(3 * left + right, 4 * q),
        "d": Fraction(left + 3 * right, 4 * q),
        "depth": depth,
    }


def ensure_placed(count: int) -> None:
    """Pre-build placements 0..count-1 (idempotent, thread-safe)."""
    with _lock:
        while len(_records) < count:
            rec = _place(len(_records))
            c, d = rec["c"], rec["d"]
            _hulls.append((c.numerator, c.denominator, d.numerator, d.denominator))
            _records.append(rec)


def placement_record(i: int) -> dict:
    """Audit record for placement i: index, interval, hull and cover depth."""
    ensure_placed(i + 1)
    return dict(_records[i])


def place_cantor(i: int) -> AffineCantor:
    if i < 0:
        raise ValueError("index must be non-negative")
    ensure_placed(i + 1)
    rec = _records[i]
    return AffineCantor(i, rec["c"], rec["d"])


def _reset_state() -> None:
    # test hook: drops every memoized enumeration and placement
    global _enumeration
    with _lock:
        _basis.clear()
        _records.clear()
        _hulls.clear()
        _enumeration = _intervals()


# ---------------------------------------------------------------------------
# membership and the bit codec


def _unit_digits(t: Fraction) -> tuple[bytes, bytes] | None:
    """Ternary digits of t in [0, 1] using only 0s and 2s, or None.

    Terminating expansions are also checked in their trailing-2 alternative
    form, so endpoints such as 1/3 = 0.0(2) count as members.
    """
    if t == 0:
        return b"", b""
    if t == 1:
        return b"", bytes([2])
    e = to_expansion(t, 3)
    if 1 not in e.prefix and 1 not in e.cycle:
        return e.prefix, e.cycle
    if not e.cycle and e.prefix[-1] == 1 and 1 not in e.prefix[:-1]:
        return e.prefix[:-1] + b"\x00", bytes([2])
    return None


def cantor_member(x: Fraction, cs: AffineCantor) -> bool:
    """Exact membership of x in the affine Cantor set."""
    x = Fraction(x)
    t = (x - cs.c) / (cs.d - cs.c)
    if t < 0 or t > 1:
        return False
    return _unit_digits(t) is not None


@dataclass(frozen=True)
class BitStream:
    """Eventually repeating 0/1 stream: prefix bits then a repeating cycle
    (empty cycle = all zeros from there on)."""

    prefix: bytes
    cycle: bytes

    def __post_init__(self):
        object.__setattr__(self, "prefix", bytes(self.prefix))
        object.__setattr__(self, "cycle", bytes(self.cycle))
        for part in (self.prefix, self.cycle):
            if part and max(part) > 1:
                raise ValueError("stream digits must be bits")

    def bit(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        if self.cycle:
            return self.cycle[(i - len(self.prefix)) % len(self.cycle)]
        return 0


def decode_bits(s: BitStream) -> Fraction:
    """Decode: sign bit (1 -> +), unary run of 1s giving the integer digit
    count, that many integer bits, then binary fraction bits.  A stream whose
    unary run never terminates decodes to 0."""
    endless = bool(s.cycle) and 0 not in s.cycle and 0 not in s.prefix[1:]
    if endless:
        return Fraction(0)
    sign = 1 if s.bit(0) == 1 else -1
    z = 1
    while s.bit(z) == 1:
        z += 1
    m = z - 1
    ipart = _int_from_digits(bytes(s.bit(z + 1 + t) for t in range(m)), 2)
    start = z + 1 + m
    # fraction bits that start inside the cycle start a rotation of it
    off = max(0, start - len(s.prefix)) % (len(s.cycle) or 1)
    frac = fraction_value(s.prefix[start:], s.cycle[off:] + s.cycle[:off], 2)
    return sign * (ipart + frac)


def encode_value(y: Fraction) -> BitStream:
    """Right inverse of decode_bits on every rational (zero encodes as +)."""
    y = Fraction(y)
    bits = to_expansion(abs(y), 2)
    int_bits = bits.integer_digits
    prefix = (
        bytes([0 if y < 0 else 1])
        + bytes([1]) * len(int_bits)
        + b"\x00"
        + int_bits
        + bits.prefix
    )
    return BitStream(prefix, bits.cycle)


# ---------------------------------------------------------------------------
# evaluation and preimages


def _halved(digits: bytes) -> bytes:
    return bytes(v >> 1 for v in digits)


def _doubled(bits: bytes) -> bytes:
    return bytes(v << 1 for v in bits)


def evaluate(x: Fraction, bound: int) -> tuple[Fraction, int]:
    """(value, i) if x lies in the i-th Cantor set for some i < bound, else
    (0, bound), meaning 0 unless x lies in a set of index >= bound."""
    if bound < 1:
        raise ValueError("bound must be positive")
    x = Fraction(x)
    xn, xd = x.numerator, x.denominator
    ensure_placed(bound)
    for i in range(bound):
        cn, cd, dn, dd = _hulls[i]
        if cn * xd > xn * cd or xn * dd > dn * xd:
            continue  # x is outside the closed hull [c, d]
        rec = _records[i]
        t = (x - rec["c"]) / (rec["d"] - rec["c"])
        digits = _unit_digits(t)
        if digits is not None:
            stream = BitStream(_halved(digits[0]), _halved(digits[1]))
            return decode_bits(stream), i
    return Fraction(0), bound


def preimage(y: Fraction, l: Fraction, r: Fraction) -> tuple[Fraction, int]:
    """(x, n) with l < x < r, x in the n-th Cantor set, and value exactly y.

    n is the least index whose closed basis interval sits inside (l, r);
    the search cost grows with the arithmetic complexity of the endpoints.
    """
    y, l, r = Fraction(y), Fraction(l), Fraction(r)
    if l >= r:
        raise ValueError("empty interval")
    n = 0
    while True:
        a, b = basis_interval(n)
        if l < a and b < r:
            break
        n += 1
    cs = place_cantor(n)
    stream = encode_value(y)
    t = fraction_value(_doubled(stream.prefix), _doubled(stream.cycle), 3)
    return cs.c + t * (cs.d - cs.c), n
