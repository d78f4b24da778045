"""A family of pairwise disjoint affine Cantor sets, one inside each interval
of a fixed enumeration of rational open intervals, together with a bit codec
that maps Cantor points onto exactly representable targets.

The enumeration, the inductive placement rule and the codec are all
deterministic, so every placement is a pure function of its index.

One placement object, `_state`, holds the enumeration (one generator,
`_intervals`, drained on demand into a list of basis intervals), the
placement records, and the hulls as a laminar forest: any two closed hulls
are nested or disjoint, so the roots sort into one row and each hull's
children into another, each child tagged with the level of the gap of its
parent's cover that holds it.  Placements are memoized sequentially (each
depends on all previous ones); the object's lock guards every extension and
every walk of the forest, reads of finished records and basis intervals are
free.

A placement finds the hulls that meet its basis interval by bisecting the
roots and walking down.  At each cover depth only the visible hulls count,
and their covers are disjoint, so the covered length is a sum of widths,
clipped only for the few hulls that hold an endpoint; the widest gap comes
from walking the visible covers widest first.  Coordinates are integers
over one denominator; only the chosen hull becomes a Fraction again.
Evaluation walks the one chain of hulls that hold x.

The enumeration yields integer endpoints, and the `cf` queries compare and
map on numerators and denominators: the preimage scan cross-multiplies, and
the hull map and its inverse each build one Fraction, where a value leaves.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .exactcore import (
    CycleReader,
    DigitExpansion,
    Record,
    _divide,
    _int_from_digits,
    _multiplicative_order,
    _strip_base,
    fraction_value,
    to_expansion,
)

# ---------------------------------------------------------------------------
# enumeration of rationals and of basis intervals


def _intervals():
    """Basis intervals in enumeration order, as (a.num, a.den, b.num, b.den).

    Reduced rationals are ordered by (|num| + den, num); for s = 0, 1, ...
    the index pairs (s - j, j), j = 0..s, are scanned and kept when
    left < right.
    """
    rationals, total = [], 0  # every (num, den) with |num| + den <= total
    for s in count():
        while len(rationals) <= s:
            total += 1
            for num in range(1 - total, total):
                den = total - abs(num)
                if gcd(num, den) == 1:
                    rationals.append((num, den))
        for j in range(s + 1):
            an, ad = rationals[s - j]
            bn, bd = rationals[j]
            if an * bd < bn * ad:
                yield an, ad, bn, bd


class _Level:
    """Disjoint closed hulls in left-to-right order, as integers over the
    common denominator: the roots of the forest, or the hulls directly
    inside one hull."""

    __slots__ = ("starts", "ends", "ids")

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.ids: list[int] = []

    def around(self, x: int, den: int = 1) -> int | None:
        """The hull whose closed hull holds x / den, if any."""
        j = bisect_right(self.starts, x // den) - 1
        return self.ids[j] if j >= 0 and x <= self.ends[j] * den else None

    def insert(self, c: int, d: int, i: int) -> None:
        j = bisect_left(self.starts, c)
        self.starts.insert(j, c)
        self.ends.insert(j, d)
        self.ids.insert(j, i)


_LEAF = _Level()  # the children of every hull that has none; never filled


def _gap_of(n: int, m: int, depth: int) -> int:
    """Level of the gap of the unit Cantor cover that holds n/m, 0 < n < m:
    the place of the first ternary digit 1 of n/m.  A hull placed at cover
    depth `depth` lies in a gap of level at most `depth` of the hull around
    it."""
    level = _divide(n, m, 3, depth)[0].find(1) + 1
    if not level:
        raise RuntimeError("a new hull lies in no gap of the hull around it")
    return level


class _Placement:
    """Memoized enumeration and placements, and the hulls as a forest.

    Any two closed hulls are nested or disjoint: a hull is chosen inside a
    gap of the earlier covers, and an earlier hull's endpoints lie in its
    cover at every depth.  So each hull lies in one gap of the cover of the
    least hull around it, its parent, which has a smaller index.  The
    forest keeps the sorted roots, each hull's children, and per child the
    level of the parent's gap that holds it.

    Coordinates are integers over one denominator, den, that every basis
    interval and hull met so far divides, the least such; a new denominator
    rescales every coordinate.
    For each hull with children it also keeps, over the hull and all hulls
    inside it, their widths summed by reach (the deepest gap level on the
    path down from the hull, so the least cover depth at which they are
    visible from it) and, per cover depth, the widest interval inside the
    hull that no cover holds.  A new hull adds its width to the first along
    the hulls around it, and drops the second where it lands inside it.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.enumeration = _intervals()
        self.basis: list[tuple[int, int, int, int]] = []  # see _intervals
        self.records: list[dict] = []
        self.den = 1
        self.spans: list[tuple[int, int]] = []  # (c * den, d * den) per hull
        self.roots = _Level()
        self.children: list[_Level] = []  # _LEAF until a hull has children
        self.gaps: list[int] = []  # 0 for a root
        self.masses: dict[int, list[int]] = {}  # see mass
        self.widest: dict[tuple[int, int], tuple[int, int]] = {}  # see free
        self.deepest = 0  # the deepest cover depth in widest

    def widen(self, *dens: int) -> None:
        """Make den the least common multiple of den and dens."""
        scale = lcm(self.den, *dens) // self.den
        if scale > 1:
            self.den *= scale
            # in place, so that the old and the new values are not all held
            # at once; the levels share their ints with spans
            for j, (c, d) in enumerate(self.spans):
                self.spans[j] = c * scale, d * scale
            for level in {id(level): level for level in (self.roots, *self.children)}.values():
                level.starts[:] = [self.spans[p][0] for p in level.ids]
                level.ends[:] = [self.spans[p][1] for p in level.ids]
            for mass in self.masses.values():
                mass[:] = [m * scale for m in mass]
            for key, (width, neg) in self.widest.items():
                self.widest[key] = width * scale, neg * scale

    def add(self, rec: dict) -> None:
        c, d, i = rec["c"], rec["d"], rec["index"]
        self.widen(c.denominator, d.denominator)
        c, d = c.numerator * (self.den // c.denominator), d.numerator * (self.den // d.denominator)
        level, around, reach = self.roots, [], 0  # around: the hulls that hold it
        while (p := level.around(c)) is not None:
            pc, pd = self.spans[p]
            level, reach = self.children[p], _gap_of(c - pc, pd - pc, rec["depth"])
            around.append(p)
        if level is _LEAF:
            level = self.children[around[-1]] = _Level()
        level.insert(c, d, i)
        self.spans.append((c, d))
        self.children.append(_LEAF)
        self.gaps.append(reach)
        for p in reversed(around):
            mass = self.masses.setdefault(p, self.mass(p))
            mass.extend([0] * (reach + 1 - len(mass)))
            mass[reach] += d - c
            # the new hull splits the free interval it lies in; only when
            # that was the widest does the widest change
            for k in range(reach, self.deepest + 1):
                width, neg = self.widest.get((p, k), (0, 0))
                if -neg < c * 3**k < width - neg:
                    del self.widest[p, k]
            reach = max(reach, self.gaps[p])
        self.records.append(rec)  # last: a record is read without the lock

    def mass(self, p: int) -> list[int]:
        """The widths of hull p and the hulls inside it, by reach."""
        return self.masses.get(p) or [self.spans[p][1] - self.spans[p][0]]

    def free(self, p: int, k: int) -> tuple[int, int]:
        """(width, -left) of the widest interval inside hull p that no
        depth-k cover holds, leftmost on ties, over den * 3**k."""
        got = self.widest.get((p, k))
        if got is None:
            s = 3**k
            c, d = self.spans[p]
            walk = _Walk(self, k, c * s, d * s)
            walk.cover(self.children[p], c * s, d - c, k)
            got = self.widest[p, k] = walk.best
            self.deepest = max(self.deepest, k)
        return got

    def chain(self, x: Fraction, bound: int) -> list[int]:
        """Indices below bound whose closed hull holds x, outermost first."""
        out, level = [], self.roots
        with self.lock:
            xn, xd = x.numerator * self.den, x.denominator
            while (p := level.around(xn, xd)) is not None and p < bound:
                out.append(p)
                level = self.children[p]
        return out


_state = _Placement()


def basis_interval(n: int) -> tuple[Fraction, Fraction]:
    """n-th interval of the fixed enumeration (see _intervals)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    st = _state
    if n >= len(st.basis):  # the list only grows: a drained entry needs no lock
        with st.lock:
            while len(st.basis) <= n:
                st.basis.append(next(st.enumeration))
    an, ad, bn, bd = st.basis[n]
    return Fraction(an, ad), Fraction(bn, bd)


# ---------------------------------------------------------------------------
# inductive placement


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


def _covered_in(x: int, w: int, m: int, lo: int, hi: int) -> int:
    """Length inside [lo, hi] of the level-m cover of the Cantor set on
    [x, x + w * 3**m], whose segments have width w."""
    span = w * 3**m
    if x + span <= lo or x >= hi:
        return 0
    if lo <= x and x + span <= hi:
        return w << m
    if m == 0:
        return min(x + w, hi) - max(x, lo)
    return _covered_in(x, w, m - 1, lo, hi) + _covered_in(x + 2 * span // 3, w, m - 1, lo, hi)


class _Walk:
    """The widest interval of (lo, hi) that no depth-k cover holds.

    Coordinates are integers over den * 3**k, where each depth-k segment
    has the width of its hull over den.  A free interval is a piece of
    (lo, hi), or of a gap of a visible cover, between the visible hulls in
    it; or a gap of a visible cover that holds no visible hull.  Hulls
    within (lo, hi) answer from their cached widest interval.  A hull's
    free intervals are no wider than its middle gap, so hulls are looked at
    widest first, until that bound cannot beat the best interval found.
    """

    def __init__(self, st: _Placement, k: int, lo: int, hi: int):
        self.st, self.k, self.s, self.lo, self.hi = st, k, 3**k, lo, hi
        self.best = (0, 0)  # (width, -left), so leftmost wins ties

    def offer(self, left: int, right: int) -> None:
        if left < self.lo:
            left = self.lo
        if right > self.hi:
            right = self.hi
        if right > left and (right - left, -left) > self.best:
            self.best = (right - left, -left)

    def region(self, level: _Level, left: int, right: int) -> None:
        """The free intervals of (left, right), a gap of a visible cover or
        all of (lo, hi): the pieces between the hulls of `level` in it and
        those inside them."""
        st, k, s, lo, hi = self.st, self.k, self.s, self.lo, self.hi
        starts, ends, ids = level.starts, level.ends, level.ids
        # the hulls in (left, right) that meet (lo, hi), and the free pieces
        # between them.  Floor division is exact at both ends: a hull that
        # starts at right // s but before right would end past right, as
        # every hull is at least one unit of den wide
        j0 = bisect_right(ends, max(left, lo) // s)
        j1 = bisect_left(starts, min(right, hi) // s, j0)
        for j in range(j0, j1):
            self.offer(left, starts[j] * s)
            left = ends[j] * s
        self.offer(left, right)
        if not k or j0 == j1:
            return
        # the middle gap of a hull [x, x + w] is (w, -(3x + w)) over den * 3;
        # it bounds the hull's free intervals, so only hulls whose middle
        # gap is at least as wide as the best so far are sorted
        tip = s // 3
        least = self.best[0] // tip
        order = sorted(
            (
                (ends[j] - starts[j], -2 * starts[j] - ends[j], j)
                for j in range(j0, j1)
                if ends[j] - starts[j] >= least
            ),
            reverse=True,
        )
        for w, neg3, j in order:
            if (w * tip, neg3 * tip) <= self.best:
                break
            x = starts[j] * s
            if lo <= x and ends[j] * s <= hi:
                width, neg = st.free(ids[j], k)
                self.offer(-neg, width - neg)
            else:
                self.cover(st.children[ids[j]], x, w, k)

    def cover(self, children: _Level, x: int, w: int, m: int) -> None:
        """The free intervals in the gaps of the depth-m cover of
        [x, x + w * 3**m], a segment of a hull whose children are `children`.

        Each child lies in one gap of its parent's cover, and a gap of level
        above k lies inside a depth-k segment, which meets no gap of level k
        or less; so the children in a gap visited here are those between
        its ends."""
        span = w * 3**m
        third = span // 3
        if m == 0 or x + span <= self.lo or x >= self.hi or (third, -x) <= self.best:
            return
        self.region(children, x + third, x + 2 * third)
        self.cover(children, x, w, m - 1)
        self.cover(children, x + 2 * third, w, m - 1)


def _covered(st: _Placement, lo: int, hi: int):
    """The length of (lo, hi) that the depth-k covers of the placed sets
    hold, over den * 3**k, for k = 0, 1, 2, ... in turn.

    At depth k a hull is visible when it and every hull around it sit in
    gaps of level at most k of their parents' covers; any other hull lies
    inside a segment of a visible cover.  Visible covers are disjoint, so
    the covered length is (2/3)**k times the summed width of the visible
    hulls within (lo, hi), plus the clipped covers of the few visible hulls
    that hold lo or hi.  One walk down from the roots that meet (lo, hi)
    sums the first by reach and collects the second, before the first value.
    """
    # the visible width within (lo, hi), by the least depth that shows it,
    # and the hulls that hold lo or hi, each with its reach: of the hulls of
    # a level that meet (lo, hi), only the first and the last can hold one
    widths, edges = defaultdict(int), []
    masses, spans, gaps = st.masses, st.spans, st.gaps
    todo = [(st.roots, 0)]
    while todo:
        level, v = todo.pop()
        starts, ends = level.starts, level.ends
        j0, j1 = bisect_right(ends, lo), bisect_left(starts, hi)
        holding = []
        if j0 < j1 and starts[j0] < lo:
            holding.append(level.ids[j0])
            j0 += 1
        if j0 < j1 and ends[j1 - 1] > hi:
            j1 -= 1
            holding.append(level.ids[j1])
        for p in level.ids[j0:j1]:
            g = gaps[p]
            if g < v:
                g = v
            mass = masses.get(p)
            if mass is None:
                widths[g] += spans[p][1] - spans[p][0]
            else:
                for r, m in enumerate(mass):
                    widths[r if r > g else g] += m
        for p in holding:
            c, d = spans[p]
            reach = max(v, gaps[p])
            edges.append((c, d - c, reach))
            todo.append((st.children[p], reach))
    inside = 0
    for k in count():
        s = 3**k
        inside += widths[k]
        yield (inside << k) + sum(
            _covered_in(c * s, w, k, lo * s, hi * s) for c, w, v in edges if v <= k
        )


def _place(i: int) -> dict:
    """Hull of the i-th Cantor set, chosen against placements 0..i-1.

    The cover of the earlier sets is refined one depth at a time until it
    covers less than half of (a, b) (see _covered); the hull is the middle
    half of its widest gap in (a, b), leftmost on ties, as _clipped_cover
    would give.
    """
    st = _state
    if i != len(st.records):
        raise ValueError("placements are built in index order")
    a, b = basis_interval(i)
    an, ad, bn, bd = st.basis[i]
    st.widen(ad, bd)
    den = st.den
    lo, hi = an * (den // ad), bn * (den // bd)
    for depth, covered in enumerate(_covered(st, lo, hi)):
        if 2 * covered < 3**depth * (hi - lo):
            break
    s = 3**depth
    walk = _Walk(st, depth, lo * s, hi * s)
    walk.region(st.roots, lo * s, hi * s)
    width, neg = walk.best
    left, right, q = -neg, width - neg, 4 * den * s
    return {
        "index": i,
        "a": a,
        "b": b,
        "c": Fraction(3 * left + right, q),
        "d": Fraction(left + 3 * right, q),
        "depth": depth,
    }


def ensure_placed(count: int) -> None:
    """Pre-build placements 0..count-1 (idempotent, thread-safe)."""
    st = _state
    if len(st.records) >= count:
        return
    with st.lock:
        while len(st.records) < count:
            st.add(_place(len(st.records)))


def placement_record(i: int) -> dict:
    """Audit record for placement i: index, interval, hull and cover depth."""
    ensure_placed(i + 1)
    return dict(_state.records[i])


def _reset_state() -> None:
    # test hook: drops every memoized enumeration and placement
    global _state
    _state = _Placement()


# ---------------------------------------------------------------------------
# membership and the bit codec


def _unit_digits(t: Fraction) -> tuple[bytes, bytes] | None:
    """Ternary digits of t using only 0s and 2s, or None when t is not in
    the unit Cantor set (so also when t lies outside [0, 1]).

    One division gives the prefix, for terminating and periodic t alike, and
    a 1 in it answers None at once, except where t terminates and its only 1
    is its last digit: that endpoint, such as 1/3 = 0.1, is read as 0.0(2).
    A periodic t streams its cycle in the cycle reader's growing blocks, None
    at the first 1; the order search runs only when the prefix and the first
    block hold no 1, and the blocks read, cut at the order, are the cycle.
    Every other member is checked once as a canonical `DigitExpansion`.
    """
    num, den = t.numerator, t.denominator
    if num == den:
        return b"", bytes([2])
    if not 0 <= num < den:
        return None
    pre, m = _strip_base(den, 3)
    prefix = _divide(num, den, 3, pre)[0]
    if 1 in prefix:
        if m == 1 and prefix.index(1) == pre - 1:
            return prefix[:-1] + b"\x00", bytes([2])
        return None
    cycle = b""
    if m > 1:
        reader = CycleReader(num % m, m, 3)
        cycle = reader.block()
        if 1 in cycle:
            return None
        n = _multiplicative_order(3, m)
        cycle = cycle[:n]
        while reader.read < n:
            block = reader.block(n)
            if 1 in block:
                return None
            cycle += block
    e = DigitExpansion(3, 1, b"", prefix, cycle)
    return e.prefix, e.cycle


class BitStream(Record):
    """Eventually repeating 0/1 stream: prefix bits then a repeating cycle
    (empty cycle = all zeros from there on)."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: bytes, cycle: bytes):
        if type(prefix) is not bytes or type(cycle) is not bytes:
            prefix, cycle = bytes(prefix), bytes(cycle)
        for part in (prefix, cycle):
            if part and max(part) > 1:
                raise ValueError("stream digits must be bits")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)


def _head(s: BitStream, n: int) -> bytes:
    """The first n bits of the stream."""
    prefix, cycle = s.prefix, s.cycle
    k = n - len(prefix)
    if k <= 0:
        return prefix[:n]
    if not cycle:
        return prefix + bytes(k)
    return prefix + (cycle * (k // len(cycle) + 1))[:k]


def decode_bits(s: BitStream) -> Fraction:
    """Decode: sign bit (1 -> +), unary run of 1s giving the integer digit
    count, that many integer bits, then binary fraction bits.  A stream whose
    unary run never terminates decodes to 0.

    The run ends at the first 0 past the sign bit.  Past the prefix the
    bits repeat the cycle, or are all 0 when there is none, so that 0, if
    there is one, lies among the first p + c + 2 bits; the 2 covers an
    empty prefix, whose sign bit is the first bit of the cycle or a 0.
    """
    prefix, cycle = s.prefix, s.cycle
    p, c = len(prefix), len(cycle)
    z = prefix.find(0, 1)
    if z < 0:
        z = _head(s, p + c + 2).find(0, 1)
        if z < 0:
            return Fraction(0)  # the run never ends
    # z - 1 integer bits follow the 0, and the fraction bits start at 2z
    head = _head(s, 2 * z)
    ipart = _int_from_digits(head[z + 1 :], 2)
    start = 2 * z
    # fraction bits that start inside the cycle start a rotation of it
    off = max(0, start - p) % (c or 1)
    frac = fraction_value(prefix[start:], cycle[off:] + cycle[:off], 2)
    n, d = frac.numerator, frac.denominator
    return Fraction((ipart * d + n) if head[0] == 1 else -(ipart * d + n), d)


def encode_value(y: Fraction) -> BitStream:
    """Right inverse of decode_bits on every rational (zero encodes as +)."""
    bits = to_expansion(y, 2)
    int_bits = bits.integer_digits
    prefix = (
        (b"\x01" if bits.sign > 0 else b"\x00")
        + b"\x01" * len(int_bits)
        + b"\x00"
        + int_bits
        + bits.prefix
    )
    return BitStream(prefix, bits.cycle)


# ---------------------------------------------------------------------------
# evaluation and preimages


# Cantor digits 0/2 <-> bits 0/1
_HALVE = bytes.maketrans(b"\x02", b"\x01")
_DOUBLE = bytes.maketrans(b"\x01", b"\x02")


def evaluate(x: Fraction, bound: int) -> tuple[Fraction, int]:
    """(value, i) if x lies in the i-th Cantor set for some i < bound, else
    (0, bound), meaning 0 unless x lies in a set of index >= bound."""
    if bound < 1:
        raise ValueError("bound must be positive")
    ensure_placed(bound)
    st = _state
    xn, xd = x.numerator, x.denominator
    for i in st.chain(x, bound):
        rec = st.records[i]
        c, d = rec["c"], rec["d"]
        cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
        # t = (x - c) / (d - c), over a positive denominator
        t = Fraction((xn * cd - cn * xd) * dd, xd * (dn * cd - cn * dd))
        digits = _unit_digits(t)
        if digits is not None:
            stream = BitStream(digits[0].translate(_HALVE), digits[1].translate(_HALVE))
            return decode_bits(stream), i
    return Fraction(0), bound


def preimage(y: Fraction, l: Fraction, r: Fraction) -> tuple[Fraction, int]:
    """(x, n) with l < x < r, x in the n-th Cantor set, and value exactly y.

    n is the least index whose closed basis interval sits inside (l, r);
    the search cost grows with the arithmetic complexity of the endpoints.
    """
    ln, ld, rn, rd = l.numerator, l.denominator, r.numerator, r.denominator
    if ln * rd >= rn * ld:
        raise ValueError("empty interval")
    st = _state
    basis, n = st.basis, 0
    while True:
        if n == len(basis):
            basis_interval(n)  # drains the enumeration, under the lock
        an, ad, bn, bd = basis[n]
        if ln * ad < an * ld and bn * rd < rn * bd:  # l < a and b < r
            break
        n += 1
    ensure_placed(n + 1)
    rec = st.records[n]
    c, d = rec["c"], rec["d"]
    cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
    stream = encode_value(y)
    t = fraction_value(stream.prefix.translate(_DOUBLE), stream.cycle.translate(_DOUBLE), 3)
    tn, td = t.numerator, t.denominator
    # x = c + t * (d - c)
    return Fraction(cn * dd * td + tn * (dn * cd - cn * dd), cd * dd * td), n
