import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import isqrt

import pytest

from wildfuncs import cantor
from wildfuncs.exactcore import _int_to_digits, to_expansion
from wildfuncs.cantor import (
    AffineCantor,
    BitStream,
    basis_interval,
    cantor_member,
    decode_bits,
    encode_value,
    place_cantor,
    placement_record,
)

UNIT = AffineCantor(0, F(0), F(1))


def _oracle_cover(c, d, lo, hi, t):
    # level-t cover intervals of the Cantor set on [c, d] meeting (lo, hi)
    if d <= lo or c >= hi:
        return []
    if t == 0:
        return [(c, d)]
    third = (d - c) / 3
    return _oracle_cover(c, c + third, lo, hi, t - 1) + _oracle_cover(
        d - third, d, lo, hi, t - 1
    )


def _oracle_records(count):
    # the placement rule in plain Fractions: the cover of every earlier set,
    # rebuilt from depth 0 at each depth until it covers less than half of
    # (a, b); the hull is the middle half of the widest gap, leftmost on ties
    records = []
    for i in range(count):
        a, b = basis_interval(i)
        depth = 0
        while True:
            segments = sorted(
                seg
                for rec in records
                for seg in _oracle_cover(rec["c"], rec["d"], a, b, depth)
            )
            merged = []
            for s, e in segments:
                if merged and s <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], e)
                else:
                    merged.append([s, e])
            if sum(min(e, b) - max(s, a) for s, e in merged) < (b - a) / 2:
                break
            depth += 1
        gaps, cursor = [], a
        for s, e in merged:
            if s > cursor:
                gaps.append((cursor, s))
            cursor = max(cursor, min(e, b))
        if cursor < b:
            gaps.append((cursor, b))
        g, h = max(gaps, key=lambda gap: (gap[1] - gap[0], -gap[0]))
        quarter = (h - g) / 4
        records.append(
            {"index": i, "a": a, "b": b, "c": g + quarter, "d": h - quarter, "depth": depth}
        )
    return records


def _oracle_evaluate(x, bound):
    # full scan: the first set, in index order, whose hull coordinate t of x
    # lies in [0, 1] and has a 0/2 ternary expansion
    for i in range(bound):
        rec = placement_record(i)
        t = (x - rec["c"]) / (rec["d"] - rec["c"])
        if 0 <= t <= 1:
            digits = cantor._unit_digits(t)
            if digits is not None:
                bits = (bytes(v // 2 for v in digits[0]), bytes(v // 2 for v in digits[1]))
                return decode_bits(BitStream(*bits)), i
    return F(0), bound


def _oracle_intervals(count, max_sum=30):
    # the enumeration rule restated: every reduced rational with
    # |num| + den <= max_sum, sorted by (|num| + den, num); pairing code k
    # decodes through isqrt to (s - j, j), kept when left < right
    rationals = sorted(
        {F(num, den) for den in range(1, max_sum + 1) for num in range(den - max_sum, max_sum - den + 1)},
        key=lambda x: (abs(x.numerator) + x.denominator, x.numerator),
    )
    out, code = [], 0
    while len(out) < count:
        s = (isqrt(8 * code + 1) - 1) // 2
        j = code - s * (s + 1) // 2
        assert s < len(rationals), "raise max_sum"
        if rationals[s - j] < rationals[j]:
            out.append((rationals[s - j], rationals[j]))
        code += 1
    return out


class TestBasisEnumeration:
    def test_first_intervals_golden(self):
        golden = [(F(-1), F(0)), (F(0), F(1)), (F(-2), F(0)), (F(-1), F(1)), (F(-1, 2), F(0))]
        assert [basis_interval(n) for n in range(5)] == golden

    def test_always_ordered_and_distinct(self):
        seen = set()
        for n in range(200):
            a, b = basis_interval(n)
            assert a < b
            assert (a, b) not in seen
            seen.add((a, b))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            basis_interval(-1)

    def test_matches_pairing_oracle(self):
        expected = _oracle_intervals(3000)
        assert [basis_interval(n) for n in range(3000)] == expected
        # after a reset, one call drains the whole prefix at once
        cantor._reset_state()
        assert basis_interval(2999) == expected[2999]
        assert [basis_interval(n) for n in range(3000)] == expected


class TestPlacement:
    def test_first_placement_is_middle_half(self):
        rec = placement_record(0)
        assert (rec["a"], rec["b"]) == (F(-1), F(0))
        assert (rec["c"], rec["d"]) == (F(-3, 4), F(-1, 4))
        assert rec["depth"] == 0

    def test_containment_first_dozen(self):
        for i in range(12):
            rec = placement_record(i)
            assert rec["a"] < rec["c"] < rec["d"] < rec["b"]

    def test_pairwise_cover_disjointness(self):
        records = [placement_record(i) for i in range(12)]
        for j, rec in enumerate(records):
            for i in range(j):
                prev = records[i]
                cover = cantor._clipped_cover(
                    prev["c"], prev["d"], rec["a"], rec["b"], rec["depth"]
                )
                for s, e in cover:
                    assert e < rec["c"] or s > rec["d"]

    def test_deterministic_across_resets(self):
        before = [placement_record(i) for i in range(6)]
        cantor._reset_state()
        after = [placement_record(i) for i in range(6)]
        assert before == after

    def test_matches_fraction_oracle(self):
        expected = _oracle_records(200)
        for i in range(200):
            rec = placement_record(i)
            assert rec == expected[i]
            assert [type(rec[k]) for k in "abcd"] == [F] * 4

    def test_placement_scales(self):
        # placing 0..399 took 12 s when every depth rescanned every earlier
        # set in Fractions; integer refinement takes under a second
        cantor._reset_state()
        start = time.perf_counter()
        cantor.ensure_placed(400)
        assert time.perf_counter() - start < 10

    def test_place_returns_frozen_view(self):
        cs = place_cantor(3)
        rec = placement_record(3)
        assert (cs.index, cs.c, cs.d) == (3, rec["c"], rec["d"])

    def test_concurrent_extension_and_reads(self):
        cantor._reset_state()
        baseline = [placement_record(i) for i in range(10)]
        cantor._reset_state()

        def worker(k):
            # mixed extension orders from many threads must agree
            return [place_cantor(i) for i in (k % 10, 9 - k % 10, k % 7)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(32)))
        for triple in results:
            for cs in triple:
                rec = baseline[cs.index]
                assert (cs.c, cs.d) == (rec["c"], rec["d"])


class TestMembership:
    def test_quarter_is_member(self):
        # 1/4 = 0.(02) in base 3
        assert cantor_member(F(1, 4), UNIT)

    def test_half_is_not(self):
        assert not cantor_member(F(1, 2), UNIT)

    def test_third_uses_alternative_representation(self):
        assert cantor_member(F(1, 3), UNIT)

    def test_endpoints(self):
        assert cantor_member(F(0), UNIT)
        assert cantor_member(F(1), UNIT)
        assert not cantor_member(F(-1, 10), UNIT)
        assert not cantor_member(F(11, 10), UNIT)

    def test_affine_transport(self):
        cs = AffineCantor(0, F(2), F(5))
        assert cantor_member(F(2) + F(3, 4), cs)  # t = 1/4
        assert not cantor_member(F(2) + F(3, 2), cs)  # t = 1/2


class TestCodec:
    def test_decode_alternating_stream(self):
        # sign 0 -> negative, unary 1 then 0 -> one integer bit, bit 1,
        # fraction 0.(01) = 1/3: value -(1 + 1/3)
        assert decode_bits(BitStream(b"", bytes([0, 1]))) == F(-4, 3)

    def test_decode_sign_then_zero(self):
        assert decode_bits(BitStream(bytes([1, 0]), b"")) == 0

    def test_decode_all_ones_convention(self):
        assert decode_bits(BitStream(b"", bytes([1]))) == 0
        assert decode_bits(BitStream(bytes([0, 1, 1]), bytes([1]))) == 0

    def test_encode_five_halves(self):
        s = encode_value(F(5, 2))
        assert (list(s.prefix), list(s.cycle)) == ([1, 1, 1, 0, 1, 0, 1], [])

    def test_encode_zero(self):
        s = encode_value(F(0))
        assert (list(s.prefix), list(s.cycle)) == ([1, 0], [])

    def test_encode_minus_four_thirds(self):
        s = encode_value(F(-4, 3))
        assert (list(s.prefix), list(s.cycle)) == ([0, 1, 0, 1], [0, 1])

    def test_round_trip_randomized(self):
        rng = random.Random(61)
        for _ in range(500):
            y = F(rng.randint(-5000, 5000), rng.randint(1, 400))
            assert decode_bits(encode_value(y)) == y

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitStream(bytes([2]), b"")

    @staticmethod
    def _decode_oracle(prefix, cycle):
        # the stream read bit by bit; the fraction bits past the header are
        # periodic, so they sum as a geometric series of one n-bit block
        def bit(i):
            return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]

        z = 1
        while bit(z) == 1:
            z += 1
        m = z - 1
        ipart = 0
        for t in range(m):
            ipart = 2 * ipart + bit(z + 1 + t)
        start = z + 1 + m
        assert start >= len(prefix)  # the fraction starts inside the cycle
        n = len(cycle)
        block = int("".join(str(bit(start + k)) for k in range(n)), 2)
        frac = F(block, 1 << n) / (1 - F(1, 1 << n))
        return (1 if bit(0) == 1 else -1) * (ipart + frac)

    def _check_offsets(self, rng, cycle_tail, offsets):
        # prefix = sign, unary run of m ones, 0; the cycle opens with the m
        # integer bits, so the fraction starts at offset m of the cycle
        n = len(cycle_tail)
        for off in offsets:
            sign = rng.randint(0, 1)
            prefix = bytes([sign]) + b"\x01" * off + b"\x00"
            cycle = bytes(rng.randint(0, 1) for _ in range(off)) + cycle_tail[off:]
            assert len(cycle) == n
            got = decode_bits(BitStream(prefix, cycle))
            assert got == self._decode_oracle(prefix, cycle), (n, off)

    def test_decode_fraction_inside_cycle_every_offset(self):
        rng = random.Random(83)
        for n in (1, 2, 3, 5, 8, 13):
            for _ in range(4):
                tail = bytes(rng.randint(0, 1) for _ in range(n))
                self._check_offsets(rng, tail, range(n))

    def test_decode_unary_run_inside_cycle(self):
        # the unary run, its 0 and the integer bits all come from the cycle
        rng = random.Random(89)
        for m in range(0, 6):
            for extra in range(1, 5):
                ibits = bytes(rng.randint(0, 1) for _ in range(m))
                rest = bytes(rng.randint(0, 1) for _ in range(extra))
                for sign in (0, 1):
                    prefix = bytes([sign])
                    cycle = b"\x01" * m + b"\x00" + ibits + rest
                    got = decode_bits(BitStream(prefix, cycle))
                    assert got == self._decode_oracle(prefix, cycle)

    def test_decode_long_cycle_inside(self):
        rng = random.Random(97)
        n = 8003
        tail = bytes(rng.randint(0, 1) for _ in range(n))
        self._check_offsets(rng, tail, (0, 1, 2, 7, 64, 4001, n - 2, n - 1))

    def test_decode_long_cycle_small_denominator(self):
        # 1/8053 has a binary cycle of 8052 bits.  With k integer bits read
        # off the cycle, the stream holds the bits of 2**k/8053, and its
        # fraction starts at offset k: 2**k/8053 mod 1, a small denominator
        cycle = to_expansion(F(1, 8053), 2).cycle
        assert len(cycle) == 8052
        for k in (0, 1, 5, 4000, 8051):
            stream = BitStream(b"\x01" * (k + 1) + b"\x00", cycle)
            assert decode_bits(stream) == F(2**k, 8053)
            assert decode_bits(stream) == self._decode_oracle(stream.prefix, stream.cycle)

    def test_encode_matches_split_rule(self):
        # the rule as once written: the integer bits of |y| rendered alone,
        # then the binary expansion of its fractional part
        rng = random.Random(101)
        for _ in range(500):
            y = F(rng.randint(-10**6, 10**6), rng.randint(1, 5000))
            mag = abs(y)
            ipart = mag.numerator // mag.denominator
            int_bits = _int_to_digits(ipart, 2)
            frac = to_expansion(mag - ipart, 2)
            prefix = bytes([0 if y < 0 else 1]) + b"\x01" * len(int_bits) + b"\x00"
            want = BitStream(prefix + int_bits + frac.prefix, frac.cycle)
            assert encode_value(y) == want, y


class TestEvaluate:
    def test_fall_through(self):
        # far outside every early interval
        value, upto = cantor.evaluate(F(1000), 8)
        assert (value, upto) == (F(0), 8)

    def test_left_endpoint_decodes_to_zero(self):
        cs = place_cantor(0)
        assert cantor.evaluate(cs.c, 1) == (F(0), 0)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            cantor.evaluate(F(0), 0)

    def test_non_member_inside_hull(self):
        rec = placement_record(0)
        mid = (rec["c"] + rec["d"]) / 2  # t = 1/2, not a member
        assert cantor.evaluate(mid, 1) == (F(0), 1)

    def test_hull_filter_matches_full_scan(self):
        bound = 160
        rng = random.Random(63)
        points = [F(rng.randint(-3000, 3000), rng.randint(1, 1000)) for _ in range(100)]
        for i in range(bound):
            rec = placement_record(i)
            c, d = rec["c"], rec["d"]
            # endpoints (t = 0 and 1), Cantor points inside, and points one
            # unit in the last place inside and outside each end; that unit
            # adds only 3s to the denominator, which keeps the expansions in
            # other hulls short
            uc, ud = F(1, c.denominator * 3**40), F(1, d.denominator * 3**40)
            points += [c, d, c - uc, c + uc, d - ud, d + ud]
            points += [c + t * (d - c) for t in (F(1, 4), F(1, 10))]
        for x in points:
            assert cantor.evaluate(x, bound) == _oracle_evaluate(x, bound)


class TestPreimage:
    def test_golden_pipeline(self):
        x, n = cantor.preimage(F(-4, 3), F(0), F(1))
        assert (x, n) == (F(163, 384), 52)
        assert F(0) < x < F(1)
        assert cantor.evaluate(x, n + 1) == (F(-4, 3), n)

    def test_zero_target(self):
        x, n = cantor.preimage(F(0), F(-2), F(1))
        assert F(-2) < x < F(1)
        assert cantor.evaluate(x, n + 1) == (F(0), n)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            cantor.preimage(F(1), F(1, 3), F(1, 3))

    def test_randomized_round_trip(self):
        rng = random.Random(62)
        anchors = [(F(-1), F(0)), (F(0), F(1)), (F(-2), F(0)), (F(-1), F(1))]
        for _ in range(60):
            a, b = anchors[rng.randrange(len(anchors))]
            l = a - F(rng.randint(1, 50), 50)
            r = b + F(rng.randint(1, 50), 50)
            y = F(rng.randint(-200, 200), rng.randint(1, 48))
            x, n = cantor.preimage(y, l, r)
            assert l < x < r
            assert cantor.evaluate(x, n + 1) == (y, n)
