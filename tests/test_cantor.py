import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import isqrt

import pytest

from wildfuncs import cantor
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
