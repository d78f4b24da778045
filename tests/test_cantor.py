import hashlib
import itertools
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import isqrt, lcm

import pytest

from wildfuncs import cantor, cli
from wildfuncs.exactcore import _int_to_digits, fraction_value, to_expansion
from wildfuncs.cantor import (
    _DOUBLE,
    BitStream,
    _unit_digits,
    basis_interval,
    decode_bits,
    encode_value,
    placement_record,
)


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


def _integer_oracle(count):
    # the integer rule as written before the hull forest: every earlier
    # hull that meets (a, b), over one common denominator q; each deeper
    # level scales by 3 and splits every segment into its outer thirds,
    # keeping those that still meet (a, b); one sweep of the sorted cover
    # gives the covered length and the widest gap, leftmost on ties
    hulls, records = [], []
    for i in range(count):
        a, b = basis_interval(i)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        near = [h for h in hulls if h[2] * ad > an * h[3] and h[0] * bd < bn * h[1]]
        q = lcm(ad, bd, *(h[1] for h in near), *(h[3] for h in near))
        lo, hi = an * (q // ad), bn * (q // bd)
        segments = [(cn * (q // cd), dn * (q // dd)) for cn, cd, dn, dd in near]
        depth = 0
        while True:
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
        c, d = F(3 * left + right, 4 * q), F(left + 3 * right, 4 * q)
        records.append({"index": i, "a": a, "b": b, "c": c, "d": d, "depth": depth})
        hulls.append((c.numerator, c.denominator, d.numerator, d.denominator))
    return records


def _first_gap(t):
    # level of the first ternary digit 1 of t in (0, 1), and the index of
    # the level-sized cell it opens
    cell = 0
    for level in range(1, 64):
        cell = 3 * cell + int(3 * t)
        t = 3 * t - int(3 * t)
        if cell % 3 == 1:
            return level, cell
    raise AssertionError("no ternary digit 1 among the first 63")


def _oracle_unit_digits(t):
    # t in [0, 1] is in the unit Cantor set when its canonical ternary
    # digits are only 0s and 2s, or when they terminate in their only 1: an
    # endpoint, whose last 1 also reads as a 0 followed by 2s for ever
    if t == 1:
        return b"", b"\x02"
    e = to_expansion(t, 3)
    ones = (e.prefix + e.cycle).count(1)
    if ones == 0:
        return e.prefix, e.cycle
    if ones == 1 and not e.cycle and e.prefix[-1] == 1:
        return e.prefix[:-1] + b"\x00", b"\x02"
    return None


def _oracle_evaluate(x, bound):
    # full scan: the first set, in index order, whose hull coordinate t of x
    # lies in [0, 1] and has a 0/2 ternary expansion
    for i in range(bound):
        rec = placement_record(i)
        t = (x - rec["c"]) / (rec["d"] - rec["c"])
        if 0 <= t <= 1:
            digits = _oracle_unit_digits(t)
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

    def test_matches_integer_oracle(self):
        expected = _integer_oracle(1000)
        for i, want in enumerate(expected):
            rec = placement_record(i)
            for key in ("index", "a", "b", "c", "d", "depth"):
                assert rec[key] == want[key], (i, key)

    def test_hulls_form_a_laminar_forest(self):
        # a sweep by left end: each hull is strictly inside the last open
        # hull that has not ended before it, or starts after every open hull
        count = 1000
        recs = [placement_record(i) for i in range(count)]
        parents, open_hulls = [None] * count, []
        for i in sorted(range(count), key=lambda i: recs[i]["c"]):
            c, d = recs[i]["c"], recs[i]["d"]
            while open_hulls and recs[open_hulls[-1]]["d"] < c:
                open_hulls.pop()
            if open_hulls:
                p = open_hulls[-1]
                assert recs[p]["c"] < c and d < recs[p]["d"], (p, i)
                assert p < i
                parents[i] = p
            open_hulls.append(i)
        st = cantor._state
        kept = [None] * len(st.records)
        for p, level in enumerate(st.children):
            for i in level.ids:
                kept[i] = p
        assert kept[:count] == parents
        for i, p in enumerate(parents):
            if p is None:
                assert st.gaps[i] == 0, i
                continue
            # the child lies in one open gap of the parent's cover, of a
            # level no deeper than the child's own cover depth, and the
            # forest keeps that level
            pc, width = recs[p]["c"], recs[p]["d"] - recs[p]["c"]
            tc, td = (recs[i]["c"] - pc) / width, (recs[i]["d"] - pc) / width
            level, cell = _first_gap(tc)
            assert F(cell, 3**level) < tc and td < F(cell + 1, 3**level), (p, i)
            assert level <= recs[i]["depth"], (p, i)
            assert st.gaps[i] == level, (p, i)

    @staticmethod
    def _check_covered(i):
        # before placement i: the covered length at every depth _place
        # tries, and one past the depth it chooses, against the length of
        # the merged Fraction covers of every earlier set within (a, b)
        st = cantor._state
        assert len(st.records) == i
        a, b = basis_interval(i)
        st.widen(a.denominator, b.denominator)
        lo, hi = a.numerator * (st.den // a.denominator), b.numerator * (st.den // b.denominator)
        lengths, depth, past = cantor._covered(st, lo, hi), 0, 0
        while past < 2:
            segments = sorted(
                seg for rec in st.records for seg in cantor._clipped_cover(rec["c"], rec["d"], a, b, depth)
            )
            union, end = F(0), a
            for s, e in segments:
                s, e = max(s, end), min(e, b)
                if e > s:
                    union, end = union + (e - s), e
            assert F(next(lengths), st.den * 3**depth) == union, (i, depth)
            if past or 2 * union < b - a:
                chosen = chosen if past else depth
                past += 1
            depth += 1
        assert placement_record(i)["depth"] == chosen

    def test_covered_length_matches_merged_fraction_covers(self):
        cantor._reset_state()
        for i in range(300):
            self._check_covered(i)
        cantor.ensure_placed(2000)
        for i in range(2000, 2008):
            self._check_covered(i)

    def test_placement_scales(self):
        # placing 0..399 took 12 s when every depth rescanned every earlier
        # set in Fractions; integer refinement takes under a second
        cantor._reset_state()
        start = time.perf_counter()
        cantor.ensure_placed(400)
        assert time.perf_counter() - start < 10

    def test_place_returns_frozen_view(self):
        # a record is a copy: changing it leaves the placement as it was
        rec = placement_record(3)
        c = rec["c"]
        rec["c"] = rec["d"]
        assert rec["index"] == 3 and placement_record(3)["c"] == c

    def test_concurrent_extension_and_reads(self):
        cantor._reset_state()
        baseline = [placement_record(i) for i in range(10)]
        cantor._reset_state()

        def worker(k):
            # mixed extension orders from many threads must agree
            return [placement_record(i) for i in (k % 10, 9 - k % 10, k % 7)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(32)))
        for triple in results:
            for rec in triple:
                assert rec == baseline[rec["index"]]

    def test_evaluations_while_the_forest_grows(self):
        # evaluations walk the forest while other threads insert hulls into
        # it; each must match a serial run
        rng = random.Random(64)
        jobs = []
        for k in range(48):
            rec = placement_record(rng.randrange(100))
            jobs.append((rec["c"] + (rec["d"] - rec["c"]) / 4, 20 + 2 * k))
            jobs.append((F(rng.randint(-300, 300), rng.randint(1, 50)), 20 + 2 * k))
        cantor._reset_state()
        want = [cantor.evaluate(x, bound) for x, bound in jobs]
        cantor._reset_state()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: cantor.evaluate(*job), jobs))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestDumpDigests:
    # sha256 of `cantor --max-index N`: 300 and 2300 generated before the
    # hull forest, 4600 by the forest as first written
    @pytest.mark.parametrize(
        "count, digest",
        [
            (300, "7978912f20f03b7293c07d79fb30cd4455a125708715c2621acb121980ff4370"),
            (2300, "9f74882592f5785c71afb3e98bf59ff7121d1b1434c9e0f2bb293cb8cf58e763"),
            (4600, "540481722321f1d9e94d5a8d6a99481a13c124df063a4d7c27023f30accdecad"),
        ],
    )
    def test_dump(self, capsys, count, digest):
        assert cli.main(["cantor", "--max-index", str(count)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_index_12844(self, capsys):
        # the record of the least index inside (1/5, 1/4), as `cantor`
        # prints it, taken when placing up to it took 12 s
        assert cli.main(["cantor", "--max-index", "12845"]) == 0
        last = capsys.readouterr().out.splitlines()[-1] + "\n"
        digest = "6c7c84b501a1f4d4e4d24978b0c3e58407d33aafa3787e32ec766e7fd285721b"
        assert hashlib.sha256(last.encode()).hexdigest() == digest
        assert cantor.preimage(F(1, 2), F(1, 5), F(1, 4)) == (F(166873, 746496), 12844)


class TestMembership:
    def test_quarter_is_member(self):
        # 1/4 = 0.(02) in base 3
        assert _unit_digits(F(1, 4)) == (b"", bytes([0, 2]))

    def test_half_is_not(self):
        assert _unit_digits(F(1, 2)) is None

    def test_third_uses_alternative_representation(self):
        # 1/3 = 0.1 = 0.0(2)
        assert _unit_digits(F(1, 3)) == (bytes([0]), bytes([2]))

    def test_endpoints(self):
        assert _unit_digits(F(0)) == (b"", b"")
        assert _unit_digits(F(1)) == (b"", bytes([2]))
        assert _unit_digits(F(-1, 10)) is None
        assert _unit_digits(F(11, 10)) is None

    def test_affine_transport(self):
        # the first hull placed inside (2, 5): t = 1/4 is a member, whose
        # bits 0.(01) decode to -4/3; t = 1/2 is not
        n = next(i for i in range(1000) if 2 <= basis_interval(i)[0] and basis_interval(i)[1] <= 5)
        rec = placement_record(n)
        c, w = rec["c"], rec["d"] - rec["c"]
        assert cantor.evaluate(c + w / 4, n + 1) == (F(-4, 3), n)
        assert cantor.evaluate(c + w / 2, n + 1) == (F(0), n + 1)

    def test_matches_oracle(self):
        rng = random.Random(29)
        # terminating points, the endpoints 0 and 1 and 1/3 = 0.0(2) among them
        points = [F(k, 3**j) for j in range(7) for k in range(3**j + 1)]
        # periodic points with no prefix (j = 0) and with one, some of whose
        # prefixes end in their only 1, which only a terminating point reads
        # as an endpoint
        points += [F(k, 3**j * m) for m in (4, 8, 13) for j in range(4) for k in range(3**j * m)]
        points += [F(rng.randint(0, d), d) for d in (4, 8, 10, 13, 26, 80, 91, 242) for _ in range(20)]
        # members whose 0/2 cycles run past the reader's first block, up to
        # past its third (blocks end at 10, 74 and 4170 digits)
        members = []
        for n in (11, 12, 40, 73, 74, 75, 76, 200, 4169, 4170, 4171, 4500):
            bits = bytes(rng.randrange(2) for _ in range(n - 1)) + b"\x01"
            prefix = bytes(2 * rng.randrange(2) for _ in range(rng.randrange(4)))
            members.append(fraction_value(prefix, bits.translate(_DOUBLE), 3))
        # non-members whose first 1 is the last digit of a block, the first of
        # the next or the one after; with no prefix, the cycle starts the read
        others = []
        for end in (10, 74, 4170):
            for p in (end - 1, end, end + 1):
                head = bytes(2 * rng.randrange(2) for _ in range(p))
                cycle = head + b"\x01" + bytes(2 * rng.randrange(2) for _ in range(9))
                others.append(fraction_value(b"", cycle, 3))
                assert to_expansion(others[-1], 3).cycle.find(1) == p
            others.append(fraction_value(bytes([2, 1, 2]), head, 3))  # a 1 in the prefix
        assert all(_oracle_unit_digits(t) is not None for t in members)
        assert all(_oracle_unit_digits(t) is None for t in others)
        for t in points + members + others:
            assert _unit_digits(t) == _oracle_unit_digits(t), t

    def test_points_beside_hulls_118_and_122(self, monkeypatch):
        # c - u and d + u, u = 1/(c.den * d.den * 3**20), for these two hulls
        # lie in hulls 89 and 90, where t has a prefix of 22 digits and a
        # cycle of 45481984 and 8733065216 digits; a full expansion took over
        # a second for hull 118 and ran out of memory for hull 122
        seen = []

        def recorded(t):
            seen.append((t, _unit_digits(t)))
            return seen[-1][1]

        monkeypatch.setattr(cantor, "_unit_digits", recorded)
        for k in (118, 122):
            rec = placement_record(k)
            c, d = rec["c"], rec["d"]
            u = F(1, c.denominator * d.denominator * 3**20)
            for x in (c - u, d + u):
                seen.clear()
                start = time.process_time()
                assert cantor.evaluate(x, 160) == (F(0), 160)
                assert time.process_time() - start < 1, (k, x)
                assert seen
                for t, digits in seen:
                    # one digit per divmod, up to the first 1
                    num, den = t.numerator, t.denominator
                    for _ in range(64):
                        q, num = divmod(3 * num, den)
                        if q == 1:
                            break
                    assert q == 1 and num and digits is None, (k, x, t)


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
        # the stream read bit by bit (zeros past the prefix when there is no
        # cycle); the fraction bits past the header and the prefix are
        # periodic, so they sum as a geometric series of one n-bit block
        def bit(i):
            if i < len(prefix):
                return prefix[i]
            return cycle[(i - len(prefix)) % len(cycle)] if cycle else 0

        if cycle and 0 not in cycle and 0 not in prefix[1:]:
            return F(0)  # the unary run never ends
        z = 1
        while bit(z) == 1:
            z += 1
        m = z - 1
        ipart = 0
        for t in range(m):
            ipart = 2 * ipart + bit(z + 1 + t)
        start = z + 1 + m
        lead = max(start, len(prefix))  # the periodic bits start here
        head = 0
        for k in range(start, lead):
            head = 2 * head + bit(k)
        frac = F(head)
        n = len(cycle)
        if n:
            block = int("".join(str(bit(lead + k)) for k in range(n)), 2)
            frac += F(block, 1 << n) / (1 - F(1, 1 << n))
        return (1 if bit(0) == 1 else -1) * (ipart + frac / (1 << (lead - start)))

    def _check_offsets(self, rng, cycle_tail, offsets):
        # prefix = sign, unary run of m ones, 0; the cycle opens with the m
        # integer bits, so the fraction starts at offset m of the cycle
        n = len(cycle_tail)
        for off in offsets:
            sign = rng.randint(0, 1)
            prefix = bytes([sign]) + b"\x01" * off + b"\x00"
            assert 2 * (off + 1) >= len(prefix)  # the fraction starts inside the cycle
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

    def test_decode_random_streams(self):
        # every stream of at most 7 prefix bits and 5 cycle bits, then short
        # random ones: the header and the fraction may each end in the prefix
        # or in the cycle, either may be empty, and the unary run may end at
        # the cycle's only 0 when it is also the sign bit, in the zeros past
        # a terminating prefix, or never
        streams = [
            (bytes(prefix), bytes(cycle))
            for p in range(8) for c in range(6)
            for prefix in itertools.product((0, 1), repeat=p)
            for cycle in itertools.product((0, 1), repeat=c)
        ]
        rng = random.Random(91)
        for _ in range(3000):
            prefix = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
            cycle = bytes(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
            streams.append((prefix, cycle))
        for prefix, cycle in streams:
            got = decode_bits(BitStream(prefix, cycle))
            assert got == self._decode_oracle(prefix, cycle), (prefix, cycle)

    @pytest.mark.parametrize("prefix, cycle", [
        # empty prefix: the sign bit and the run come from the cycle
        ("", "0"), ("", "1011"), ("", "0111"), ("", "0101"), ("", "1101001"),
        # the unary run ends inside the cycle
        ("11", "1101"), ("1", "1110"), ("011", "10"), ("1111", "0110"),
        # endless runs decode to 0
        ("", "1"), ("1", "1"), ("0", "11"), ("01111", "1"), ("1", "111"),
        # terminating streams: zeros past the prefix
        ("", ""), ("0", ""), ("1", ""), ("111", ""), ("0111", ""), ("1101", ""),
        ("11011011", ""), ("1110101", ""),
    ])
    def test_decode_edge_streams(self, prefix, cycle):
        prefix, cycle = (bytes(int(c) for c in bits) for bits in (prefix, cycle))
        assert decode_bits(BitStream(prefix, cycle)) == self._decode_oracle(prefix, cycle)

    def test_decode_edge_values(self):
        # the same edges by hand
        def bits(text):
            return bytes(int(c) for c in text)

        assert decode_bits(BitStream(b"", bits("1"))) == 0
        assert decode_bits(BitStream(b"", b"")) == 0
        assert decode_bits(BitStream(bits("111"), b"")) == 0  # + 11 0 then integer bits 00
        assert decode_bits(BitStream(bits("11011"), b"")) == F(3, 2)  # + 1 0, 1, then .1
        assert decode_bits(BitStream(b"", bits("0101"))) == -F(4, 3)  # - 1 0, 1, then .(01)

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
        rec = placement_record(0)
        assert cantor.evaluate(rec["c"], 1) == (F(0), 0)

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

    def test_least_index_and_hull_map_match_fraction_oracle(self):
        # 200 seeded intervals: basis intervals with each end kept exactly
        # (so that interval itself is not inside) or widened by a unit or
        # by a hair with an 18-digit denominator; integer endpoints; small
        # rationals around 0, negative ones included; denominators of 10 to
        # 31 digits
        rng = random.Random(64)
        intervals = []
        for k in range(200):
            kind = k % 4
            if kind == 0:
                a, b = basis_interval(rng.randrange(250))
                widen = lambda: rng.choice((F(0), F(rng.randint(1, 50), 50), F(1, 10**18 + rng.randrange(10**6))))
                intervals.append((a - widen(), b + widen()))
            elif kind == 1:
                l = rng.randint(-2, 1)
                intervals.append((F(l), F(rng.randint(l + 1, 2))))
            elif kind == 2:
                l = F(rng.randint(-24, 12), rng.randint(12, 24))
                intervals.append((l, l + F(rng.randint(6, 24), 12)))
            else:
                q = 10 ** rng.randint(9, 30) + rng.randrange(1000)
                l = F(rng.randint(-2 * q, q), q)
                intervals.append((l, l + F(rng.randint(q // 2, 2 * q), q)))
        for l, r in intervals:
            want = 0
            while not (l < basis_interval(want)[0] and basis_interval(want)[1] < r):
                want += 1
            y = F(rng.randint(-300, 300), rng.randint(1, 64))
            x, n = cantor.preimage(y, l, r)
            assert n == want, (l, r)
            rec = placement_record(n)
            c, d = rec["c"], rec["d"]
            bits = encode_value(y)
            t = fraction_value(bits.prefix.replace(b"\x01", b"\x02"), bits.cycle.replace(b"\x01", b"\x02"), 3)
            assert x == c + t * (d - c), (l, r, y)
            assert l < x < r
            assert cantor.evaluate(x, n + 1) == (y, n)

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
