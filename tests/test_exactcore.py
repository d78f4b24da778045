import copy
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest

from wildfuncs import exactcore
from wildfuncs.cantor import BitStream
from wildfuncs.exactcore import (
    CylinderPrefix,
    DigitExpansion,
    cylinder_for_interval,
    format_rational,
    fraction_value,
    from_expansion,
    parse_rational,
    to_expansion,
)
from wildfuncs.qspan import (
    AdditiveMap,
    Direction,
    ShiftClass,
    ShiftKind,
    SpanBasis,
    SpanElement,
    Symbol,
)
from wildfuncs.surds import QuadraticSurd


def _long_division(x, base):
    # dict-based long division of the fractional part: the first repeated
    # remainder opens the cycle
    seen, digits = {}, bytearray()
    r, den = x.numerator % x.denominator, x.denominator
    while r and r not in seen:
        seen[r] = len(digits)
        r *= base
        digits.append(r // den)
        r %= den
    cut = seen[r] if r else len(digits)
    return bytes(digits[:cut]), bytes(digits[cut:])


@pytest.fixture
def long_int_strings():
    # int(s, 3) refuses strings over 4300 digits unless the limit is lifted
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _plain_value(prefix, cycle, base):
    # the geometric series, with both digit blocks read by int(..., base)
    def read(digits):
        return int("".join(map(str, digits)) or "0", base)

    head, c, p, n = read(prefix), read(cycle), len(prefix), len(cycle)
    return F(head * (base**n - 1) + c, base**p * (base**n - 1))


class TestRationalArith:
    def test_inputs_stored_reduced(self):
        x = parse_rational("-2/4")
        assert (x.numerator, x.denominator) == (-1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    def test_parse_and_format(self):
        assert parse_rational("5/8") == F(5, 8)
        assert parse_rational("-3") == F(-3)
        assert format_rational(F(-7, 2)) == "-7/2"
        for bad in ("1.5", "a", "1/2/3", "1e3", "", "1e-999999999", "1e999999999", "+1", "1_0",
                    "1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_digit_bound(self):
        # 4300 digits per integer is CPython's default guard on int(str)
        n = "9" * 4300
        assert parse_rational(f"-{n}/{n}") == -1
        assert parse_rational(n) == F(n)
        for text in ("1" * 4301, f"1/{'0' * 4300}1"):
            with pytest.raises(ValueError, match="at most 4300 digits"):
                parse_rational(text)


class TestToExpansion:
    def test_third_base_two(self):
        # independent oracle: 0.(01) in base 2 is the geometric series
        # (0*2+1)/(2**2-1) = 1/3
        assert F(int("01", 2), 2**2 - 1) == F(1, 3)
        e = to_expansion(F(1, 3), 2)
        assert (e.prefix, e.cycle) == (b"", bytes([0, 1]))

    def test_226_243_base_three(self):
        # 226 = 2*81 + 2*27 + 1*9 + 0*3 + 1 over 3**5
        assert 2 * 81 + 2 * 27 + 1 * 9 + 0 * 3 + 1 == 226
        e = to_expansion(F(226, 243), 3)
        assert e.digit_str() == "0.22101"
        assert not e.cycle

    def test_five_eighths_base_two(self):
        e = to_expansion(F(5, 8), 2)
        assert e.digit_str() == "0.101"

    def test_canonical_excludes_top_cycle(self):
        # 1/3 in base 3 terminates; the 0.0(2) representation is banned
        e = to_expansion(F(1, 3), 3)
        assert e.digit_str() == "0.1"

    def test_sign_and_integer_part(self):
        e = to_expansion(F(-10, 4), 2)
        assert e.sign == -1
        assert e.digit_str() == "-10.1"
        assert to_expansion(F(0), 3).digit_str() == "0"

    def test_bad_base(self):
        with pytest.raises(ValueError):
            to_expansion(F(1, 2), 10)


class TestIntegerBoundaries:
    # to_expansion reads the numerator and denominator once and from_expansion
    # builds one Fraction; ints, signs, integer values and zero go through both

    @pytest.mark.parametrize("x", [0, 5, -7, 1, -1, 3**40, -(2**70), F(0), F(-12, 4), F(9, 3),
                                   F(-1, 3), F(-10, 4), F(7, 6)])
    def test_round_trip(self, x):
        for base in (2, 3):
            e = to_expansion(x, base)
            assert e.sign == (-1 if x < 0 else 1)
            back = from_expansion(e)
            assert type(back) is F and back == x
            assert e == to_expansion(F(x), base)

    def test_integer_values_have_no_fraction_digits(self):
        for x in (0, 4, -4, F(-12, 4), F(27, 1)):
            for base in (2, 3):
                e = to_expansion(x, base)
                assert e.prefix == e.cycle == b""
        assert to_expansion(-9, 3).digit_str() == "-100"
        assert to_expansion(F(-12, 4), 2).digit_str() == "-11"
        assert to_expansion(0, 2).digit_str() == "0"

    def test_negative_fractions_mirror_positive(self):
        rng = random.Random(13)
        for _ in range(300):
            x = F(rng.randint(1, 10**6), rng.randint(1, 10**4))
            for base in (2, 3):
                pos, neg = to_expansion(x, base), to_expansion(-x, base)
                assert (neg.sign, pos.sign) == (-1, 1)
                assert (neg.integer_digits, neg.prefix, neg.cycle) == (pos.integer_digits, pos.prefix, pos.cycle)
                assert from_expansion(neg) == -x

    def test_parts_stored_as_bytes(self):
        e = DigitExpansion(3, 1, bytearray(b"\x01"), bytearray(b"\x02"), bytearray(b"\x00\x01"))
        assert all(type(part) is bytes for part in (e.integer_digits, e.prefix, e.cycle))
        assert e == DigitExpansion(3, 1, b"\x01", b"\x02", b"\x00\x01")
        assert hash(e) == hash(DigitExpansion(3, 1, b"\x01", b"\x02", b"\x00\x01"))
        assert from_expansion(e) == 1 + F(2, 3) + F(1, 3 * 8)
        # parts already bytes are kept as they are, not copied
        cycle = bytes([0, 1])
        assert DigitExpansion(3, 1, b"", b"", cycle).cycle is cycle
        # every canonical-form check still runs on bytearray parts
        with pytest.raises(ValueError, match="not minimal"):
            DigitExpansion(2, 1, b"", b"", bytearray(b"\x00\x01\x00\x01"))
        with pytest.raises(ValueError, match="out of range"):
            DigitExpansion(2, 1, bytearray(b"\x02"), b"", b"")


class TestMultiplicativeOrder:
    # exact for every modulus: sympy's n_order factors, the search does not
    def test_every_small_modulus(self):
        n_order = pytest.importorskip("sympy.ntheory").n_order
        for b in (2, 3):
            for m in range(2, 20000):
                if gcd(b, m) == 1:
                    assert exactcore._multiplicative_order(b, m) == n_order(b, m), (b, m)

    def test_full_period_primes(self):
        # primes past the long-digits cycle targets with 2 and 3 both
        # primitive roots, so every order is p - 1, past several doublings
        sympy = pytest.importorskip("sympy")
        for target in (37_000, 120_000, 1_000_000):
            p, found = target, 0
            while found < 3:
                p = sympy.nextprime(p)
                orders = [exactcore._multiplicative_order(b, p) for b in (2, 3)]
                assert orders == [sympy.n_order(b, p) for b in (2, 3)], p
                found += orders == [p - 1, p - 1]

    def test_composite_and_prime_power_moduli(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        moduli = [5**7, 7**6, 11 * 13 * 17 * 19 * 23, 2**31 - 1, 10**9 + 7]
        moduli += [rng.randrange(10**5, 10**7) for _ in range(40)]
        for m in moduli:
            for b in (2, 3):
                if gcd(b, m) == 1:
                    assert exactcore._multiplicative_order(b, m) == sympy.n_order(b, m), (b, m)

    def test_wide_moduli_from_ternary_cycles(self):
        # a cycle of n ternary digits puts (3**n - 1) // g in the denominator;
        # the order of 3 there is the least divisor d of n with 3**d = 1,
        # which needs no factoring of the modulus
        sympy = pytest.importorskip("sympy")
        rng = random.Random(31)
        for n in list(range(1, 60)) + [rng.randint(60, 600) for _ in range(40)] + [600]:
            full = 3**n - 1
            g = gcd(full, rng.randrange(1, full + 1) if n > 1 else 1)
            m = full // g
            if m == 1:
                continue
            want = min(d for d in sympy.divisors(n) if pow(3, d, m) == 1)
            assert exactcore._multiplicative_order(3, m) == want, (n, g)


class TestFromExpansion:
    def test_cycle_geometric_series(self):
        e = DigitExpansion(2, 1, b"", b"", bytes([0, 1]))
        assert from_expansion(e) == F(1, 3)

    def test_terminating(self):
        e = DigitExpansion(3, 1, b"", bytes([1, 1, 2]), b"")
        assert from_expansion(e) == F(9 + 3 + 2, 27)

    def test_zero(self):
        assert from_expansion(DigitExpansion(3, 1, b"", b"", b"")) == 0

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):  # all-(base-1) cycle
            DigitExpansion(3, 1, b"", b"", bytes([2]))
        with pytest.raises(ValueError):  # all-zero cycle
            DigitExpansion(2, 1, b"", bytes([1]), bytes([0]))
        with pytest.raises(ValueError):  # non-minimal cycle
            DigitExpansion(2, 1, b"", b"", bytes([0, 1, 0, 1]))
        with pytest.raises(ValueError):  # cycle could start earlier
            DigitExpansion(2, 1, b"", bytes([1]), bytes([0, 1]))
        with pytest.raises(ValueError):  # trailing zero on terminating digits
            DigitExpansion(2, 1, b"", bytes([1, 0]), b"")
        with pytest.raises(ValueError):  # digit out of range
            DigitExpansion(2, 1, b"", bytes([2]), b"")
        with pytest.raises(ValueError):  # leading zero in integer digits
            DigitExpansion(2, 1, bytes([0, 1]), b"", b"")
        with pytest.raises(ValueError):  # negative zero
            DigitExpansion(2, -1, b"", b"", b"")

    def test_long_non_canonical_rejected(self):
        rng = random.Random(11)
        n = 2 * 3 * 5 * 7 * 11 * 13
        for base in (2, 3):
            for p in (2, 3, 5, 7, 11, 13):
                block = bytes(rng.randrange(base) for _ in range(n // p))
                DigitExpansion(base, 1, b"", b"", block)  # minimal on its own
                with pytest.raises(ValueError, match="not minimal"):
                    DigitExpansion(base, 1, b"", b"", block * p)
                # one changed digit in the last repeat leaves it minimal
                changed = bytearray(block * p)
                changed[-1] = (changed[-1] + 1) % base
                DigitExpansion(base, 1, b"", b"", bytes(changed))
            digits = bytearray(rng.randrange(base) for _ in range(n))
            digits[n - 7] = base  # one bad digit deep inside
            for parts in ((b"\x01", b"", bytes(digits)), (b"", bytes(digits), b""),
                          (b"", b"", bytes(digits))):
                with pytest.raises(ValueError, match="out of range"):
                    DigitExpansion(base, 1, *parts)
            with pytest.raises(ValueError, match="all-zero"):
                DigitExpansion(base, 1, b"", b"\x01", bytes(n))
            with pytest.raises(ValueError, match="excluded"):
                DigitExpansion(base, 1, b"", b"", bytes([base - 1]) * n)


class TestRoundTrip:
    def test_randomized_both_bases(self):
        rng = random.Random(2024)
        for _ in range(400):
            x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for base in (2, 3):
                assert from_expansion(to_expansion(x, base)) == x

    def test_matches_plain_long_division(self):
        # independent oracle: dict-based long division, first repeated
        # remainder opens the cycle
        rng = random.Random(99)
        for _ in range(300):
            x = F(rng.randint(0, 10**4), rng.randint(1, 10**4))
            base = rng.choice((2, 3))
            frac = x - int(x)
            seen, digits = {}, []
            r, den = frac.numerator, frac.denominator
            while r and r not in seen:
                seen[r] = len(digits)
                r *= base
                digits.append(r // den)
                r %= den
            if r:
                cut = seen[r]
                expected = (digits[:cut], digits[cut:])
            else:
                expected = (digits, [])
            e = to_expansion(x, base)
            assert (list(e.prefix), list(e.cycle)) == expected

    def test_long_cycles_match_plain_long_division(self):
        # the same oracle where cycles run to hundreds of thousands of
        # digits: base-coprime denominators in (10**4, 10**6], and a few
        # just above 10**6
        rng = random.Random(3)
        cases = [(int(10 ** rng.uniform(4, 6)), 2 + i % 2) for i in range(20)]
        cases += [(10**6 + rng.randint(1, 100), 2 + i % 2) for i in range(4)]
        cases.append((712301, 3))  # a full 712300-digit cycle
        for den, base in cases:
            while gcd(den, base) > 1:
                den += 1
            x = F(rng.randint(1, den - 1), den)
            e = to_expansion(x, base)
            assert (e.prefix, e.cycle) == _long_division(x, base)
            assert from_expansion(e) == x

    def test_large_powers_of_the_base(self):
        # 5 / base**k terminates after exactly k digits: the digits of 5,
        # left-padded with zeros
        for base, k, five in ((2, 200000, [1, 0, 1]), (3, 50000, [1, 2])):
            x = F(5, base**k)
            e = to_expansion(x, base)
            assert len(e.prefix) == k and e.cycle == b""
            assert e.prefix == bytes(k - len(five)) + bytes(five)
            assert from_expansion(e) == x

    def test_mixed_powers_of_the_base(self):
        # every power of the base up to 70 (no prefix for k = 0), times a
        # coprime part; numerators past that part leave a tail other than
        # the numerator itself
        for base in (2, 3):
            for k in range(71):
                for rest in (1, 7, 1001):
                    den = base**k * rest
                    for num in {1, den // 2 + 1, den - 1}:
                        x = F(num, den)
                        e = to_expansion(x, base)
                        assert (e.prefix, e.cycle) == _long_division(x, base)
                        if num < den and x.denominator == den:
                            assert exactcore._fraction_digits(num, den, base) == (e.prefix, e.cycle)


def _divide_by_digit(r, m, count, base=3):
    # one digit per divmod
    digits = bytearray()
    for _ in range(count):
        q, r = divmod(base * r, m)
        digits.append(q)
    return bytes(digits), r


class TestDivideLanes:
    def test_matches_one_digit_per_divmod(self):
        # counts around the lane cutoff and off multiples of 5 and of 5 *
        # lanes; bit lengths where the lane width steps, and around the cap
        rng = random.Random(21)
        low, cap = exactcore._LANE_MIN_COUNT, exactcore._LANE_MAX_BITS
        counts = (low - 1, low, low + 1, low + 3, 7777, 20003)
        for bits in sorted({15, 16, 23, 24, 63, 64, cap, cap + 1}):
            for m in (2 ** (bits - 1) + 1, 2**bits - 1, rng.randrange(2 ** (bits - 1), 2**bits)):
                for r in (0, 1, m - 1, rng.randrange(m)):
                    for count in counts:
                        got = exactcore._divide(r, m, 3, count)
                        assert got == _divide_by_digit(r, m, count), (bits, m, r, count)

    def test_lane_memory(self):
        # the result and the digit buffer it is copied from: about 2 bytes a
        # digit at the peak, as the ten-digit loop
        import tracemalloc

        count = 712300
        tracemalloc.start()
        try:
            digits, _ = exactcore._divide(12345, 712301, 3, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(digits) == count
        assert peak <= 2.5 * count, f"{peak / count:.2f} bytes per digit"


class TestDivideLoop:
    # runs the lanes do not take: ten digits per divmod, rendered as two
    # five-digit groups
    def test_every_short_count(self):
        # each count 1..2999 against a prefix of one 2999-digit oracle run,
        # the remainder after `count` digits being r * 3**count mod m
        rng = random.Random(31)
        low = exactcore._LANE_MIN_COUNT
        cases = [(2, 1), (2**33 - 9, rng.randrange(2**33 - 9)), (2**64 - 59, 2**64 - 60)]
        for m in (3**10 + 1, rng.randrange(2**40, 2**64)):
            cases += [(m, 1), (m, m - 1), (m, rng.randrange(m))]
        for i, (m, r) in enumerate(cases):
            want, _ = _divide_by_digit(r, m, low - 1)
            counts = range(1, low) if i < 3 else rng.sample(range(1, low), 300)
            for count in counts:
                got = exactcore._divide(r, m, 3, count)
                assert got == (want[:count], r * pow(3, count, m) % m), (m, r, count)

    def test_zero_digits(self):
        # no digits, no division: the remainder comes back as it went in
        rng = random.Random(33)
        for base in (2, 3):
            for m in (1, 2, 3, 7, 3**10 + 1, rng.randrange(2**40, 2**64), 2**80 + 3):
                for r in {0, m - 1, rng.randrange(m)}:
                    assert exactcore._divide(r, m, base, 0) == (b"", r)

    def test_wide_moduli(self):
        # counts at and past the lane cutoff, with m too wide for the lanes
        rng = random.Random(32)
        low = exactcore._LANE_MIN_COUNT
        for bits in (65, 66, 80, 128, 129, 200):
            for m in (2 ** (bits - 1) + 1, 2**bits - 1, rng.randrange(2 ** (bits - 1), 2**bits)):
                for r in (1, m - 1, rng.randrange(m)):
                    for count in (low, low + 1, low + 4, low + 9, 4567, 10001):
                        got = exactcore._divide(r, m, 3, count)
                        assert got == _divide_by_digit(r, m, count), (bits, m, r, count)


# where the cycle reader's blocks end: 10 digits, then 64, 4096 and 2**18 more
_BLOCK_ENDS = (10, 74, 4170, 266314)


def _block_sizes(stop):
    ends = [0] + [e for e in _BLOCK_ENDS if e < stop] + [stop]
    return [b - a for a, b in zip(ends, ends[1:])]


def _coprime_modulus(rng, bits, base):
    # a modulus of exactly `bits` bits with no factor of the base
    m = rng.randrange(2 ** (bits - 1), 2**bits - 1)
    return m if m % base else m + 1


class TestCycleReader:
    # the blocks, joined, against one digit per divmod and one _divide call,
    # with stops on each side of every block boundary

    def check(self, r, m, base, stop, want):
        reader = exactcore.CycleReader(r, m, base)
        blocks = []
        while reader.read < stop:
            blocks.append(reader.block(stop))
        assert [len(b) for b in blocks] == _block_sizes(stop), (m, r, stop)
        assert b"".join(blocks) == want[:stop], (base, m, r, stop)
        assert reader.read == stop and reader.r == r * pow(base, stop, m) % m
        assert exactcore._divide(r, m, base, stop) == (want[:stop], reader.r)

    def test_matches_one_digit_per_divmod(self):
        rng = random.Random(41)
        stops = [1] + [end + d for end in _BLOCK_ENDS[:3] for d in (-1, 0, 1)]
        for base in (2, 3):
            # 20 bits, the lanes' widest modulus, and moduli too wide for them
            for bits in (20, 64, 65, 100):
                m = _coprime_modulus(rng, bits, base)
                for r in (1, m - 1, rng.randrange(m)):
                    want, _ = _divide_by_digit(r, m, stops[-1], base)
                    for stop in stops:
                        self.check(r, m, base, stop, want)

    def test_lane_sized_blocks(self):
        # the 4096- and 2**18-digit blocks are divided in packed lanes for
        # moduli of at most 64 bits; stops around the end of the 2**18 block
        rng = random.Random(42)
        end = _BLOCK_ENDS[3]
        for bits in (20, 64, 65):
            m = _coprime_modulus(rng, bits, 3)
            r = rng.randrange(m)
            want, _ = _divide_by_digit(r, m, end + 1)
            for stop in (end - 1, end, end + 1):
                self.check(r, m, 3, stop, want)

    def test_first_block_then_stop(self):
        # an open-ended first block, then blocks up to a stop: the read goes
        # on from the remainder the first block left
        rng = random.Random(43)
        for m in (3**10 + 1, 2**20 + 7, 2**64 - 59, 2**90 + 1):
            r = rng.randrange(m)
            want, _ = _divide_by_digit(r, m, 5000)
            for stop in (3, 10, 11, 74, 75, 4171, 5000):
                reader = exactcore.CycleReader(r, m, 3)
                read = reader.block()
                while reader.read < stop:
                    read += reader.block(stop)
                assert read == want[: max(stop, _BLOCK_ENDS[0])], (m, r, stop)
                assert reader.r == r * pow(3, len(read), m) % m


def _ternary_loop(n):
    # one base-3 digit per divmod
    digits = bytearray()
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    return bytes(reversed(digits))


class TestIntToDigits:
    def test_sizes_around_the_split(self):
        # digit counts on both sides of each halving, with runs of zeros
        # that the low halves must keep
        rng = random.Random(11)
        t = exactcore._SPLIT_DIGITS
        for w in [1, 2, t - 1, t, t + 1, 2 * t, 2 * t + 1, 4 * t + 3, 3000]:
            for n in (3 ** (w - 1), 3**w - 1, rng.randrange(3 ** (w - 1), 3**w),
                      3 ** (w - 1) + rng.randrange(3 ** (w // 3))):
                d = exactcore._int_to_digits(n, 3)
                assert d == _ternary_loop(n)
                assert exactcore._int_from_digits(d, 3) == n
                assert exactcore._int_to_digits(n, 3, w + 5) == bytes(5) + d
        assert exactcore._int_to_digits(0, 3) == b""

    def test_around_powers_of_three(self):
        # every digit count up to past the second halving, each power of 3
        # with its neighbours; from k = 318 to 322 the split's first call
        # goes from one chunked run to two halves
        t = exactcore._SPLIT_DIGITS
        for k in range(2 * t + 12):
            for n in (3**k - 1, 3**k, 3**k + 1, 2 * 3**k, 2 * 3**k + 1):
                if n:
                    assert exactcore._int_to_digits(n, 3) == _ternary_loop(n), k

    def test_long_integer_in_subquadratic_time(self):
        # 10**5 digits: the one-divmod-per-chunk loop takes about 0.22 s on a
        # 2-CPU Xeon
        n = random.Random(12).randrange(3**99999, 3**100000)
        best = float("inf")
        for _ in range(2):
            start = time.process_time()
            d = exactcore._int_to_digits(n, 3)
            best = min(best, time.process_time() - start)
        assert len(d) == 100000 and exactcore._int_from_digits(d, 3) == n
        assert best < 0.12, f"{best:.3f}s"


class TestFractionValue:
    def test_plain_value(self):
        assert fraction_value(bytes([1, 0, 1]), b"", 2) == F(5, 8)
        assert fraction_value(b"", bytes([0, 1]), 2) == F(1, 3)
        assert fraction_value(bytes([2]), bytes([1]), 3) == F(2, 3) + F(1, 6)

    def test_long_cycles_match_plain_value(self, long_int_strings):
        # long cycles are first read as a small-denominator value and
        # checked; whatever the digits, the result is the geometric series
        rng = random.Random(8)
        cases = []
        for base in (2, 3):
            top = bytes([base - 1])
            canonical = to_expansion(F(rng.randint(1, 99990), 99991), base).cycle
            random_digits = bytes(rng.randrange(base) for _ in range(9000))
            # a prefix that leaves the cycle's value after its leading digits
            late_change = bytearray(canonical[:200])
            late_change[170] = (late_change[170] + 1) % base
            cases += [
                (base, b"", canonical),
                (base, bytes([1, 0, 0]), canonical),
                (base, bytes(rng.randrange(base) for _ in range(30)), random_digits),
                (base, b"", random_digits + top),
                (base, b"", top * 9000),  # all-top cycle: the value is 1
                (base, bytes([1]), top * 9000),
                (base, b"", canonical * 2),  # repeated cycle
                (base, b"", canonical[:9000]),  # cut short: not periodic there
                (base, canonical[-1:], canonical),  # cycle could start earlier
                (base, bytes(200), canonical),
                (base, bytes(late_change), canonical[200:] + canonical[:200]),
            ]
        # base-2 digits read in base 3, as the Cantor codec does
        cases.append((3, bytes([1]), to_expansion(F(1, 99991), 2).cycle))
        for base, prefix, cycle in cases:
            assert len(cycle) > exactcore._DECODE_MIN_CYCLE
            assert fraction_value(prefix, cycle, base) == _plain_value(prefix, cycle, base)


class TestCylinder:
    @staticmethod
    def _oracle(l, r, base, max_depth=8):
        # brute force: scan depths and left endpoints for the first closed
        # cylinder strictly inside (l, r)
        for depth in range(max_depth + 1):
            scale = base**depth
            m = (l.numerator * scale) // l.denominator - 1
            while F(m, scale) <= r:
                if F(m, scale) > l and F(m + 1, scale) < r:
                    return depth, F(m, scale)
                m += 1
        raise AssertionError("oracle depth exhausted")

    def test_narrow_window_base_three(self):
        assert self._oracle(F(1, 2), F(2, 3), 3) == (3, F(14, 27))
        cyl = cylinder_for_interval(F(1, 2), F(2, 3), 3)
        assert (cyl.depth, cyl.value) == (3, F(14, 27))

    def test_unit_window_base_three(self):
        assert self._oracle(F(0), F(1), 3) == (1, F(1, 3))
        cyl = cylinder_for_interval(F(0), F(1), 3)
        assert (cyl.depth, cyl.value) == (1, F(1, 3))

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            cylinder_for_interval(F(1, 3), F(1, 3), 2)

    def test_randomized_against_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            l = F(rng.randint(-40, 40), rng.randint(1, 12))
            r = l + F(rng.randint(1, 30), rng.randint(1, 12))
            base = rng.choice((2, 3))
            cyl = cylinder_for_interval(l, r, base)
            assert (cyl.depth, cyl.value) == self._oracle(l, r, base, 12)
            assert cyl.value > l and cyl.right() < r

    def test_negative_window_digits(self):
        cyl = cylinder_for_interval(F(-2, 3), F(-1, 2), 3)
        assert cyl.value > F(-2, 3) and cyl.right() < F(-1, 2)
        # the value is a prefix of `depth` digits: its expansion terminates there
        e = to_expansion(cyl.value, 3)
        assert not e.cycle and len(e.prefix) <= cyl.depth


_BASIS = SpanBasis.from_strings(["1", "sqrt:2"])

# per frozen value class: its field names in order, and the field values of
# two instances that differ in one field
RECORDS = {
    "DigitExpansion": (
        DigitExpansion, ("base", "sign", "integer_digits", "prefix", "cycle"),
        (3, -1, b"", b"\x01", b"\x02\x00"), (3, 1, b"", b"\x01", b"\x02\x00"),
    ),
    "CylinderPrefix": (CylinderPrefix, ("base", "depth", "value"), (3, 3, F(10, 27)), (3, 4, F(10, 27))),
    "QuadraticSurd": (QuadraticSurd, ("an", "bn", "den"), (1, 2, 3), (1, 3, 2)),
    "BitStream": (BitStream, ("prefix", "cycle"), (b"\x01\x00", b"\x01"), (b"\x01", b"\x01")),
    "ShiftClass": (
        ShiftClass, ("kind", "increment", "direction"),
        (ShiftKind.QUASIPERIOD, QuadraticSurd(1, 0), Direction.INCREASING),
        (ShiftKind.QUASIPERIOD, QuadraticSurd(1, 0), Direction.DECREASING),
    ),
    "Symbol": (Symbol, ("kind", "radicand", "name"), ("sqrt", 2, ""), ("sqrt", 3, "")),
    "SpanBasis": (SpanBasis, ("symbols",), (_BASIS.symbols,), ((Symbol("one"), Symbol("sqrt", 3)),)),
    "SpanElement": (SpanElement, ("basis", "nums", "den"), (_BASIS, (1, 2), 3), (_BASIS, (1, 3), 2)),
    "AdditiveMap": (
        AdditiveMap, ("basis", "nums", "den"),
        (_BASIS, ((1, 0), (0, 0)), 2), (_BASIS, ((1, 0), (0, 1)), 2),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_fields_are_frozen(self, name):
        cls, fields, values, other = RECORDS[name]
        x = cls(*values)
        for field, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(x, field, value)
            with pytest.raises(AttributeError):
                delattr(x, field)
            assert getattr(x, field) == value

    def test_equality_and_hash_follow_fields(self, name):
        cls, fields, values, other = RECORDS[name]
        x, y, z = cls(*values), cls(*values), cls(*other)
        assert x is not y and x == y and not x != y and hash(x) == hash(y)
        assert hash(x) == hash(values)
        assert x != z and hash(z) == hash(other)
        assert x != values  # another class compares unequal, even with the same fields

    def test_copy_and_pickle_round_trip(self, name):
        cls, fields, values, other = RECORDS[name]
        x = cls(*values)
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is cls and c == x
            assert tuple(getattr(c, field) for field in fields) == values

    def test_keyword_construction(self, name):
        cls, fields, values, other = RECORDS[name]
        assert cls(**dict(zip(fields, values))) == cls(*values)


class TestRecordRepr:
    def test_pinned_forms(self):
        # the `Name(field=value, ...)` form that `verify` failure reports print
        assert repr(QuadraticSurd(1, 2)) == "QuadraticSurd(an=1, bn=2, den=1)"
        assert repr(to_expansion(F(-7, 12), 3)) == (
            "DigitExpansion(base=3, sign=-1, integer_digits=b'', prefix=b'\\x01', cycle=b'\\x02\\x00')"
        )
        assert repr(to_expansion(F(22, 7), 2)) == (
            "DigitExpansion(base=2, sign=1, integer_digits=b'\\x01\\x01', prefix=b'', cycle=b'\\x00\\x00\\x01')"
        )

    def test_keyword_default(self):
        assert Symbol("sqrt", radicand=2) == Symbol("sqrt", 2, "")
        assert Symbol("one") == Symbol(kind="one", radicand=0, name="")
