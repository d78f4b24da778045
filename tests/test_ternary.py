import random
import time
from fractions import Fraction as F

import pytest

from wildfuncs import ternary
from wildfuncs.exactcore import (
    DigitExpansion,
    _int_to_digits,
    fraction_value,
    from_expansion,
    to_expansion,
)

import test_exactcore


def full_rule(x: F, signed: bool = False) -> F:
    """h (or hs) read off the whole canonical expansion of frac(x)."""
    e = to_expansion(x - x.numerator // x.denominator, 3)
    if 2 in e.cycle or e.prefix.count(2) < 2:
        return F(0)
    j = e.prefix.rfind(2)
    i = e.prefix.rfind(2, 0, j)
    block = "".join(map(str, e.prefix[i + 1 : j]))
    frac = fraction_value(e.prefix[j + 1 :], e.cycle, 2)
    if not signed:
        return int(block or "0", 2) + frac
    if not block:
        return frac
    magnitude = int(block[1:] or "0", 2) + frac
    return magnitude if block[0] == "1" else -magnitude


def digits(rng, n: int, alphabet: str) -> bytes:
    return bytes(int(rng.choice(alphabet)) for _ in range(n))


class TestEvaluate:
    def test_adjacent_twos_fraction_only(self):
        # 226/243 = 0.22101 in base 3: empty block, tail 101 -> 0.101 binary
        assert ternary.evaluate(F(226, 243)) == F(5, 8)

    def test_block_carries_integer_part(self):
        # 70/81 = 0.2121: block "1", tail "1" -> 1.1 in binary
        assert to_expansion(F(70, 81), 3).digit_str() == "0.2121"
        assert ternary.evaluate(F(70, 81)) == F(3, 2)

    def test_no_twos_gives_zero(self):
        assert ternary.evaluate(F(1, 3)) == 0

    def test_single_two_gives_zero(self):
        assert ternary.evaluate(F(2, 3)) == 0  # 0.2

    def test_infinitely_many_twos_gives_zero(self):
        assert to_expansion(F(1, 4), 3).digit_str() == "0.(02)"
        assert ternary.evaluate(F(1, 4)) == 0

    def test_repeating_tail(self):
        # 0.22(01) in base 3: tail value 0.(01) binary = 1/3
        x = from_expansion(DigitExpansion(3, 1, b"", bytes([2, 2]), bytes([0, 1])))
        assert ternary.evaluate(x) == F(1, 3)

    def test_negative_argument_uses_fractional_part(self):
        x = F(226, 243)
        assert ternary.evaluate(x - 1) == ternary.evaluate(x)


class TestCycleLead:
    """The lead check agrees with the full rule, decided or not."""

    @pytest.fixture(autouse=True)
    def count_expansions(self, monkeypatch):
        self.expansions = 0

        def counted(x, base):
            self.expansions += 1
            return to_expansion(x, base)

        monkeypatch.setattr(ternary, "to_expansion", counted)

    def check(self, x: F) -> bool:
        """True when the lead decided x: neither map built its expansion.
        The audit reads both values off the expansion it builds."""
        before = self.expansions
        assert ternary.evaluate(x) == full_rule(x), x
        assert ternary.evaluate_signed(x) == full_rule(x, True), x
        decided = self.expansions == before
        audit = ternary.digit_audit(x)
        assert (audit["value"], audit["value_signed"]) == (str(full_rule(x)), str(full_rule(x, True))), x
        return decided

    def test_criterion_1_style_rationals(self):
        rng = random.Random(61)
        decided = 0
        for _ in range(2000):
            num = rng.randint(0, int(10 ** (rng.random() * 6)))
            den = rng.randint(1, int(10 ** (rng.random() * 6)))
            decided += self.check(F(num if rng.random() < 0.5 else -num, den))
        assert decided > 1000  # the lead path, not only the fallback, ran

    def test_small_tails_at_the_zero_skip_bound(self):
        # r/m with r small against m, whose digits start with a run of zeros
        # as long as the bit lengths allow; 3**k prefixes in front of some
        for m in range(2, 3000):
            if m % 3:
                for r in (1, 2, m - 1):
                    self.check(F(r, m))
                self.check(F(1, 27 * m))

    def test_zero_one_cycles_fall_back(self):
        rng = random.Random(62)
        for _ in range(300):
            prefix = digits(rng, rng.randint(0, 12), "012")
            cycle = digits(rng, rng.randint(1, 90), "01")
            x = fraction_value(prefix, cycle, 3) + rng.randint(-3, 3)
            assert not self.check(x)

    def test_late_first_two(self):
        # the first 2 of the cycle comes after more than 64 other digits; a
        # prefix ending in 2 would rotate that 2 to the front of the cycle
        rng = random.Random(63)
        for _ in range(200):
            prefix = digits(rng, rng.randint(0, 8), "012").rstrip(b"\x02")
            zeros = bytes(rng.choice((0, 0, 20, 80)))
            cycle = zeros + b"\x01" + digits(rng, rng.randint(64, 120), "01")
            cycle += b"\x02"
            x = fraction_value(prefix, cycle, 3) - rng.randint(0, 2)
            assert not self.check(x)
            assert full_rule(x) == 0

    def test_terminating(self):
        rng = random.Random(64)
        for _ in range(300):
            n = rng.randint(0, 12)
            assert not self.check(F(rng.randint(-(3**n) * 5, 3**n * 5), 3**n))

    def test_preimage_outputs(self):
        rng = random.Random(65)
        for _ in range(200):
            signed = rng.random() < 0.5
            y = F(rng.randint(-300 if signed else 0, 300), rng.randint(1, 50))
            l = F(rng.randint(-90, 90), rng.randint(1, 20))
            x = ternary.preimage(y, l, l + F(1, rng.randint(1, 40)), signed)
            assert not self.check(x)


class TestRunawayInputs:
    """Long cycles with an early 2 are decided without being built."""

    @pytest.mark.parametrize(
        "x",
        [F(1, 100000037), F(1, 1000000007), F(1, 10**40 + 7), F(-5, 10**60 + 3)],
        ids=["1/100000037", "1/1000000007", "1/(10**40+7)", "-5/(10**60+3)"],
    )
    @pytest.mark.parametrize("fn", [ternary.evaluate, ternary.evaluate_signed])
    def test_decided_in_under_a_second(self, fn, x):
        start = time.perf_counter()
        assert fn(x) == 0
        assert time.perf_counter() - start < 1.0


class TestEvaluateSigned:
    def test_positive_flag(self):
        assert ternary.evaluate_signed(F(70, 81)) == F(1, 2)

    def test_negative_flag(self):
        assert to_expansion(F(61, 81), 3).digit_str() == "0.2021"
        assert ternary.evaluate_signed(F(61, 81)) == F(-1, 2)

    def test_empty_block_stays_positive(self):
        assert ternary.evaluate_signed(F(226, 243)) == F(5, 8)

    def test_zero_cases_match_unsigned(self):
        for x in (F(1, 3), F(1, 4), F(0)):
            assert ternary.evaluate_signed(x) == 0


class TestPeriodicity:
    def test_shift_pairs(self):
        assert ternary.shift_pair(F(226, 243), 1) == (F(5, 8), F(5, 8))
        assert ternary.shift_pair(F(226, 243), -3) == (F(5, 8), F(5, 8))
        assert ternary.shift_pair(F(0), 5) == (F(0), F(0))
        # a whole-number Fraction shifts like the int it equals
        assert ternary.shift_pair(F(226, 243), F(2)) == (F(5, 8), F(5, 8))

    def test_randomized(self):
        rng = random.Random(51)
        for _ in range(300):
            x = F(rng.randint(-3000, 3000), rng.randint(1, 500))
            k = rng.randint(-4, 4)
            a, b = ternary.shift_pair(x, k)
            assert a == b


class TestPreimage:
    def test_golden_five_eighths(self):
        x = ternary.preimage(F(5, 8), F(1, 2), F(2, 3))
        assert x == F(3628, 6561)
        assert to_expansion(x, 3).digit_str() == "0.11222101"
        assert ternary.evaluate(x) == F(5, 8)
        assert F(1, 2) < x < F(2, 3)

    def test_golden_three_halves(self):
        x = ternary.preimage(F(3, 2), F(0), F(1))
        assert x == F(151, 243)
        assert to_expansion(x, 3).digit_str() == "0.12121"

    def test_golden_zero_target(self):
        x = ternary.preimage(F(0), F(0), F(1))
        assert x == F(17, 27)
        assert to_expansion(x, 3).digit_str() == "0.122"
        assert ternary.evaluate(x) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            ternary.preimage(F(1), F(1, 3), F(1, 3))
        with pytest.raises(ValueError):
            ternary.preimage(F(-1), F(0), F(1))

    def test_signed_negative_round_trip(self):
        x = ternary.preimage(F(-9, 4), F(5), F(6), signed=True)
        assert 5 < x < 6
        assert ternary.evaluate_signed(x) == F(-9, 4)

    def test_randomized_round_trip(self):
        rng = random.Random(52)
        for _ in range(200):
            signed = rng.random() < 0.5
            y = F(rng.randint(-400, 400), rng.randint(1, 64))
            if not signed:
                y = abs(y)
            l = F(rng.randint(-900, 900), rng.randint(1, 30))
            r = l + F(rng.randint(1, 60), rng.randint(1, 30))
            x = ternary.preimage(y, l, r, signed=signed)
            assert l < x < r
            value = ternary.evaluate_signed(x) if signed else ternary.evaluate(x)
            assert value == y

    def test_rationality_preserved(self):
        # evaluation of rationals lands on rationals by construction
        assert isinstance(ternary.evaluate(F(70, 81)), F)

    def test_matches_split_rule(self):
        # the rule as once written: the integer bits of |y| rendered alone,
        # then the binary expansion of its fractional part, read in base 3
        # behind the cylinder found by TestCylinder's brute-force oracle
        rng = random.Random(103)
        for _ in range(500):
            signed = rng.random() < 0.5
            y = F(rng.randint(-10**5, 10**5), rng.randint(1, 3000))
            if not signed:
                y = abs(y)
            l = F(rng.randint(-900, 900), rng.randint(1, 30))
            r = l + F(rng.randint(1, 60), rng.randint(1, 300))
            depth, value = test_exactcore.TestCylinder._oracle(l, r, 3, 12)
            mag = abs(y)
            ipart = mag.numerator // mag.denominator
            block = _int_to_digits(ipart, 2)
            if signed:
                block = bytes([0 if y < 0 else 1]) + block
            frac = to_expansion(mag - ipart, 2)
            tail = fraction_value(b"\x02" + block + b"\x02" + frac.prefix, frac.cycle, 3)
            want = value + tail / 3**depth
            assert ternary.preimage(y, l, r, signed=signed) == want, (y, l, r)


class TestAudit:
    def test_positions_and_blocks(self):
        audit = ternary.digit_audit(F(70, 81))
        assert audit["expansion"] == "0.2121"
        assert audit["two_positions"] == (0, 2)
        assert audit["block_digits"] == "1"
        assert audit["tail_digits"] == "1"
        assert audit["value"] == "3/2"
        assert audit["value_signed"] == "1/2"

    def test_zero_case(self):
        audit = ternary.digit_audit(F(1, 3))
        assert audit["two_positions"] is None
        assert audit["value"] == "0"

    def test_one_expansion_per_audit(self, monkeypatch):
        # both values are read off the expansion the audit shows; they
        # agree with evaluate, which takes the lead check first
        calls = []
        expand = ternary.to_expansion

        def counted(*args):
            calls.append(args)
            return expand(*args)

        points = [F(226, 243), F(70, 81), F(1, 3), F(5, 7), F(-13, 9), F(2, 27), F(1, 1000)]
        points.append(ternary.preimage(F(22, 7), F(-1), F(1, 3), signed=True))
        monkeypatch.setattr(ternary, "to_expansion", counted)
        for x in points:
            calls.clear()
            audit = ternary.digit_audit(x)
            assert len(calls) == 1, x
            assert audit["value"] == str(ternary.evaluate(x))
            assert audit["value_signed"] == str(ternary.evaluate_signed(x))
