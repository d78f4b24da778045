import copy
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test-only oracle: without it, only TestIntegerRepresentation is left out
    st = None

from wildfuncs.qspan import Symbol
from wildfuncs.surds import (
    EQUAL,
    GREATER,
    LESS,
    QuadraticSurd,
    _int_sign,
    format_surd,
    parse_surd,
    surd_compare,
    surd_floor,
    surd_sign,
)


def rand_surd(rng, bound=50, den=20):
    return QuadraticSurd(
        F(rng.randint(-bound, bound), rng.randint(1, den)),
        F(rng.randint(-bound, bound), rng.randint(1, den)),
    )


class TestCompare:
    def test_mixed_sign_examples(self):
        # 3 - 2*sqrt(2) > 0 because 3**2 = 9 > 8 = 2*2**2
        assert surd_compare(QuadraticSurd(3, -2), QuadraticSurd(0, 0)) == GREATER
        assert surd_compare(QuadraticSurd(-3, 2), QuadraticSurd(0, 0)) == LESS

    def test_one_below_root_two(self):
        assert surd_compare(QuadraticSurd(1, 0), QuadraticSurd(0, 1)) == LESS

    def test_equal(self):
        assert surd_compare(QuadraticSurd(F(1, 2), 3), QuadraticSurd(F(1, 2), 3)) == EQUAL

    def test_antisymmetry_randomized(self):
        rng = random.Random(11)
        for _ in range(500):
            u, v = rand_surd(rng), rand_surd(rng)
            assert surd_compare(u, v) == -surd_compare(v, u)

    def test_consistent_with_rational_order(self):
        rng = random.Random(12)
        for _ in range(300):
            a = F(rng.randint(-99, 99), rng.randint(1, 30))
            b = F(rng.randint(-99, 99), rng.randint(1, 30))
            expected = (a > b) - (a < b)
            assert surd_compare(QuadraticSurd(a, 0), QuadraticSurd(b, 0)) == expected

    def test_sign_agrees_with_float_sanity(self):
        rng = random.Random(13)
        root = 2**0.5
        for _ in range(300):
            u = rand_surd(rng)
            approx = float(u.a) + float(u.b) * root
            if abs(approx) > 1e-6:
                assert surd_sign(u) == (1 if approx > 0 else -1)


def fraction_sign(a, b):
    """Sign of a + b*sqrt(2) by the a*a against 2*b*b rule on Fraction
    parts, as surd_sign decided it before it moved to integers."""
    a, b = F(a), F(b)
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > 2 * b * b else sb


def fraction_compare(u, v):
    """surd_compare as it was: the sign of the Fraction difference."""
    return fraction_sign(u.a - v.a, u.b - v.b)


def convergents(max_digits):
    # a/b -> sqrt(2) with a*a - 2*b*b = -1, +1, -1, ...: a - b*sqrt(2) is
    # within 1/(2*b) of zero and alternates in sign
    a, b = 1, 1
    while len(str(a)) <= max_digits:
        yield a, b
        a, b = a + 2 * b, a + b


def sign_pairs(rng, count, digits=50):
    """Integer pairs: zeros, tight convergents with both signs, and random
    values of up to `digits` digits."""
    pairs = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    for a, b in convergents(digits):
        pairs += [(a, -b), (-a, b), (a, b), (-a, -b)]
    for _ in range(count):
        size = 10 ** rng.randint(0, digits)
        a, b = rng.randint(-size, size), rng.randint(-size, size)
        pairs += [(a, b), (0, b), (a, 0)]
    return pairs


def rand_big_surd(rng, digits=50):
    size = 10 ** rng.randint(0, digits)
    parts = [F(rng.randint(-size, size), rng.randint(1, size)) for _ in range(2)]
    for i in range(2):
        if rng.random() < 0.2:
            parts[i] = F(0)
    return QuadraticSurd(*parts)


class TestIntegerSignOracle:
    def test_int_sign(self):
        rng = random.Random(14)
        for a, b in sign_pairs(rng, 400):
            assert _int_sign(a, b) == fraction_sign(a, b), (a, b)

    def test_surd_sign(self):
        rng = random.Random(15)
        for a, b in sign_pairs(rng, 200):
            # scaled by k/d > 0, so tight pairs stay tight; reduced, the two
            # parts no longer share a denominator
            k, d = rng.randint(1, 10**30), rng.randint(1, 10**30)
            u = QuadraticSurd(F(a * k, d), F(b * k, d))
            assert surd_sign(u) == fraction_sign(u.a, u.b) == _int_sign(a, b), (a, b)
        for _ in range(500):
            u = rand_big_surd(rng)
            assert surd_sign(u) == fraction_sign(u.a, u.b), u

    def test_surd_compare(self):
        rng = random.Random(16)
        for _ in range(500):
            u, v = rand_big_surd(rng), rand_big_surd(rng)
            assert surd_compare(u, v) == fraction_compare(u, v), (u, v)
            assert surd_compare(u, u) == EQUAL
            assert surd_compare(u, QuadraticSurd(F(u.a), F(u.b))) == EQUAL
            # equal rational or radical parts, and differences next to zero
            assert surd_compare(u, QuadraticSurd(u.a, v.b)) == fraction_compare(u, QuadraticSurd(u.a, v.b))
            assert surd_compare(u, QuadraticSurd(v.a, u.b)) == fraction_compare(u, QuadraticSurd(v.a, u.b))
        for a, b in convergents(50):
            d = F(rng.randint(1, 10**20), rng.randint(1, 10**20))
            u = rand_big_surd(rng)
            for tight in (QuadraticSurd(u.a + a * d, u.b - b * d), QuadraticSurd(u.a - a * d, u.b + b * d)):
                assert surd_compare(u, tight) == fraction_compare(u, tight), (u, tight)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        root = sympy.sqrt(2)

        def sym(u):
            return sympy.Rational(u.a.numerator, u.a.denominator) + sympy.Rational(
                u.b.numerator, u.b.denominator) * root

        rng = random.Random(17)
        for a, b in sign_pairs(rng, 60):
            assert _int_sign(a, b) == sympy.sign(a + b * root), (a, b)
        for _ in range(150):
            u, v = rand_big_surd(rng), rand_big_surd(rng)
            assert surd_sign(u) == sympy.sign(sym(u))
            assert surd_floor(u) == sympy.floor(sym(u))
            assert surd_compare(u, v) == sympy.sign(sym(u) - sym(v))


class TestArith:
    def test_add_cancels(self):
        assert QuadraticSurd(1, 1) + QuadraticSurd(1, -1) == QuadraticSurd(2, 0)

    def test_root_two_squared(self):
        assert QuadraticSurd(0, 1) * QuadraticSurd(0, 1) == QuadraticSurd(2, 0)

    def test_conjugate_product(self):
        assert QuadraticSurd(1, 1) * QuadraticSurd(1, -1) == QuadraticSurd(-1, 0)

    def test_unknown_op(self):
        # the field operations are +, - and *; there is no division
        with pytest.raises(TypeError):
            QuadraticSurd(1, 0) / QuadraticSurd(1, 0)


def check_canonical(u, a, b):
    """u holds integer numerators over one positive denominator with gcd 1,
    zero as 0, 0 over 1, and reads back as the Fraction pair (a, b)."""
    assert type(u.an) is int and type(u.bn) is int and type(u.den) is int
    assert u.den > 0 and math.gcd(u.an, u.bn, u.den) == 1
    if a == 0 and b == 0:
        assert (u.an, u.bn, u.den) == (0, 0, 1) and u.is_zero
    assert (u.a, u.b) == (a, b) and type(u.a) is F and type(u.b) is F


def round_trips(u):
    return [copy.copy(u), copy.deepcopy(u)] + [
        pickle.loads(pickle.dumps(u, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


if st is not None:
    # each component as an int, a Fraction or a literal string, zero often
    fraction_values = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**6)) | st.just(F(0))
    inputs = st.integers(-(10**6), 10**6) | fraction_values | fraction_values.map(str)
    props = settings(derandomize=True, max_examples=200, deadline=None)

    class TestIntegerRepresentation:
        """QuadraticSurd holds integer numerators over one denominator; each
        operation is checked against the Fraction pair (a, b)."""

        @props
        @given(inputs, inputs)
        def test_construction(self, a, b):
            u = QuadraticSurd(a, b)
            check_canonical(u, F(a), F(b))
            # the integer form, given canonical or scaled by any nonzero k
            assert QuadraticSurd(u.an, u.bn, u.den) == u
            for k in (-1, 2, -6, 10**20):
                v = QuadraticSurd(k * u.an, k * u.bn, k * u.den)
                check_canonical(v, F(a), F(b))
                assert v == u and hash(v) == hash(u) and (v.an, v.bn, v.den) == (u.an, u.bn, u.den)
            with pytest.raises(ZeroDivisionError):
                QuadraticSurd(u.an, u.bn, 0)

        @props
        @given(inputs, inputs, inputs, inputs)
        def test_arithmetic(self, a, b, c, d):
            u, v = QuadraticSurd(a, b), QuadraticSurd(c, d)
            a, b, c, d = F(a), F(b), F(c), F(d)
            check_canonical(u + v, a + c, b + d)
            check_canonical(u - v, a - c, b - d)
            check_canonical(u - u, F(0), F(0))
            check_canonical(-u, -a, -b)
            check_canonical(u * v, a * c + 2 * b * d, a * d + b * c)
            check_canonical(u * QuadraticSurd(0, 0), F(0), F(0))

        @props
        @given(inputs, inputs, inputs, inputs)
        def test_equality_and_hash_follow_components(self, a, b, c, d):
            u, v = QuadraticSurd(a, b), QuadraticSurd(c, d)
            assert (u == v) == ((u.a, u.b) == (v.a, v.b)) == ((F(a), F(b)) == (F(c), F(d)))
            # the same components from strings, from Fractions and as integers over den
            for same in (QuadraticSurd(str(u.a), str(u.b)), QuadraticSurd(F(a), F(b)),
                         QuadraticSurd(u.an * 3, u.bn * 3, u.den * 3)):
                assert same == u and hash(same) == hash(u) and (same.a, same.b) == (u.a, u.b)

        @props
        @given(inputs, inputs)
        def test_copy_and_pickle(self, a, b):
            u = QuadraticSurd(a, b)
            for c in round_trips(u):
                assert type(c) is QuadraticSurd and c == u and hash(c) == hash(u)
                assert (c.an, c.bn, c.den, c.a, c.b) == (u.an, u.bn, u.den, u.a, u.b)


class TestFloatRefusal:
    """A float carries binary rounding into an exact answer (QuadraticSurd(0.1, 0)
    would be 3602879701896397/36028797018963968), so the constructor refuses
    one in either form, as SpanElement does."""

    def test_floats_raise(self):
        for args in ((0.1, 0), (F(1), 2.5), (1, 2, 2.0), (0.5, 2, 2), (1, 2, -2.0)):
            with pytest.raises(TypeError):
                QuadraticSurd(*args)

    def test_integer_form_checks(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticSurd(1, 2, 0)
        with pytest.raises(TypeError):
            QuadraticSurd(F(1, 2), 1, 3)
        assert (QuadraticSurd(0, 0, -7).an, QuadraticSurd(0, 0, -7).den) == (0, 1)
        assert QuadraticSurd(6, -4, -10) == QuadraticSurd(F(-3, 5), F(2, 5))

    def test_surds_import_no_qspan(self):
        # the float check is exactcore's, shared with qspan: surds stays below qspan
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, wildfuncs.surds; print(sorted(m for m in sys.modules if m.startswith('wildfuncs.')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "['wildfuncs.exactcore', 'wildfuncs.surds']\n"


class TestFloor:
    def test_randomized_against_compare(self):
        rng = random.Random(21)
        for _ in range(400):
            u = rand_surd(rng, 200, 40)
            n = surd_floor(u)
            assert surd_compare(QuadraticSurd(n, 0), u) in (LESS, EQUAL)
            assert surd_compare(QuadraticSurd(n + 1, 0), u) == GREATER

    def test_exact_integers(self):
        assert surd_floor(QuadraticSurd(5, 0)) == 5
        assert surd_floor(QuadraticSurd(-5, 0)) == -5
        assert surd_floor(QuadraticSurd(0, 1)) == 1
        assert surd_floor(QuadraticSurd(0, -1)) == -2


class TestEnclosure:
    def test_brackets_root_two(self):
        for bits in (4, 16, 64):
            lo, hi = Symbol("sqrt", radicand=2).enclosure(bits)
            assert lo * lo <= 2 < hi * hi
            assert hi - lo == F(1, 2**bits)


class TestLiterals:
    def test_parse_full_form(self):
        assert parse_surd("-1+1*s2") == QuadraticSurd(-1, 1)
        assert parse_surd("11/2+-7/2*s2") == QuadraticSurd(F(11, 2), F(-7, 2))

    def test_parse_bare_rational(self):
        assert parse_surd("3/4") == QuadraticSurd(F(3, 4), 0)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(100):
            u = rand_surd(rng)
            assert parse_surd(format_surd(u)) == u

    def test_reject_garbage(self):
        for bad in ("s2", "1+1", "1+1*s3", "one+two*s2"):
            with pytest.raises(ValueError):
                parse_surd(bad)
