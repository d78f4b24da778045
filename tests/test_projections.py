import random
from fractions import Fraction as F

import pytest

from wildfuncs import projections
from wildfuncs.projections import (
    _doubled_floors,
    Direction,
    PROJECTIONS,
    ShiftKind,
    classify_shift,
    density_witness,
    radical_component,
    rational_component,
    simplest_dyadic_between,
)
from wildfuncs.surds import LESS, QuadraticSurd, surd_compare, surd_floor

from test_surds import fraction_compare


def rand_surd(rng, bound=100, den=30):
    return QuadraticSurd(
        F(rng.randint(-bound, bound), rng.randint(1, den)),
        F(rng.randint(-bound, bound), rng.randint(1, den)),
    )


class TestProjections:
    def test_definitions(self):
        x = QuadraticSurd(3, 2)
        assert rational_component(x) == QuadraticSurd(3, 0)
        assert radical_component(x) == QuadraticSurd(0, 2)

    def test_rational_shift_moves_p_only(self):
        x = QuadraticSurd(F(5, 3), F(-7, 2))
        shifted = x + QuadraticSurd(1, 0)
        assert rational_component(shifted) == rational_component(x) + QuadraticSurd(1, 0)
        assert radical_component(shifted) == radical_component(x)

    def test_radical_shift_moves_q_only(self):
        x = QuadraticSurd(F(5, 3), F(-7, 2))
        shifted = x + QuadraticSurd(0, 1)
        assert rational_component(shifted) == rational_component(x)
        assert radical_component(shifted) == radical_component(x) + QuadraticSurd(0, 1)

    def test_identity_decomposition(self):
        rng = random.Random(41)
        x = QuadraticSurd(5, -7)
        assert rational_component(x) + radical_component(x) == x
        for _ in range(500):
            x = rand_surd(rng)
            assert rational_component(x) + radical_component(x) == x


class TestClassifyShift:
    def test_radical_multiples_are_periods_of_p(self):
        cls = classify_shift("p", QuadraticSurd(0, 1))
        assert cls.kind is ShiftKind.PERIOD and cls.direction is None

    def test_rationals_are_periods_of_q(self):
        cls = classify_shift("q", QuadraticSurd(1, 0))
        assert cls.kind is ShiftKind.PERIOD

    def test_decreasing_quasiperiod(self):
        # shifting by sqrt(2) - 1 > 0 lowers the p-value by 1
        cls = classify_shift("p", QuadraticSurd(-1, 1))
        assert cls.kind is ShiftKind.QUASIPERIOD
        assert cls.increment == QuadraticSurd(-1, 0)
        assert cls.direction is Direction.DECREASING

    def test_increasing_quasiperiod(self):
        cls = classify_shift("p", QuadraticSurd(1, 0))
        assert cls.increment == QuadraticSurd(1, 0)
        assert cls.direction is Direction.INCREASING

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            classify_shift("p", QuadraticSurd(0, 0))

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            classify_shift("r", QuadraticSurd(1, 0))

    def test_soundness_by_direct_evaluation(self):
        # every nonzero shift classifies, and the classification is the
        # exact behavior of f(x + t) - f(x) at random points
        rng = random.Random(42)
        for _ in range(300):
            fn = rng.choice(("p", "q"))
            t = rand_surd(rng)
            if t.is_zero:
                t = QuadraticSurd(1, 1)
            cls = classify_shift(fn, t)
            proj = PROJECTIONS[fn]
            for _ in range(10):
                x = rand_surd(rng)
                delta = proj(x + t) - proj(x)
                if cls.kind is ShiftKind.PERIOD:
                    assert delta.is_zero
                else:
                    assert delta == cls.increment


class TestSimplestDyadic:
    def test_prefers_small_denominators(self):
        got = simplest_dyadic_between(QuadraticSurd(5, 0), QuadraticSurd(6, 0))
        assert got == F(11, 2)
        got = simplest_dyadic_between(QuadraticSurd(0, 0), QuadraticSurd(3, 0))
        assert got == F(1)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            simplest_dyadic_between(QuadraticSurd(1, 0), QuadraticSurd(1, 0))

    def test_doubled_floors_match_surd_floor(self):
        # each floor(u * 2**k) comes from the last by one sign test; surd_floor
        # of the scaled surd is the oracle at every k, for surds of either
        # sign, rational ones (where the test meets equality) included
        rng = random.Random(46)
        for i in range(600):
            u = rand_surd(rng, 10**6, 10**4)
            if i % 4 == 0:
                u = QuadraticSurd(u.a, 0)
            elif i % 4 == 1:  # odd / 2**j: u * 2**j is an odd integer
                u = QuadraticSurd(F(rng.randrange(-999, 1000, 2), 2 ** rng.randint(1, 40)), 0)
            floors = _doubled_floors(u)
            for k in range(48):
                assert next(floors) == surd_floor(QuadraticSurd(u.a * 2**k, u.b * 2**k)), (u, k)


class TestDensityWitness:
    def test_p_window_golden(self):
        w = density_witness("p", F(0), F(1), F(5), F(6))
        assert w == QuadraticSurd(F(11, 2), F(-7, 2))

    def test_origin_window(self):
        w = density_witness("p", F(-1), F(1), F(-1), F(1))
        assert w == QuadraticSurd(0, 0)

    def test_q_window_golden(self):
        w = density_witness("q", F(0), F(1), F(1), F(2))
        assert w == QuadraticSurd(-1, 1)
        assert radical_component(w) == QuadraticSurd(0, 1)

    def test_empty_windows(self):
        with pytest.raises(ValueError):
            density_witness("p", F(1), F(1), F(0), F(1))
        with pytest.raises(ValueError):
            density_witness("q", F(0), F(1), F(2), F(2))

    @pytest.mark.parametrize("x_window, y_window", [
        ((5, 7), (4, 6)), ((3, 5), (4, 6)), ((4, 6), (5, 7)), ((4, 6), (3, 5)),
    ])
    def test_boundary_point_fails_verification(self, monkeypatch, x_window, y_window):
        # a faulty search that puts w = p(w) = 5 on exactly one of the four
        # open bounds: the exact re-check must refuse it
        answers = iter((F(5), F(0)))
        monkeypatch.setattr(projections, "simplest_dyadic_between", lambda lo, hi: next(answers))
        with pytest.raises(AssertionError):
            density_witness("p", *x_window, *y_window)

    def test_float_bounds_refused(self):
        with pytest.raises(TypeError):
            density_witness("p", 0, 0.5, 5, 6)

    def test_randomized_membership(self):
        rng = random.Random(43)
        for _ in range(300):
            x_lo = F(rng.randint(-50, 50), rng.randint(1, 9))
            x_hi = x_lo + F(rng.randint(1, 40), rng.randint(1, 9))
            y_lo = F(rng.randint(-50, 50), rng.randint(1, 9))
            y_hi = y_lo + F(rng.randint(1, 40), rng.randint(1, 9))
            fn = rng.choice(("p", "q"))
            w = density_witness(fn, x_lo, x_hi, y_lo, y_hi)
            value = PROJECTIONS[fn](w)
            assert surd_compare(QuadraticSurd(x_lo, 0), w) == LESS
            assert surd_compare(w, QuadraticSurd(x_hi, 0)) == LESS
            assert surd_compare(QuadraticSurd(y_lo, 0), value) == LESS
            assert surd_compare(value, QuadraticSurd(y_hi, 0)) == LESS


def fraction_dyadic(lo, hi):
    """simplest_dyadic_between as it was, with Fraction surds throughout."""
    if fraction_compare(lo, hi) != LESS:
        raise ValueError("empty interval")
    k = 0
    while True:
        scale = 1 << k
        m = surd_floor(QuadraticSurd(lo.a * scale, lo.b * scale)) + 1
        if fraction_compare(QuadraticSurd(F(m, scale), 0), hi) == LESS:
            return F(m, scale)
        k += 1


def fraction_density_witness(fn, x_lo, x_hi, y_lo, y_hi):
    """density_witness as it was, on fraction_dyadic and fraction_compare."""
    if fn == "p":
        a = fraction_dyadic(QuadraticSurd(y_lo, 0), QuadraticSurd(y_hi, 0))
        b = fraction_dyadic(QuadraticSurd(0, (x_lo - a) / 2), QuadraticSurd(0, (x_hi - a) / 2))
    else:
        b = fraction_dyadic(QuadraticSurd(0, y_lo / 2), QuadraticSurd(0, y_hi / 2))
        a = fraction_dyadic(QuadraticSurd(x_lo, -b), QuadraticSurd(x_hi, -b))
    w = QuadraticSurd(a, b)
    value = PROJECTIONS[fn](w)
    assert fraction_compare(QuadraticSurd(x_lo, 0), w) == LESS
    assert fraction_compare(w, QuadraticSurd(x_hi, 0)) == LESS
    assert fraction_compare(QuadraticSurd(y_lo, 0), value) == LESS
    assert fraction_compare(value, QuadraticSurd(y_hi, 0)) == LESS
    return w


def rand_window(rng):
    # a random start, and a width from 10 down to 1/10**11
    lo = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    return lo, lo + F(rng.randint(1, 100), 10 ** rng.randint(1, 11))


class TestDyadicOracle:
    def test_simplest_dyadic_between(self):
        rng = random.Random(44)
        for _ in range(1000):
            # parts of either sign, so the two can nearly cancel
            lo = rand_surd(rng, 10**6, 10**4)
            hi = lo + QuadraticSurd(*(F(rng.randint(-100, 100), 10 ** rng.randint(1, 11)) for _ in "ab"))
            if fraction_compare(lo, hi) != LESS:
                lo, hi = hi, lo
            if fraction_compare(lo, hi) != LESS:
                continue
            assert simplest_dyadic_between(lo, hi) == fraction_dyadic(lo, hi), (lo, hi)

    def test_density_witness(self):
        rng = random.Random(45)
        for i in range(2000):
            (x_lo, x_hi), (y_lo, y_hi) = rand_window(rng), rand_window(rng)
            fn = "pq"[i % 2]
            w = density_witness(fn, x_lo, x_hi, y_lo, y_hi)
            assert w == fraction_density_witness(fn, x_lo, x_hi, y_lo, y_hi)
            assert type(w.a) is F and type(w.b) is F
