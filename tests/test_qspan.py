import contextlib
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from wildfuncs import qspan
from wildfuncs.projections import Direction, ShiftKind
from wildfuncs.qspan import (
    AdditiveMap,
    SpanBasis,
    SpanElement,
    Symbol,
    UndecidedComparisonError,
    _enclosure_ints,
    _grid_point,
    _rref,
    apply_map,
    classify_shift,
    enclosure_value,
    graph_translation_identity,
    is_injective,
    kernel_basis,
    load_map,
    parse_coords,
    point_symmetry_identity,
    rank,
    real_sign,
    real_sign_offset,
    solve_image,
    surjection_witness,
)

B2 = SpanBasis.from_strings(["1", "sqrt:2"])
B123 = SpanBasis.from_strings(["1", "sqrt:2", "sqrt:3"])
P_MAT = AdditiveMap(B2, ((1, 0), (0, 0)))
Q_MAT = AdditiveMap(B2, ((0, 0), (0, 1)))
IDENTITY = AdditiveMap(B2, ((1, 0), (0, 1)))
ZERO_MAT = AdditiveMap(B2, ((0, 0), (0, 0)))


def elem(basis, *coords):
    return SpanElement(basis, tuple(F(c) for c in coords))


def rand_map(rng, basis=B123, singular=False):
    n = basis.dim
    if singular:
        r = rng.randint(0, n - 1)
        left = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r)] for _ in range(n)]
        right = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(r)]
        rows = tuple(
            tuple(sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(n))
            for i in range(n)
        )
    else:
        rows = tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
            for _ in range(n)
        )
    return AdditiveMap(basis, rows)


def rand_elem(rng, basis=B123):
    return SpanElement(
        basis, tuple(F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(basis.dim))
    )


class TestBasisValidation:
    def test_reject_non_squarefree(self):
        with pytest.raises(ValueError):
            Symbol.parse("sqrt:8")
        with pytest.raises(ValueError):
            Symbol.parse("sqrt:1")

    def test_trial_division(self):
        # 18 and 50 are caught inside the loop (by 3**2 and 5**2), 15 after it
        for d in (18, 50):
            with pytest.raises(ValueError, match="squarefree"):
                Symbol.parse(f"sqrt:{d}")
        assert Symbol.parse("sqrt:15").radicand == 15
        assert Symbol.parse("sqrt:999999999989").radicand == 999999999989  # a prime

    def test_squarefree_oracle(self):
        sympy = pytest.importorskip("sympy")
        for d in range(2, 3000):
            squarefree = max(sympy.factorint(d).values()) == 1
            try:
                Symbol("sqrt", radicand=d)
            except ValueError:
                assert not squarefree, d
            else:
                assert squarefree, d

    def test_radicand_bound(self):
        # trial division costs O(sqrt(d)), so radicands past 10**12 are refused
        for d in (10**12 + 39, 100000000000000000039):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"at most 10\*\*12"):
                Symbol.parse(f"sqrt:{d}")
            assert time.perf_counter() - start < 1

    def test_reject_duplicate_radicands(self):
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["sqrt:2", "sqrt:2"])

    def test_reject_unknown_opaque(self):
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["opaque:zeta3"])

    def test_reject_repeated_opaque(self):
        # a repeated constant made the identity look injective while
        # real_sign(pi - pi) stays undecided at every precision
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["1", "opaque:pi", "opaque:pi"])
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["1", "sqrt:2", "1"])

    def test_reject_empty(self):
        with pytest.raises(ValueError):
            SpanBasis(())


class TestApplyMap:
    def test_projection_matrix(self):
        assert apply_map(P_MAT, elem(B2, 3, 2)) == elem(B2, 3, 0)

    def test_identity_and_zero(self):
        x = elem(B2, F(5, 3), F(-7, 2))
        assert apply_map(IDENTITY, x) == x
        assert apply_map(ZERO_MAT, x).is_zero

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(P_MAT, elem(B123, 1, 2, 3))

    def test_additivity_randomized(self):
        rng = random.Random(71)
        for _ in range(300):
            f = rand_map(rng)
            x, y = rand_elem(rng), rand_elem(rng)
            assert apply_map(f, x + y) == apply_map(f, x) + apply_map(f, y)


class TestKernelAndRank:
    def test_projection_kernel(self):
        assert [k.coords for k in kernel_basis(P_MAT)] == [(F(0), F(1))]

    def test_identity_kernel_empty(self):
        assert kernel_basis(IDENTITY) == []

    def test_zero_map_kernel_full(self):
        assert len(kernel_basis(ZERO_MAT)) == 2

    def test_rank_examples(self):
        assert rank(P_MAT) == 1
        assert rank(IDENTITY) == 2
        assert rank(AdditiveMap(B2, ((1, 1), (0, 0)))) == 1

    def test_injective_surjective(self):
        # over a square rational matrix, full row rank is injectivity
        assert not is_injective(P_MAT)
        assert is_injective(IDENTITY)

    def test_periodic_iff_noninjective_randomized(self):
        rng = random.Random(72)
        for _ in range(300):
            f = rand_map(rng, singular=rng.random() < 0.5)
            kernel = kernel_basis(f)
            assert bool(kernel) == (not is_injective(f))
            assert len(kernel) == f.basis.dim - rank(f)
            for k in kernel:
                assert apply_map(f, k).is_zero


def sympy_kernel(f):
    sympy = pytest.importorskip("sympy")
    matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in f.rows])
    return [tuple(F(int(e.p), int(e.q)) for e in v) for v in matrix.nullspace()]


def fresh_kernel(f):
    # an equal map that is another object is eliminated afresh
    g = AdditiveMap(f.basis, f.rows)
    assert g == f and g is not f
    return [k.coords for k in kernel_basis(g)]


@contextlib.contextmanager
def counted_eliminations():
    calls = []
    real = qspan._rref

    def count(rows):
        calls.append(len(rows))
        return real(rows)

    qspan._rref = count
    try:
        yield calls
    finally:
        qspan._rref = real


class TestKernelMemo:
    """kernel_basis reads the kernel of the last map solve_image found a
    preimage for; whichever elimination it uses, the kernel is the same."""

    def cases(self, seed, count=60):
        rng = random.Random(seed)
        for i in range(count):
            basis = (B123, TestWitnessOracle.OPAQUE)[i % 2]
            f = rand_map(rng, basis, singular=rng.random() < 0.8)
            yield rng, f, apply_map(f, rand_elem(rng, basis))

    def check(self, f, kernel):
        got = [k.coords for k in kernel]
        assert got == fresh_kernel(f) == sympy_kernel(f)
        assert all(k.basis is f.basis for k in kernel)

    def test_after_solve_image(self):
        for _, f, y in self.cases(120):
            assert solve_image(f, y) is not None
            with counted_eliminations() as calls:
                kernel = kernel_basis(f)
            assert calls == []
            self.check(f, kernel)

    def test_after_solve_image_of_an_equal_map(self):
        for _, f, y in self.cases(121):
            g = AdditiveMap(f.basis, f.rows)
            assert solve_image(g, y) is not None
            with counted_eliminations() as calls:
                kernel = kernel_basis(f)
            assert calls == [f.basis.dim]
            self.check(f, kernel)

    def test_after_solve_image_outside_the_image(self):
        outside = 0
        for rng, f, y in self.cases(122, 120):
            other = rand_map(rng, f.basis, singular=True)
            assert solve_image(other, apply_map(other, rand_elem(rng, f.basis))) is not None
            y = rand_elem(rng, f.basis)
            if solve_image(f, y) is not None:
                continue
            outside += 1
            self.check(f, kernel_basis(f))
            self.check(other, kernel_basis(other))
        assert outside > 40

    def test_witness_eliminates_once(self):
        for _, f, y in self.cases(123):
            with counted_eliminations() as calls:
                try:
                    surjection_witness(f, y, F(-1), F(1))
                except (ValueError, UndecidedComparisonError):
                    pass
            assert calls == [f.basis.dim]

    def test_threads_alternating_maps(self):
        jobs = list(self.cases(124, 16))

        def job(k):
            # solve for one map, then read the kernels of it and of the next
            _, f, y = jobs[k % len(jobs)]
            _, g, _ = jobs[(k + 1) % len(jobs)]
            x0 = solve_image(f, y)
            return x0.coords, [v.coords for v in kernel_basis(f)], [v.coords for v in kernel_basis(g)]

        want = [job(k) for k in range(256)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(job, range(256), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        for _, f, _ in jobs:
            assert [k.coords for k in kernel_basis(f)] == sympy_kernel(f)


class TestClassifyShift:
    def test_radical_axis_is_period_of_p(self):
        cls = classify_shift(P_MAT, elem(B2, 0, 1))
        assert cls.kind is ShiftKind.PERIOD

    def test_decreasing(self):
        cls = classify_shift(P_MAT, elem(B2, -1, 1))
        assert cls.kind is ShiftKind.QUASIPERIOD
        assert cls.increment.coords == (F(-1), F(0))
        assert cls.direction is Direction.DECREASING

    def test_increasing(self):
        cls = classify_shift(P_MAT, elem(B2, 1, 0))
        assert cls.increment.coords == (F(1), F(0))
        assert cls.direction is Direction.INCREASING

    def test_zero_shift(self):
        with pytest.raises(ValueError):
            classify_shift(P_MAT, elem(B2, 0, 0))

    def test_opaque_direction_undecided_raises(self):
        basis = SpanBasis.from_strings(["1", "opaque:pi"])
        ident = AdditiveMap(basis, ((1, 0), (0, 1)))
        lo, hi = enclosure_value(elem(basis, 0, 1), 400)
        # shift whose real value is pinned inside the 400-bit pi enclosure:
        # its sign cannot be decided at DEFAULT_PRECISION bits
        t = elem(basis, (lo + hi) / 2, -1)
        with pytest.raises(UndecidedComparisonError):
            classify_shift(ident, t)


class TestRealCompare:
    def test_one_below_root_two(self):
        assert real_sign(elem(B2, 1, -1) - elem(B2, 0, 0)) == -1

    def test_pi_below_22_7(self):
        basis = SpanBasis.from_strings(["1", "opaque:pi"])
        assert real_sign(elem(basis, F(22, 7), 0) - elem(basis, 0, 1)) == 1

    def test_e_value(self):
        basis = SpanBasis.from_strings(["1", "opaque:e"])
        assert real_sign(elem(basis, F(27, 10), 0) - elem(basis, 0, 1)) == -1
        assert real_sign(elem(basis, F(28, 10), 0) - elem(basis, 0, 1)) == 1

    def test_identical_coords_equal(self):
        x = elem(B123, 1, 2, 3)
        assert real_sign(x - elem(B123, 1, 2, 3)) == 0

    def test_three_surd_mix(self):
        # 1 + sqrt(2) + sqrt(3) vs 4: 4.146... > 4
        assert real_sign_offset(elem(B123, 1, 1, 1), F(4)) == 1
        assert real_sign_offset(elem(B123, 1, 1, 1), F(42, 10)) == -1

    def test_swap_never_contradicts(self):
        rng = random.Random(73)
        for _ in range(200):
            u, v = rand_elem(rng), rand_elem(rng)
            assert real_sign(u - v) == -real_sign(v - u)

    def test_opaque_budget_exhaustion(self):
        basis = SpanBasis.from_strings(["opaque:pi", "opaque:e"])
        # pi against a dyadic pinned within the 400-bit enclosure of pi:
        # DEFAULT_PRECISION bits cannot separate them
        u = elem(basis, 1, 0)
        lo, hi = enclosure_value(u, 400)
        mid = (lo + hi) / 2
        assert real_sign_offset(u, mid) is None

    def test_rational_elements_against_offset(self):
        # rational-only elements have exact enclosures: below, equal to and
        # above the offset are all decided, on every kind of basis
        rng = random.Random(107)
        bases = [
            (SpanBasis.from_strings(["1"]), 0),
            (B123, 0),
            (SpanBasis.from_strings(["sqrt:5", "1", "opaque:pi"]), 1),
            (SpanBasis.from_strings(["opaque:e", "1"]), 1),
        ]
        for basis, unit in bases:
            for _ in range(40):
                q = F(rng.randint(-50, 50), rng.randint(1, 9))
                coords = [0] * basis.dim
                coords[unit] = q
                x = elem(basis, *coords)
                # exact at any precision, so never undecided
                assert enclosure_value(x, 1) == (q, q)
                for offset, want in ((q - F(1, 97), 1), (q, 0), (q + F(1, 97), -1)):
                    assert real_sign_offset(x, offset) == want

    def test_int_and_fraction_offsets(self):
        # an int offset and the equal Fraction give the same sign, and it
        # is the sign of a 256-bit Fraction enclosure minus the offset;
        # rational x at the offset gives lo == hi == offset, sign 0
        rng = random.Random(114)
        unit = SpanBasis.from_strings(["1"])
        for _ in range(200):
            k = rng.randint(-8, 8)
            x = rand_elem(rng, B123 if rng.random() < 0.7 else unit)
            if rng.random() < 0.2:
                x = SpanElement(x.basis, (F(k),) + (F(0),) * (x.basis.dim - 1))
            lo, hi = fraction_enclosure(x, 256)
            want = 1 if lo > k else -1 if hi < k else 0
            assert want or lo == hi == k
            assert real_sign_offset(x, k) == real_sign_offset(x, F(k)) == want
            for offset in (F(k, 3), F(2 * k + 1, 2)):
                want = 1 if lo > offset else -1 if hi < offset else 0
                assert real_sign_offset(x, offset) == want

    def test_zero_element_without_unit(self):
        basis = SpanBasis.from_strings(["sqrt:2", "opaque:pi"])
        zero = elem(basis, 0, 0)
        assert real_sign_offset(zero, F(0)) == 0
        assert real_sign_offset(zero, F(-1, 3)) == 1
        assert real_sign_offset(zero, F(1, 3)) == -1


class TestEnclosures:
    def test_pi_window_narrows(self):
        basis = SpanBasis.from_strings(["opaque:pi"])
        x = elem(basis, 1)
        lo, hi = enclosure_value(x, 64)
        assert hi - lo <= F(1, 2**64)
        assert F(314159, 100000) < lo < hi < F(314160, 100000)

    def test_sqrt3_window(self):
        x = elem(B123, 0, 0, 1)
        lo, hi = enclosure_value(x, 40)
        assert lo * lo < 3 < hi * hi


class TestSolveAndWitness:
    def test_solve_in_image(self):
        x0 = solve_image(Q_MAT, elem(B2, 0, 1))
        assert x0 is not None and apply_map(Q_MAT, x0) == elem(B2, 0, 1)

    def test_solve_outside_image(self):
        assert solve_image(P_MAT, elem(B2, 0, 1)) is None

    def test_witness_golden(self):
        w = surjection_witness(Q_MAT, elem(B2, 0, 1), F(3), F(4))
        assert w == elem(B2, 2, 1)

    def test_witness_contract_randomized(self):
        rng = random.Random(74)
        produced = 0
        for _ in range(200):
            f = rand_map(rng, singular=True)
            if is_injective(f):
                continue
            y = apply_map(f, rand_elem(rng))
            l = F(rng.randint(-40, 40), rng.randint(1, 6))
            r = l + F(rng.randint(1, 30), rng.randint(1, 6))
            w = surjection_witness(f, y, l, r)
            assert apply_map(f, w) == y
            assert real_sign_offset(w, l) == 1 and real_sign_offset(w, r) == -1
            produced += 1
        assert produced > 50

    def test_witness_on_opaque_basis(self):
        basis = SpanBasis.from_strings(["1", "opaque:pi"])
        proj1 = AdditiveMap(basis, ((1, 0), (0, 0)))
        y = SpanElement(basis, (F(5), F(0)))
        w = surjection_witness(proj1, y, F(0), F(1))
        assert w == SpanElement(basis, (F(5), F(-3, 2)))  # 5 - (3/2)pi ~ 0.288
        assert apply_map(proj1, w) == y
        assert real_sign_offset(w, F(0)) == 1 and real_sign_offset(w, F(1)) == -1

    def test_witness_errors(self):
        with pytest.raises(ValueError):  # injective map
            surjection_witness(IDENTITY, elem(B2, 1, 0), F(0), F(1))
        with pytest.raises(ValueError):  # target outside image
            surjection_witness(P_MAT, elem(B2, 0, 1), F(0), F(1))
        with pytest.raises(ValueError):  # empty interval
            surjection_witness(Q_MAT, elem(B2, 0, 1), F(1), F(1))


def fraction_rref(rows):
    """Gauss-Jordan elimination over Fractions, as `_rref` once did it."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def rref_cases():
    """Square, augmented, rank-deficient, zero and single-column matrices,
    some needing a row swap at the first pivot."""
    rng = random.Random(108)
    cases = [
        [[F(0), F(0)], [F(0), F(0)]],
        [[F(0)], [F(0)], [F(0)]],
        [[F(0)], [F(3, 4)], [F(-2)]],
        [[F(5, 3)]],
        [[F(0), F(1), F(2)], [F(3), F(4), F(5)], [F(6), F(7), F(8)]],
        [[F(0), F(0), F(1)], [F(0), F(2), F(0)], [F(3), F(0), F(0)]],
        [[F(1), F(2), F(3), F(4)], [F(2), F(4), F(6), F(9)], [F(0), F(0), F(0), F(0)]],
    ]
    for _ in range(150):
        n = rng.randint(1, 4)
        f = rand_map(rng, SpanBasis.from_strings(["1", "sqrt:2", "sqrt:3", "sqrt:5"][:n]),
                     singular=n > 1 and rng.random() < 0.5)
        rows = [list(r) for r in f.rows]
        if rng.random() < 0.3:
            rows.insert(0, rows.pop())  # move a row, so zero leading entries come first
        if rng.random() < 0.5:
            y = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            rows = [r + [v] for r, v in zip(rows, y)]
        cases.append(rows)
        cases.append([[r[0]] for r in rows])
    return cases


def reduced_rows(rows):
    """`_rref`'s integer pivot rows read as Fractions, each divided by its
    pivot, padded with zero rows to the height of `rows`."""
    got, pivots = _rref(rows)
    assert all(type(v) is int for r in got for v in r)
    reduced = [[F(v, r[pc]) for v in r] for r, pc in zip(got, pivots)]
    ncols = len(rows[0]) if rows else 0
    return reduced + [[F(0)] * ncols for _ in range(len(rows) - len(got))], pivots


class TestRrefOracle:
    def test_against_fraction_elimination(self):
        for rows in rref_cases():
            reduced, pivots = reduced_rows(rows)
            want, want_pivots = fraction_rref(rows)
            assert pivots == want_pivots
            assert reduced == want
            assert all(type(v) is F for r in reduced for v in r)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for rows in rref_cases():
            matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])
            want, want_pivots = matrix.rref()
            reduced, pivots = reduced_rows(rows)
            assert tuple(pivots) == want_pivots
            assert reduced == [
                [F(int(e.p), int(e.q)) for e in want.row(i)] for i in range(want.rows)
            ]


def fraction_enclosure(x, bits):
    lo = hi = F(0)
    for q, sym in zip(x.coords, x.basis.symbols):
        if q == 0:
            continue
        slo, shi = sym.enclosure(bits)
        if q > 0:
            lo += q * slo
            hi += q * shi
        else:
            lo += q * shi
            hi += q * slo
    return lo, hi


class TestEnclosureOracle:
    def test_against_fraction_sum(self):
        rng = random.Random(109)
        bases = [
            B123,
            SpanBasis.from_strings(["sqrt:5", "1", "opaque:pi"]),
            SpanBasis.from_strings(["opaque:e", "opaque:pi", "1", "sqrt:7"]),
        ]
        for basis in bases:
            for bits in (32, 33, 47, 64, 100, 128, 255, 512):
                for _ in range(25):
                    x = SpanElement(basis, tuple(
                        F(0) if rng.random() < 0.3 else F(rng.randint(-99, 99), rng.randint(1, 40))
                        for _ in range(basis.dim)
                    ))
                    lo, hi = enclosure_value(x, bits)
                    assert (lo, hi) == fraction_enclosure(x, bits) == int_enclosure(x, bits)
                    assert type(lo) is F and type(hi) is F
                negative = SpanElement(basis, tuple(F(-3 - k, 2 + k) for k in range(basis.dim)))
                assert enclosure_value(negative, bits) == fraction_enclosure(negative, bits) \
                    == int_enclosure(negative, bits)
            zero = SpanElement(basis, (F(0),) * basis.dim)
            assert enclosure_value(zero, 32) == (F(0), F(0)) == int_enclosure(zero, 32)


def int_enclosure(x, bits):
    lo_n, lo_d, hi_n, hi_d = _enclosure_ints(x, bits)
    assert all(type(v) is int for v in (lo_n, lo_d, hi_n, hi_d)) and lo_d > 0 and hi_d > 0
    return F(lo_n, lo_d), F(hi_n, hi_d)


class TestGridPointOracle:
    def test_against_fraction_steer(self):
        # x0 + (m/2**depth)*steer, at depths up to the witness's last grid
        # and with m of both signs
        rng = random.Random(115)
        for basis in (B123, TestWitnessOracle.OPAQUE):
            for depth in (0, 1, 2, 7, 31, 64, 129, 255, 4 * qspan.DEFAULT_PRECISION):
                for _ in range(20):
                    x0, steer = rand_elem(rng, basis), rand_elem(rng, basis)
                    if rng.random() < 0.3:
                        steer = SpanElement(basis, (F(0),) + steer.coords[1:])
                    m = rng.choice((-1, 1)) * rng.randint(0, 1 << rng.randint(0, depth + 3))
                    x = _grid_point(x0, steer, m, depth)
                    assert x == x0 + steer.scale(F(m, 1 << depth))
                    assert all(type(q) is F for q in x.coords)


def every_candidate_witness(f, y, l, r, prefilter=False):
    """The witness search with no prefilter: every grid candidate goes
    through both exact sign tests.  With `prefilter`, the search as it was
    with Fraction bounds: candidates the enclosures place at or below l, or
    at or above r, are skipped."""
    l, r = F(l), F(r)
    if l >= r:
        raise ValueError("empty interval")
    x0 = solve_image(f, y)
    if x0 is None:
        raise ValueError("target is not in the image")
    kernel = kernel_basis(f)
    if not kernel:
        raise ValueError("map is injective: no kernel to steer with")
    steer = None
    for k in kernel:
        s = real_sign(k)
        if s is None:
            raise UndecidedComparisonError("kernel sign undecided within budget")
        if s != 0:
            steer = k
            break
    if steer is None:
        raise ValueError("kernel has no element of nonzero real value")
    mid = (l + r) / 2
    depth = 0
    while depth <= 4 * qspan.DEFAULT_PRECISION:
        bits = 32 + depth
        v0_lo, v0_hi = fraction_enclosure(x0, bits)
        vk_lo, vk_hi = fraction_enclosure(steer, bits)
        mid_vk = (vk_lo + vk_hi) / 2
        if mid_vk != 0:
            est = (mid - (v0_lo + v0_hi) / 2) / mid_vk
            scale = 1 << depth
            base_m = (est.numerator * scale) // est.denominator
            for m in range(base_m - 2, base_m + 4):
                c = F(m, scale)
                if prefilter:
                    if m >= 0:
                        lo, hi = v0_lo + c * vk_lo, v0_hi + c * vk_hi
                    else:
                        lo, hi = v0_lo + c * vk_hi, v0_hi + c * vk_lo
                    if hi <= l or lo >= r:
                        continue
                x = x0 + steer.scale(c)
                # through the module, so that recorded_sign_tests sees it
                s_lo = qspan.real_sign_offset(x, l)
                if s_lo is None:
                    raise UndecidedComparisonError("interval check undecided")
                if s_lo <= 0:
                    continue
                s_hi = qspan.real_sign_offset(x, r)
                if s_hi is None:
                    raise UndecidedComparisonError("interval check undecided")
                if s_hi < 0:
                    return x
        depth += 1
    raise UndecidedComparisonError("no admissible coefficient within budget")


def witness_outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs).coords
    except (ValueError, UndecidedComparisonError) as exc:
        return type(exc)


@contextlib.contextmanager
def recorded_sign_tests():
    """Record (coords, offset) of each exact sign test made through the
    module's real_sign_offset, the steer's sign tests included."""
    calls = []
    real = qspan.real_sign_offset

    def record(x, offset):
        calls.append((x.coords, F(offset)))
        return real(x, offset)

    qspan.real_sign_offset = record
    try:
        yield calls
    finally:
        qspan.real_sign_offset = real


class TestWitnessOracle:
    OPAQUE = SpanBasis.from_strings(["1", "opaque:pi", "opaque:e"])

    def check(self, f, y, l, r):
        # the same witness as testing every candidate, and the same exact
        # sign tests, in the same order, as the Fraction prefilter ran
        with recorded_sign_tests() as tests:
            got = witness_outcome(surjection_witness, f, y, l, r)
        with recorded_sign_tests() as want_tests:
            want = witness_outcome(every_candidate_witness, f, y, l, r, prefilter=True)
        assert got == want and tests == want_tests
        assert got == witness_outcome(every_candidate_witness, f, y, l, r)
        return got

    def test_random_maps(self):
        rng = random.Random(110)
        for basis, count in ((B123, 500), (self.OPAQUE, 100)):
            found = 0
            for _ in range(count):
                f = rand_map(rng, basis, singular=rng.random() < 0.9)
                y = apply_map(f, rand_elem(rng, basis))
                l = F(rng.randint(-40, 40), rng.randint(1, 6))
                r = l + F(rng.randint(1, 30), rng.randint(1, 6))
                found += not isinstance(self.check(f, y, l, r), type)
            assert found > count // 2

    def test_tight_endpoints(self):
        # an endpoint within 2**-200 of a grid candidate's value: only the
        # exact bounds of the prefilter keep that candidate
        rng = random.Random(111)
        for basis in (B123, self.OPAQUE):
            for _ in range(60):
                f = rand_map(rng, basis, singular=True)
                kernel = kernel_basis(f)
                steer = next((k for k in kernel if real_sign(k) != 0), None)
                if steer is None:
                    continue
                y = apply_map(f, rand_elem(rng, basis))
                x0 = solve_image(f, y)
                c = F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 2, 4)))
                lo, hi = enclosure_value(x0 + steer.scale(c), 200)
                vk_lo, vk_hi = enclosure_value(steer, 64)
                width = min(abs(vk_lo), abs(vk_hi)) * F(rng.randint(1, 7), 8)
                self.check(f, y, hi - width, hi)
                self.check(f, y, lo, lo + width)

    def test_negative_steer(self):
        # vk_lo + vk_hi < 0: the skip bounds swap ends, and base_m is the
        # floor of a quotient by a negative number
        rng = random.Random(112)
        for basis in (B123, self.OPAQUE):
            seen = found = drawn = 0
            while seen < 80:
                # a fault in the kernel's signs must fail here, not loop on
                drawn += 1
                assert drawn <= 2000, f"{seen} maps with a negative steer in 2000 draws"
                f = rand_map(rng, basis, singular=True)
                signs = [real_sign(k) for k in kernel_basis(f)]
                if None in signs or next((s for s in signs if s), 0) >= 0:
                    continue
                seen += 1
                y = apply_map(f, rand_elem(rng, basis))
                l = F(rng.randint(-40, 40), rng.randint(1, 6))
                r = l + F(rng.randint(1, 30), rng.randint(1, 6)) / rng.choice((1, 10**3, 10**6))
                found += not isinstance(self.check(f, y, l, r), type)
            assert found > 40

    def test_large_denominators(self):
        rng = random.Random(113)

        def big():
            return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))

        for basis in (B123, self.OPAQUE):
            found = 0
            for _ in range(80):
                f = rand_map(rng, basis, singular=True)
                # each row scaled by one factor: the kernel stays
                scales = [big() or F(1) for _ in f.rows]
                f = AdditiveMap(basis, tuple(tuple(v * s for v in row) for row, s in zip(f.rows, scales)))
                y = apply_map(f, SpanElement(basis, tuple(big() for _ in range(basis.dim))))
                l = big()
                r = l + F(rng.randint(1, 10**9), rng.randint(1, 10**15))
                found += not isinstance(self.check(f, y, l, r), type)
            assert found > 40


class TestGraphIdentities:
    def test_translation_randomized(self):
        rng = random.Random(75)
        for _ in range(300):
            f = rand_map(rng, singular=rng.random() < 0.3)
            assert graph_translation_identity(f, rand_elem(rng), rand_elem(rng))

    def test_symmetry_randomized(self):
        rng = random.Random(76)
        for _ in range(300):
            f = rand_map(rng, singular=rng.random() < 0.3)
            assert point_symmetry_identity(f, rand_elem(rng), rand_elem(rng))


# map files of the wrong shape, with JSON floats or booleans for entries, or
# with literals outside the rational grammar: an exponent, an integer of more
# than 4300 digits, a radicand that is not an integer literal
BAD_MAP_FILES = {
    "no-basis": {"matrix": [["1", "0"], ["0", "0"]]},
    "no-matrix": {"basis": ["1", "sqrt:2"]},
    "matrix-number": {"basis": ["1", "sqrt:2"], "matrix": 5},
    "top-level-list": [["1", "sqrt:2"], [["1", "0"], ["0", "0"]]],
    "float-entry": {"basis": ["1", "sqrt:2"], "matrix": [[0.1, 0], [0, 0]]},
    "bool-entry": {"basis": ["1", "sqrt:2"], "matrix": [[True, 0], [0, 0]]},
    "row-not-list": {"basis": ["1", "sqrt:2"], "matrix": ["10", "00"]},
    "basis-number": {"basis": [1, "sqrt:2"], "matrix": [["1", "0"], ["0", "0"]]},
    "exponent-entry": {"basis": ["1", "sqrt:2"], "matrix": [["1e999999999", "0"], ["0", "0"]]},
    "long-entry": {"basis": ["1", "sqrt:2"], "matrix": [["1" * 4301, "0"], ["0", "0"]]},
    "long-radicand": {"basis": ["1", "sqrt:" + "1" * 4301], "matrix": [["1", "0"], ["0", "0"]]},
    "fraction-radicand": {"basis": ["1", "sqrt:4/2"], "matrix": [["1", "0"], ["0", "0"]]},
    "underscore-radicand": {"basis": ["1", "sqrt:1_0"], "matrix": [["1", "0"], ["0", "0"]]},
}


class TestDeclarationFiles:
    def test_load_map(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps(
                {"basis": ["1", "sqrt:2"], "matrix": [["1", "0"], ["0", "0"]]}
            )
        )
        f = load_map(str(path))
        assert f == P_MAT
        x = parse_coords("3,2", f.basis)
        assert apply_map(f, x) == elem(B2, 3, 0)

    def test_load_map_integer_entries(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"basis": ["1", "sqrt:2"], "matrix": [[1, "0"], [0, 0]]}))
        assert load_map(str(path)) == P_MAT

    @pytest.mark.parametrize("data", BAD_MAP_FILES.values(), ids=list(BAD_MAP_FILES))
    def test_load_map_rejects_shape(self, tmp_path, data):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_map(str(path))
