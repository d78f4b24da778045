import json
import random
from fractions import Fraction as F

import pytest

from wildfuncs.projections import Direction, ShiftKind
from wildfuncs.qspan import (
    AdditiveMap,
    SpanBasis,
    SpanElement,
    Symbol,
    UndecidedComparisonError,
    apply_map,
    classify_shift,
    enclosure_value,
    graph_translation_identity,
    is_injective,
    is_surjective,
    kernel_basis,
    load_map,
    parse_coords,
    point_symmetry_identity,
    rank,
    real_compare,
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

    def test_reject_duplicate_radicands(self):
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["sqrt:2", "sqrt:2"])

    def test_reject_unknown_opaque(self):
        with pytest.raises(ValueError):
            SpanBasis.from_strings(["opaque:zeta3"])

    def test_reject_empty(self):
        with pytest.raises(ValueError):
            SpanBasis(())

    def test_describe_round_trip(self):
        assert SpanBasis.from_strings(B123.describe()) == B123


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
        assert not is_injective(P_MAT) and not is_surjective(P_MAT)
        assert is_injective(IDENTITY) and is_surjective(IDENTITY)

    def test_periodic_iff_noninjective_randomized(self):
        rng = random.Random(72)
        for _ in range(300):
            f = rand_map(rng, singular=rng.random() < 0.5)
            kernel = kernel_basis(f)
            assert bool(kernel) == (not is_injective(f))
            assert len(kernel) == f.basis.dim - rank(f)
            for k in kernel:
                assert apply_map(f, k).is_zero


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
        # shift whose real value is pinned inside the tight pi enclosure:
        # its sign cannot be decided at a small budget
        t = elem(basis, (lo + hi) / 2, -1)
        with pytest.raises(UndecidedComparisonError):
            classify_shift(ident, t, precision_budget=64)


class TestRealCompare:
    def test_one_below_root_two(self):
        assert real_compare(elem(B2, 1, -1), elem(B2, 0, 0)) == -1

    def test_pi_below_22_7(self):
        basis = SpanBasis.from_strings(["1", "opaque:pi"])
        assert real_compare(elem(basis, F(22, 7), 0), elem(basis, 0, 1)) == 1

    def test_e_value(self):
        basis = SpanBasis.from_strings(["1", "opaque:e"])
        assert real_compare(elem(basis, F(27, 10), 0), elem(basis, 0, 1)) == -1
        assert real_compare(elem(basis, F(28, 10), 0), elem(basis, 0, 1)) == 1

    def test_identical_coords_equal(self):
        x = elem(B123, 1, 2, 3)
        assert real_compare(x, elem(B123, 1, 2, 3)) == 0

    def test_three_surd_mix(self):
        # 1 + sqrt(2) + sqrt(3) vs 4: 4.146... > 4
        assert real_sign_offset(elem(B123, 1, 1, 1), F(4)) == 1
        assert real_sign_offset(elem(B123, 1, 1, 1), F(42, 10)) == -1

    def test_swap_never_contradicts(self):
        rng = random.Random(73)
        for _ in range(200):
            u, v = rand_elem(rng), rand_elem(rng)
            assert real_compare(u, v) == -real_compare(v, u)

    def test_opaque_budget_exhaustion(self):
        basis = SpanBasis.from_strings(["opaque:pi", "opaque:e"])
        # pi - pi across two elements differing in coordinates they cannot
        # separate at tiny budget: compare pi vs a dyadic pinned within the
        # 8-bit enclosure of pi
        u = elem(basis, 1, 0)
        lo, hi = enclosure_value(u, 400)
        mid = (lo + hi) / 2
        assert real_sign_offset(u, mid, precision_budget=64) is None

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
                for offset, want in ((q - F(1, 97), 1), (q, 0), (q + F(1, 97), -1)):
                    assert real_sign_offset(x, offset) == want
                    assert real_sign_offset(x, offset, precision_budget=1) == want

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
