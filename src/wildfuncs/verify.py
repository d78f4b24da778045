"""Seeded property suites behind the `verify` command.

Every suite is deterministic in (trials, seed): trial i draws from its own
generator seeded by a fixed function of (seed, i), and failures are merged
in trial order, so identical invocations print identical reports.
`_per_trial` holds that rule for every suite but the placement audit.  Wall
time is measured but kept out of the canonical JSON body.

The suites import `cantor`, `projections` and `ternary` when they run, and
`random` and `json` are imported where they are used, so a CLI start, which
imports this module, loads none of them.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import qspan
from .exactcore import (
    DigitExpansion,
    cylinder_for_interval,
    from_expansion,
    to_expansion,
)
from .surds import QuadraticSurd, surd_compare
from .qspan import (
    AdditiveMap,
    ShiftKind,
    SpanBasis,
    SpanElement,
    apply_map,
    is_injective,
    kernel_basis,
    rank,
    real_sign_offset,
    surjection_witness,
)

_BASIS_123 = SpanBasis.from_strings(["1", "sqrt:2", "sqrt:3"])


def _rng(seed: int, trial: int):
    """The `random.Random` of one trial."""
    import random
    return random.Random(seed * 1_000_003 + trial)


def _fail(trial: int, inp, expected, got) -> dict:
    return {
        "trial": trial,
        "input": str(inp),
        "expected": str(expected),
        "got": str(got),
    }


def _rand_fraction(rng, num_bound=1000, den_bound=1000) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _rand_fraction_log(rng, max_exp=6.0) -> Fraction:
    num = rng.randint(0, int(10 ** (rng.random() * max_exp)))
    den = rng.randint(1, int(10 ** (rng.random() * max_exp)))
    if rng.random() < 0.5:
        num = -num
    return Fraction(num, den)


def _rand_interval(rng, num_bound=50, den_bound=20) -> tuple[Fraction, Fraction]:
    a = _rand_fraction(rng, num_bound, den_bound)
    w = abs(_rand_fraction(rng, num_bound, den_bound)) + Fraction(1, den_bound)
    return a, a + w


def _rand_surd(rng, num_bound=1000, den_bound=1000) -> QuadraticSurd:
    return QuadraticSurd(
        _rand_fraction(rng, num_bound, den_bound),
        _rand_fraction(rng, num_bound, den_bound),
    )


# anchors with small enumeration indices keep Cantor preimage searches cheap
_CANTOR_ANCHORS = (
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-2), Fraction(0)),
    (Fraction(-1), Fraction(1)),
    (Fraction(-1, 2), Fraction(0)),
)


def _rand_cantor_interval(rng) -> tuple[Fraction, Fraction]:
    a, b = _CANTOR_ANCHORS[rng.randrange(len(_CANTOR_ANCHORS))]
    jitter_l = Fraction(rng.randint(1, 100), 100)
    jitter_r = Fraction(rng.randint(1, 100), 100)
    return a - jitter_l, b + jitter_r


def _rand_map(rng, basis=_BASIS_123, singular_bias=0.5) -> AdditiveMap:
    n = basis.dim
    if rng.random() < singular_bias:
        r = rng.randint(0, n - 1)
        left = [[_rand_fraction(rng, 5, 4) for _ in range(r)] for _ in range(n)]
        right = [[_rand_fraction(rng, 5, 4) for _ in range(n)] for _ in range(r)]
        rows = tuple(
            tuple(
                sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
                for j in range(n)
            )
            for i in range(n)
        )
    else:
        rows = tuple(
            tuple(_rand_fraction(rng, 9, 7) for _ in range(n)) for _ in range(n)
        )
    return AdditiveMap(basis, rows)


def _rand_element(rng, basis=_BASIS_123, num_bound=20, den_bound=12) -> SpanElement:
    return SpanElement(
        basis, tuple(_rand_fraction(rng, num_bound, den_bound) for _ in range(basis.dim))
    )


# ---------------------------------------------------------------------------
# suites


def _per_trial(check):
    """Suite from a per-trial check: trial i runs check(_rng(seed, i)), and
    each (input, expected, got) it yields is a failure, kept in trial order."""

    def suite(trials, seed):
        return [_fail(i, *f) for i in range(trials) for f in check(_rng(seed, i))]

    return suite


@_per_trial
def _suite_expansion_roundtrip(rng):
    x = _rand_fraction_log(rng)
    base = 2 if rng.random() < 0.5 else 3
    back = from_expansion(to_expansion(x, base))
    if back != x:
        yield f"{x} base {base}", x, back


@_per_trial
def _suite_expansion_canonical(rng):
    base = 2 if rng.random() < 0.5 else 3
    # terminating values must come out terminating, not with a top cycle
    k = rng.randint(0, 12)
    x = Fraction(rng.randint(-(base**k), base**k), base**k)
    e = to_expansion(x, base)
    if e.cycle:
        yield f"{x} base {base}", "terminating", e.digit_str()


@_per_trial
def _suite_surd_order(rng):
    u, v = _rand_surd(rng), _rand_surd(rng)
    if surd_compare(u, v) != -surd_compare(v, u):
        yield (u, v), "antisymmetric", "asymmetric"
    a, b = _rand_fraction(rng), _rand_fraction(rng)
    rational_cmp = (a > b) - (a < b)
    if surd_compare(QuadraticSurd(a, 0), QuadraticSurd(b, 0)) != rational_cmp:
        yield (a, b), rational_cmp, "mismatch"


@_per_trial
def _suite_cylinder_soundness(rng):
    l, r = _rand_interval(rng)
    base = 2 if rng.random() < 0.5 else 3
    cyl = cylinder_for_interval(l, r, base)
    if not (cyl.value > l and cyl.right() < r):
        yield f"({l},{r}) base {base}", "inside", cyl


@_per_trial
def _suite_projection_identity(rng):
    from . import projections
    x = _rand_surd(rng)
    back = projections.rational_component(x) + projections.radical_component(x)
    if back != x:
        yield x, x, back


@_per_trial
def _suite_classify_soundness(rng):
    from . import projections
    fn = "p" if rng.random() < 0.5 else "q"
    t = _rand_surd(rng, 50, 20)
    if t.is_zero:
        t = QuadraticSurd(1, 0)
    cls = projections.classify_shift(fn, t)
    proj = projections.PROJECTIONS[fn]
    for _ in range(10):
        x = _rand_surd(rng, 50, 20)
        lhs = proj(x + t)
        rhs = proj(x)
        if cls.kind is ShiftKind.QUASIPERIOD:
            rhs = rhs + cls.increment
        if lhs != rhs:
            yield (fn, t, x), rhs, lhs
            return


@_per_trial
def _suite_density_witness(rng):
    from . import projections
    fn = "p" if rng.random() < 0.5 else "q"
    x_lo, x_hi = _rand_interval(rng)
    y_lo, y_hi = _rand_interval(rng)
    try:
        projections.density_witness(fn, x_lo, x_hi, y_lo, y_hi)
    except AssertionError:
        yield (fn, x_lo, x_hi, y_lo, y_hi), "witness", "verification failed"


@_per_trial
def _suite_h_roundtrip(rng):
    from . import ternary
    signed = rng.random() < 0.5
    y = _rand_fraction(rng, 100, 500)
    if not signed:
        y = abs(y)
    l, r = _rand_interval(rng)
    x = ternary.preimage(y, l, r, signed=signed)
    value = ternary.evaluate_signed(x) if signed else ternary.evaluate(x)
    if value != y or not (l < x < r):
        yield (y, l, r, signed), y, value


@_per_trial
def _suite_h_periodic(rng):
    from . import ternary
    x = _rand_fraction(rng, 500, 500)
    k = rng.randint(-5, 5)
    a, b = ternary.shift_pair(x, k)
    if a != b:
        yield (x, k), a, b


@_per_trial
def _suite_h_zero_cases(rng):
    from . import ternary
    # a cycle containing a 2 means infinitely many 2s: value 0
    cyc = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))] + [2]
    rng.shuffle(cyc)
    pre = [rng.randint(0, 2) for _ in range(rng.randint(0, 4))]
    try:
        e = DigitExpansion(3, 1, b"", bytes(pre), bytes(cyc))
    except ValueError:
        return  # the random digits missed canonical form; skip
    x = from_expansion(e)
    if ternary.evaluate(x) != 0:
        yield e.digit_str(), 0, ternary.evaluate(x)
    # at most one 2 anywhere: value 0
    few = [rng.randint(0, 1) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        few[rng.randrange(len(few))] = 2
    if few[-1] == 0:
        few[-1] = 1
    x2 = from_expansion(DigitExpansion(3, 1, b"", bytes(few), b""))
    if ternary.evaluate(x2) != 0:
        yield bytes(few), 0, ternary.evaluate(x2)


@_per_trial
def _suite_cantor_codec(rng):
    from . import cantor
    y = _rand_fraction(rng, 500, 200)
    back = cantor.decode_bits(cantor.encode_value(y))
    if back != y:
        yield y, y, back


def _suite_cantor_placement(trials, seed):
    from . import cantor
    bound = min(trials, 24)
    cantor.ensure_placed(bound)
    failures = []
    records = [cantor.placement_record(i) for i in range(bound)]
    for j, rec in enumerate(records):
        if not (rec["a"] < rec["c"] < rec["d"] < rec["b"]):
            failures.append(_fail(j, j, "containment", rec))
        for i in range(j):
            prev = records[i]
            cover = cantor._clipped_cover(
                prev["c"], prev["d"], rec["a"], rec["b"], rec["depth"]
            )
            for s, e in cover:
                if not (e < rec["c"] or s > rec["d"]):
                    failures.append(_fail(j, (i, j), "disjoint covers", (s, e)))
    return failures


@_per_trial
def _suite_cantor_roundtrip(rng):
    from . import cantor
    y = _rand_fraction(rng, 100, 64)
    l, r = _rand_cantor_interval(rng)
    x, idx = cantor.preimage(y, l, r)
    value, at = cantor.evaluate(x, idx + 1)
    if value != y or at != idx or not (l < x < r):
        yield (y, l, r), (y, idx), (value, at)


@_per_trial
def _suite_additive_periodic_iff_noninjective(rng):
    f = _rand_map(rng)
    kernel = kernel_basis(f)
    if bool(kernel) != (not is_injective(f)):
        yield f.rows, "kernel <-> non-injective", len(kernel)
        return
    if len(kernel) != f.basis.dim - rank(f):
        yield f.rows, "rank-nullity", len(kernel)
        return
    for k in kernel:
        if not apply_map(f, k).is_zero:
            yield f.rows, "kernel member is a period", k.coords
            return


@_per_trial
def _suite_additive_homogeneity(rng):
    f = _rand_map(rng, singular_bias=0.3)
    x, s = _rand_element(rng), _rand_element(rng)
    if not qspan.graph_translation_identity(f, x, s):
        yield (f.rows, x.coords, s.coords), True, False


@_per_trial
def _suite_additive_symmetry(rng):
    f = _rand_map(rng, singular_bias=0.3)
    x0, x = _rand_element(rng), _rand_element(rng)
    if not qspan.point_symmetry_identity(f, x0, x):
        yield (f.rows, x0.coords, x.coords), True, False


@_per_trial
def _suite_surjection_witness(rng):
    f = _rand_map(rng, singular_bias=1.0)
    if is_injective(f):
        return
    # over a surd basis every nonzero kernel vector has nonzero real
    # value, so steering is always available once the kernel is nontrivial
    y = apply_map(f, _rand_element(rng, num_bound=6, den_bound=4))
    l, r = _rand_interval(rng, 20, 8)
    w = surjection_witness(f, y, l, r)
    if apply_map(f, w) != y:
        yield (f.rows, y.coords), y.coords, apply_map(f, w).coords
    elif not (real_sign_offset(w, l) == 1 and real_sign_offset(w, r) == -1):
        yield (f.rows, y.coords, l, r), "inside", w.coords


SUITES = {
    "expansion-roundtrip": _suite_expansion_roundtrip,
    "expansion-canonical": _suite_expansion_canonical,
    "surd-order": _suite_surd_order,
    "cylinder-soundness": _suite_cylinder_soundness,
    "projection-identity": _suite_projection_identity,
    "classify-soundness": _suite_classify_soundness,
    "density-witness": _suite_density_witness,
    "h-roundtrip": _suite_h_roundtrip,
    "h-periodic": _suite_h_periodic,
    "h-zero-cases": _suite_h_zero_cases,
    "cantor-codec": _suite_cantor_codec,
    "cantor-placement": _suite_cantor_placement,
    "cantor-roundtrip": _suite_cantor_roundtrip,
    "additive-periodic-iff-noninjective": _suite_additive_periodic_iff_noninjective,
    "additive-homogeneity": _suite_additive_homogeneity,
    "additive-symmetry": _suite_additive_symmetry,
    "surjection-witness": _suite_surjection_witness,
}


class PropertyReport:
    def __init__(
        self, suite: str, trials: int, seed: int, failures: list | None = None, wall_ms: float = 0.0
    ):
        self.suite = suite
        self.trials = trials
        self.seed = seed
        self.failures = [] if failures is None else failures
        self.wall_ms = wall_ms

    @property
    def passed(self) -> bool:
        return not self.failures


def run_suite(name: str, trials: int, seed: int) -> PropertyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    start = time.perf_counter()
    failures = SUITES[name](trials, seed)
    wall = (time.perf_counter() - start) * 1000.0
    return PropertyReport(name, trials, seed, failures, wall)


def report_json(report: PropertyReport) -> str:
    """Canonical JSON body; wall time is deliberately left out so identical
    (suite, trials, seed) runs are byte-identical."""
    import json
    body = {
        "suite": report.suite,
        "trials": report.trials,
        "seed": report.seed,
        "passed": report.passed,
        "failures": report.failures,
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))
