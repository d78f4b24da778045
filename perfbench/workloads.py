"""In-process workloads: seeded inputs, the timed operations and their checks.

A workload is a sequence of blocks.  Block b of a seed is a pure function of
(workload, seed, b), and every block of a workload has the same composition,
so a run that stops at a block boundary measures the same mix whatever its
length.  Each operation is a (kind, args) pair: `call_op` runs it through the
wildfuncs module attributes (which the tracer rebinds), `check_op` checks the
result afterwards against `reference`, outside the timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import lru_cache

from wildfuncs import cantor, exactcore, projections, qspan, surds, ternary

import reference as ref
from common import density_rect, frac, ternary_preimage_args


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


# ---------------------------------------------------------------------------
# long-digits: criterion-1 rationals, stratified by base-3 cycle length
#
# Cost grows about quadratically with the cycle length, and under plain
# random sampling a few rationals with cycles near 10**6 decide a run's
# total.  So each block of 1000 fixes how many rationals fall in each
# cycle-length stratum, in the shares the criterion-1 distribution gives
# them, rounded to whole rationals (the strata above 3.4*10**5 share one).
# Below 3*10**4 the rationals are drawn from that distribution by rejection
# into the strata; above it each stratum is represented by denominators
# p * 3**j with p a prime just above a fixed cycle length and both 2 and 3
# primitive roots mod p, so every base-2 and base-3 cycle has length p - 1.
# The last target, one rational per block, puts the base-coprime part just
# above 10**6, past today's largest strategy band.

LONG_BODY = ((0, 1, 226), (1, 10, 184), (10, 100, 205), (100, 1000, 184),
             (1000, 10_000, 130), (10_000, 30_000, 37))
LONG_TAIL = ((37_000, 10), (55_000, 8), (82_000, 5), (120_000, 5), (185_000, 3),
             (280_000, 1), (480_000, 1), (1_000_000, 1))
TINY_BODY = ((0, 1, 3), (1, 10, 3), (10, 100, 3), (100, 1000, 3), (1000, 10_000, 2), (10_000, 30_000, 1))
TINY_TAIL = ((37_000, 1), (1_000_000, 1))


def _criterion1(rng: random.Random) -> F:
    num = rng.randint(0, int(10 ** (rng.random() * 6)))
    den = rng.randint(1, int(10 ** (rng.random() * 6)))
    return F(num if rng.random() < 0.5 else -num, den)


@lru_cache(maxsize=None)
def _full_period_primes(target: int) -> tuple[int, ...]:
    width = min(target // 32, 4096)
    return tuple(
        p for p in range(target + 1, target + width)
        if ref.is_prime(p) and ref.multiplicative_order(2, p) == p - 1
        and ref.multiplicative_order(3, p) == p - 1
    )


def _long_block(rng: random.Random, tiny: bool) -> list:
    body, tail = (TINY_BODY, TINY_TAIL) if tiny else (LONG_BODY, LONG_TAIL)
    quota = [count for _, _, count in body]
    xs = []
    while any(quota):
        x = _criterion1(rng)
        length = ref.cycle_length(x.denominator, 3)
        for k, (lo, hi, _) in enumerate(body):
            if lo <= length < hi and quota[k]:
                quota[k] -= 1
                xs.append(x)
                break
    for target, count in tail:
        for p in rng.sample(_full_period_primes(target), count):
            while True:
                num = rng.randint(1, int(10 ** (rng.random() * 6))) * rng.choice((1, -1))
                x = F(num, p * 3 ** rng.randint(0, 1))
                if x.denominator % p == 0:
                    break
            xs.append(x)
    rng.shuffle(xs)
    return [("digits", (x,)) for x in xs]


def _digits(x):
    b2 = exactcore.from_expansion(exactcore.to_expansion(x, 2))
    b3 = exactcore.from_expansion(exactcore.to_expansion(x, 3))
    return b2, b3, ternary.evaluate(x), ternary.evaluate_signed(x)


def _check_digits(args, res):
    x, = args
    b2, b3, h, hs = res
    return b2 == x and b3 == x and h == ref.ternary_map(x) and hs == ref.ternary_map(x, True)


# ---------------------------------------------------------------------------
# short-calls: many small exact calls, field modules first

BASES = (("1", "sqrt:2", "sqrt:3"), ("1", "opaque:pi", "opaque:e"))
QSPAN_KINDS = ("kernel", "rank", "solve", "qclassify", "witness")
SHORT_MIX = (("surd_compare", 30), ("pq_classify", 30), ("density", 20), ("hs_grid", 20),
             ("h_period", 20), ("codec", 30))
QSPAN_PER_BASIS = 5


def _surd(rng, num_bound=1000, den_bound=1000):
    return surds.QuadraticSurd(frac(rng, num_bound, den_bound), frac(rng, num_bound, den_bound))


def _singular_map(rng, basis):
    # product of n x r and r x n factors, 1 <= r < n: the kernel is nontrivial
    n = basis.dim
    r = rng.randint(1, n - 1)
    left = [[frac(rng, 5, 4) for _ in range(r)] for _ in range(n)]
    right = [[frac(rng, 5, 4) for _ in range(n)] for _ in range(r)]
    rows = [[sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(n)]
            for i in range(n)]
    return qspan.AdditiveMap(basis, rows)


def _any_map(rng, basis):
    if rng.random() < 0.5:
        return _singular_map(rng, basis)
    return qspan.AdditiveMap(basis, [[frac(rng, 9, 7) for _ in range(basis.dim)] for _ in range(basis.dim)])


def _element(rng, basis, nonzero=False):
    while True:
        x = qspan.SpanElement(basis, [frac(rng, 12, 8) for _ in range(basis.dim)])
        if not (nonzero and x.is_zero):
            return x


def _short_op(kind: str, rng: random.Random, basis):
    if kind == "surd_compare":
        return (_surd(rng), _surd(rng))
    if kind == "pq_classify":
        t = _surd(rng, 60, 24)
        return (rng.choice("pq"), t if not t.is_zero else surds.QuadraticSurd(1, 1))
    if kind == "density":
        return density_rect(rng)
    if kind == "hs_grid":
        return ternary_preimage_args(rng, signed=True)
    if kind == "h_period":
        den = rng.randint(2, 10_000)
        return (F(rng.randint(1, den - 1), den), rng.choice((1, 2, -3)))
    if kind == "codec":
        return (frac(rng, 5000, 500),)
    if kind in ("kernel", "rank"):
        return (_any_map(rng, basis),)
    if kind == "solve":
        f = _any_map(rng, basis)
        return (f, qspan.apply_map(f, _element(rng, basis)))
    if kind == "qclassify":
        return (_any_map(rng, basis), _element(rng, basis, nonzero=True))
    if kind == "witness":
        f = _singular_map(rng, basis)
        l = frac(rng, 40, 6)
        return (f, qspan.apply_map(f, _element(rng, basis)), l, l + abs(frac(rng, 30, 6)) + F(1, 6))
    raise ValueError(kind)


def _short_block(rng: random.Random, tiny: bool) -> list:
    ops = []
    for kind, count in SHORT_MIX:
        ops += [(kind, _short_op(kind, rng, None)) for _ in range(1 if tiny else count)]
    for names in BASES:
        basis = qspan.SpanBasis.from_strings(names)
        for kind in QSPAN_KINDS:
            ops += [(kind, _short_op(kind, rng, basis)) for _ in range(1 if tiny else QSPAN_PER_BASIS)]
    rng.shuffle(ops)
    return ops


def _hs_grid(y, l, r):
    x = ternary.preimage(y, l, r, signed=True)
    return x, ternary.evaluate_signed(x)


def _witness_inside(f, w, y, l, r):
    return (qspan.apply_map(f, w) == y and qspan.real_sign_offset(w, l) == 1
            and qspan.real_sign_offset(w, r) == -1)


def _check_pq(args, res):
    fn, t = args
    inc = surds.QuadraticSurd(t.a, 0) if fn == "p" else surds.QuadraticSurd(0, t.b)
    if inc.is_zero:
        return res.kind is projections.ShiftKind.PERIOD and res.increment == inc
    same = ref.sqrt2_sign(t.a, t.b) == ref.sqrt2_sign(inc.a, inc.b)
    want = projections.Direction.INCREASING if same else projections.Direction.DECREASING
    return res.kind is projections.ShiftKind.QUASIPERIOD and res.increment == inc and res.direction is want


def _check_density(args, w):
    fn, x_lo, x_hi, y_lo, y_hi = args
    lt = lambda u, v: surds.surd_compare(u, v) == surds.LESS  # noqa: E731
    value = projections.PROJECTIONS[fn](w)
    q = surds.QuadraticSurd
    return lt(q(x_lo, 0), w) and lt(w, q(x_hi, 0)) and lt(q(y_lo, 0), value) and lt(value, q(y_hi, 0))


def _check_kernel(args, kernel):
    f, = args
    return (len(kernel) == f.basis.dim - ref.matrix_rank(f.rows)
            and all(not k.is_zero and qspan.apply_map(f, k).is_zero for k in kernel))


def _check_qclassify(args, res):
    f, t = args
    inc = qspan.apply_map(f, t)
    if inc.is_zero:
        return res.kind is projections.ShiftKind.PERIOD
    same = qspan.real_sign(t) == qspan.real_sign(inc)
    want = projections.Direction.INCREASING if same else projections.Direction.DECREASING
    return res.kind is projections.ShiftKind.QUASIPERIOD and res.increment == inc and res.direction is want


# ---------------------------------------------------------------------------
# cantor-session: one fresh process per block, cf queries in seeded order
#
# A session is a sequence of rounds, as a user who widens the search as they
# go: each round is one evaluation at the round's bound, then preimages.  The
# bound climbs in equal steps over the first half of the session and then
# stays at 160, so placement is built lazily, a few indices per round, by the
# evaluation that opens the round; one placing query per climbing round.
# Placement cost grows with the index, so with 19 of a session's 1900
# queries beyond op_p99_ms, that percentile falls among the later placing
# queries and sees placement cost.
#
# Preimage intervals are the criterion-7 anchors, drawn among those whose
# least enumeration index (39 to 147) is below the round's bound, so that
# preimages never place beyond it; a fixed share is exact and the rest are
# widened outward by up to 1/100, which can only lower the index.
# Evaluations at random points cost from microseconds to seconds, depending
# on how long an expansion the point needs in each Cantor hull it lies in, so
# every session evaluates the same points, the first points of one fixed
# draw, in the same order: the seed draws the preimages.

ANCHORS = (((F(-1), F(0)), 39), ((F(0), F(1)), 52), ((F(-1, 2), F(0)), 126),
           ((F(1), F(3)), 135), ((F(0), F(1, 2)), 147))
FIRST_BOUND, LAST_BOUND = 40, 160
# per session: rounds, rounds over which the bound climbs, preimages per
# round and how many of them are exact.  The widened ones, cheap and close
# in cost, are 79 percent of a session, so op_p50_ms falls where latencies
# are flat rather than between two groups.
SESSION = (100, 50, 18, 3)
TINY_SESSION = (4, 4, 3, 1)


def _eval_points(count: int) -> list:
    rng = random.Random("cantor-session/evaluation-points")
    return [F(rng.randint(-200, 300), rng.randint(1, 100)) for _ in range(count)]


def _cantor_block(rng: random.Random, tiny: bool) -> list:
    rounds, climb, preimages, exact = TINY_SESSION if tiny else SESSION
    ops = []
    for k, x in enumerate(_eval_points(rounds)):
        bound = FIRST_BOUND + (LAST_BOUND - FIRST_BOUND) * min(k + 1, climb) // climb
        ops.append(("cf_evaluate", (x, bound)))
        unlocked = [anchor for anchor, least in ANCHORS if least < bound]
        for j in range(preimages):
            a, b = rng.choice(unlocked)
            if j >= exact:
                a, b = a - F(rng.randint(1, 10), 1000), b + F(rng.randint(1, 10), 1000)
            ops.append(("cf_preimage", (F(rng.randint(-300, 300), rng.randint(1, 64)), a, b)))
    return ops


def _cf_preimage(y, l, r):
    x, n = cantor.preimage(y, l, r)
    return x, n, cantor.evaluate(x, n + 1)


def _check_cf_evaluate(args, res):
    x, bound = args
    hulls = [(rec["c"], rec["d"]) for rec in map(cantor.placement_record, range(bound))]
    return res == ref.cantor_value(x, hulls, bound)


# ---------------------------------------------------------------------------

BLOCKS = {"long-digits": _long_block, "short-calls": _short_block, "cantor-session": _cantor_block}

CALLS = {
    "digits": _digits,
    "surd_compare": lambda u, v: surds.surd_compare(u, v),
    "pq_classify": lambda fn, t: projections.classify_shift(fn, t),
    "density": lambda *a: projections.density_witness(*a),
    "hs_grid": _hs_grid,
    "h_period": lambda x, k: ternary.shift_pair(x, k),
    "codec": lambda y: cantor.decode_bits(cantor.encode_value(y)),
    "kernel": lambda f: qspan.kernel_basis(f),
    "rank": lambda f: qspan.rank(f),
    "solve": lambda f, y: qspan.solve_image(f, y),
    "qclassify": lambda f, t: qspan.classify_shift(f, t),
    "witness": lambda f, y, l, r: qspan.surjection_witness(f, y, l, r),
    "cf_preimage": _cf_preimage,
    "cf_evaluate": lambda x, bound: cantor.evaluate(x, bound),
}

CHECKS = {
    "digits": _check_digits,
    "surd_compare": lambda a, res: res == ref.sqrt2_sign(a[0].a - a[1].a, a[0].b - a[1].b),
    "pq_classify": _check_pq,
    "density": _check_density,
    "hs_grid": lambda a, res: a[1] < res[0] < a[2] and res[1] == a[0] and ref.ternary_map(res[0], True) == a[0],
    "h_period": lambda a, res: res[0] == res[1] == ref.ternary_map(a[0]),
    "codec": lambda a, res: res == a[0],
    "kernel": _check_kernel,
    "rank": lambda a, res: res == ref.matrix_rank(a[0].rows),
    "solve": lambda a, res: res is not None and qspan.apply_map(a[0], res) == a[1],
    "qclassify": _check_qclassify,
    "witness": lambda a, w: _witness_inside(a[0], w, *a[1:]),
    "cf_preimage": lambda a, res: a[1] < res[0] < a[2] and res[2] == (a[0], res[1]),
    "cf_evaluate": _check_cf_evaluate,
}


def make_block(workload: str, seed: int, block: int, tiny: bool = False) -> list:
    return BLOCKS[workload](block_rng(workload, seed, block), tiny)


def call_op(op):
    kind, args = op
    return CALLS[kind](*args)


def check_op(op, result) -> bool:
    kind, args = op
    return CHECKS[kind](args, result)
