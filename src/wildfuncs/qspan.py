"""Finite-dimensional exact models of additive maps.

A basis declares finitely many real numbers (the unit 1, square roots of
distinct squarefree integers, or named constants with certified interval
evaluators); elements are rational coordinate vectors over it and additive
maps are rational matrices.  Linear algebra is exact; questions about the
real line (signs, ordering, interval membership) are answered through
certified enclosures that are exact for surd-only bases and degrade to an
explicit undecided outcome for named constants.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .exactcore import Record, parse_rational

DEFAULT_PRECISION = 128


class UndecidedComparisonError(Exception):
    """A comparison involving named constants ran out of precision budget."""


class ShiftKind(Enum):
    PERIOD = "period"
    QUASIPERIOD = "quasiperiod"


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class ShiftClass(Record):
    """Outcome of shifting a function by t: either a period (the function
    value is unchanged) or a quasiperiod with the given nonzero increment.
    `direction` records whether shift and increment agree in sign and is
    None for periods."""

    __slots__ = ("kind", "increment", "direction")

    def __init__(self, kind: ShiftKind, increment: object, direction: Direction | None):
        if (kind is ShiftKind.PERIOD) != (direction is None):
            raise ValueError("direction is carried exactly by quasiperiods")
        if (kind is ShiftKind.PERIOD) != increment.is_zero:
            raise ValueError("periods are exactly the zero-increment shifts")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "increment", increment)
        object.__setattr__(self, "direction", direction)


def shift_class(t, increment, sign) -> ShiftClass:
    """Classify the nonzero shift t whose increment is given: a period when
    the increment is zero, else a quasiperiod whose direction compares
    sign(t) with sign(increment).  `sign` returns -1, 0, +1, or None when
    it cannot decide."""
    if t.is_zero:
        raise ValueError("shift must be nonzero")
    if increment.is_zero:
        return ShiftClass(ShiftKind.PERIOD, increment, None)
    st, si = sign(t), sign(increment)
    if st is None or si is None or st == 0 or si == 0:
        raise UndecidedComparisonError(
            "shift direction is undecided at the configured precision"
        )
    direction = Direction.INCREASING if st == si else Direction.DECREASING
    return ShiftClass(ShiftKind.QUASIPERIOD, increment, direction)


# ---------------------------------------------------------------------------
# certified enclosures for the built-in named constants


def _atan_inv_bounds(n: int, terms: int) -> tuple[Fraction, Fraction]:
    # alternating series for atan(1/n); consecutive partial sums bracket it
    s = Fraction(0)
    sign = 1
    npow = n
    for j in range(terms):
        s += Fraction(sign, (2 * j + 1) * npow)
        sign = -sign
        npow *= n * n
    nxt = Fraction(sign, (2 * terms + 1) * npow)
    return (s + nxt, s) if nxt < 0 else (s, s + nxt)


@lru_cache(maxsize=None)
def _pi_enclosure(bits: int) -> tuple[Fraction, Fraction]:
    target = Fraction(1, 1 << bits)
    terms = bits // 4 + 2
    while True:
        lo5, hi5 = _atan_inv_bounds(5, terms)
        lo239, hi239 = _atan_inv_bounds(239, terms)
        lo = 16 * lo5 - 4 * hi239
        hi = 16 * hi5 - 4 * lo239
        if hi - lo <= target:
            return lo, hi
        terms *= 2


@lru_cache(maxsize=None)
def _e_enclosure(bits: int) -> tuple[Fraction, Fraction]:
    target = Fraction(1, 1 << bits)
    k = 8
    while True:
        s = Fraction(0)
        fact = 1
        for j in range(k + 1):
            if j:
                fact *= j
            s += Fraction(1, fact)
        rem = Fraction(2, fact * (k + 1))
        if rem <= target:
            return s, s + rem
        k *= 2


OPAQUE_ENCLOSURES = {"pi": _pi_enclosure, "e": _e_enclosure}

_UNIT_ENCLOSURE = (Fraction(1), Fraction(1))


@lru_cache(maxsize=None)
def _sqrt_enclosure(d: int, bits: int) -> tuple[Fraction, Fraction]:
    lo = Fraction(isqrt(d << (2 * bits)), 1 << bits)
    return lo, lo + Fraction(1, 1 << bits)


def _is_squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# bases, elements, maps


class Symbol(Record):
    """One declared basis number: the unit 1, sqrt(radicand), or a named
    constant (`pi` or `e`) with a certified evaluator in OPAQUE_ENCLOSURES."""

    __slots__ = ("kind", "radicand", "name")

    def __init__(self, kind: str, radicand: int = 0, name: str = ""):
        if kind == "sqrt":
            # _is_squarefree is trial division, O(sqrt(d)): 0.2 s at 10**12
            if radicand > 10**12:
                raise ValueError(f"radicand must be at most 10**12, got {radicand}")
            if radicand < 2 or not _is_squarefree(radicand):
                raise ValueError(f"radicand must be squarefree and >= 2, got {radicand}")
        elif kind == "opaque":
            if name not in OPAQUE_ENCLOSURES:
                raise ValueError(f"unknown opaque constant: {name!r}")
        elif kind != "one":
            raise ValueError(f"unknown symbol kind: {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "name", name)

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        if text == "1":
            return cls("one")
        if text.startswith("sqrt:"):
            if "/" in text:
                raise ValueError(f"radicand must be an integer literal, got {text[5:]!r}")
            return cls("sqrt", radicand=parse_rational(text[5:]).numerator)
        if text.startswith("opaque:"):
            return cls("opaque", name=text[7:])
        raise ValueError(f"unknown symbol: {text!r}")

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        if self.kind == "one":
            return _UNIT_ENCLOSURE
        if self.kind == "sqrt":
            return _sqrt_enclosure(self.radicand, bits)
        return OPAQUE_ENCLOSURES[self.name](bits)


class SpanBasis(Record):
    """Ordered basis of declared reals, asserted Q-linearly independent.

    Independence is checkable (and checked) only for the unit-and-surd case:
    distinct squarefree radicands plus at most one unit are independent.
    A repeated symbol of any kind is rejected: it would make the identity
    look injective while the difference of the two copies has no decidable
    sign.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[Symbol, ...]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("basis needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("basis symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def from_strings(cls, items) -> "SpanBasis":
        return cls(tuple(Symbol.parse(t) for t in items))

    @property
    def dim(self) -> int:
        return len(self.symbols)


class SpanElement(Record):
    __slots__ = ("basis", "coords")

    def __init__(self, basis: SpanBasis, coords: tuple[Fraction, ...]):
        if type(coords) is not tuple or any(type(q) is not Fraction for q in coords):
            coords = tuple(Fraction(q) for q in coords)
        if len(coords) != basis.dim:
            raise ValueError("coordinate count does not match basis size")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", coords)

    @property
    def is_zero(self) -> bool:
        return all(q == 0 for q in self.coords)

    def _join(self, other: "SpanElement") -> None:
        if self.basis != other.basis:
            raise ValueError("basis mismatch")

    def __add__(self, other: "SpanElement") -> "SpanElement":
        self._join(other)
        return SpanElement(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "SpanElement") -> "SpanElement":
        self._join(other)
        return SpanElement(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "SpanElement":
        return SpanElement(self.basis, tuple(-a for a in self.coords))

    def scale(self, q: Fraction) -> "SpanElement":
        q = Fraction(q)
        return SpanElement(self.basis, tuple(q * a for a in self.coords))


class AdditiveMap(Record):
    """Rational matrix over a span basis; column k holds the coordinates of
    the image of basis symbol k."""

    __slots__ = ("basis", "rows")

    def __init__(self, basis: SpanBasis, rows: tuple[tuple[Fraction, ...], ...]):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = basis.dim
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square with basis dimension")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rows", rows)


def apply_map(f: AdditiveMap, x: SpanElement) -> SpanElement:
    if f.basis != x.basis:
        raise ValueError("basis mismatch")
    coords = tuple(
        sum((r * c for r, c in zip(row, x.coords)), Fraction(0)) for row in f.rows
    )
    return SpanElement(f.basis, coords)


# ---------------------------------------------------------------------------
# exact linear algebra


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """The pivot rows of the reduced row echelon form, as integer rows, and
    the pivot columns, by fraction-free elimination.  Each row is scaled to
    integers and eliminated as `pv*a - f*b`, then divided by its content,
    so each row stays a nonzero multiple of the row a Fraction elimination
    would hold: the zero tests and the pivots are the same, and entry c of
    the i-th reduced row is `Fraction(row[c], row[pivots[i]])`.  The zero
    rows are left out."""
    m = []
    for r in rows:
        den = lcm(*(v.denominator for v in r))
        m.append([v.numerator * (den // v.denominator) for v in r])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
        pv = prow[col]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f:
                new = [pv * a - f * b for a, b in zip(m[r], prow)]
                g = gcd(*new)
                m[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m[: len(pivots)], pivots


# (f, rows, pivots) of the last solve_image that found a preimage, with f
# held by identity; replaced as one tuple, so a reader sees one whole entry
_last_elimination: tuple[AdditiveMap, list[list[int]], list[int]] | None = None


def rank(f: AdditiveMap) -> int:
    """Pivot count from forward elimination (no back-substitution)."""
    m = [list(r) for r in f.rows]
    n = f.basis.dim
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, n) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n):
            if m[i][col] != 0:
                factor = m[i][col] / m[r][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def kernel_basis(f: AdditiveMap) -> list[SpanElement]:
    """Basis of the null space; every member is a period of the map.

    When `f` is the very map object of the last `solve_image` call that
    found a preimage, the kernel is read from that call's elimination of
    `[A | y]`, whose first n columns are the reduced form of A; any other
    map is eliminated here.  Both give the same pivot rows up to a factor
    per row, so the same Fractions."""
    n = f.basis.dim
    memo = _last_elimination
    if memo is not None and memo[0] is f:
        rows, pivots = memo[1], memo[2]
    else:
        rows, pivots = _rref(f.rows)
    free = [c for c in range(n) if c not in pivots]
    out = []
    for fc in free:
        coords = [Fraction(0)] * n
        coords[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            coords[pc] = Fraction(-row[fc], row[pc])
        out.append(SpanElement(f.basis, tuple(coords)))
    return out


def is_injective(f: AdditiveMap) -> bool:
    return rank(f) == f.basis.dim


def solve_image(f: AdditiveMap, y: SpanElement) -> SpanElement | None:
    """One exact solution of f(x) = y, or None if y is outside the image.
    Free coordinates are set to zero.  When y is in the image, the pivot
    rows and pivots of the elimination are kept for `kernel_basis(f)`."""
    global _last_elimination
    if f.basis != y.basis:
        raise ValueError("basis mismatch")
    n = f.basis.dim
    augmented = [list(row) + [y.coords[i]] for i, row in enumerate(f.rows)]
    rows, pivots = _rref(augmented)
    if n in pivots:
        return None
    # only now: a pivot in column n would index past a kernel vector
    _last_elimination = (f, rows, pivots)
    coords = [Fraction(0)] * n
    for row, pc in zip(rows, pivots):
        coords[pc] = Fraction(row[n], row[pc])
    return SpanElement(f.basis, tuple(coords))


# ---------------------------------------------------------------------------
# certified real-line questions


def _opaque_support(x: SpanElement) -> bool:
    return any(
        q != 0 and s.kind == "opaque" for q, s in zip(x.coords, x.basis.symbols)
    )


def _enclosure_ints(x: SpanElement, bits: int) -> tuple[int, int, int, int]:
    """Certified bounds on the real value of x at the given precision, as
    `(lo_n, lo_d, hi_n, hi_d)`: integer numerators over one running positive
    denominator per bound, not reduced."""
    lo_n = hi_n = 0
    lo_d = hi_d = 1
    for q, sym in zip(x.coords, x.basis.symbols):
        qn = q.numerator
        if not qn:
            continue
        slo, shi = sym.enclosure(bits)
        if qn < 0:
            slo, shi = shi, slo
        qd = q.denominator
        d = qd * slo.denominator
        lo_n = lo_n * d + qn * slo.numerator * lo_d
        lo_d *= d
        d = qd * shi.denominator
        hi_n = hi_n * d + qn * shi.numerator * hi_d
        hi_d *= d
    return lo_n, lo_d, hi_n, hi_d


def enclosure_value(x: SpanElement, bits: int) -> tuple[Fraction, Fraction]:
    """Certified bounds on the real value of x at the given precision."""
    lo_n, lo_d, hi_n, hi_d = _enclosure_ints(x, bits)
    return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)


def real_sign_offset(x: SpanElement, offset: Fraction) -> int | None:
    """Exact sign of value(x) - offset; None only when opaque symbols are
    involved and DEFAULT_PRECISION bits do not decide it.

    Surds never equal the rational offset, so their enclosures separate
    from it; a rational x has an exact enclosure, lo == hi.  Each end is
    compared with the offset by cross-multiplying: every denominator is
    positive.
    """
    if not isinstance(offset, Fraction):
        offset = Fraction(offset)
    on, od = offset.numerator, offset.denominator
    bits = 32
    while True:
        lo, hi = enclosure_value(x, bits)
        if lo.numerator * od > on * lo.denominator:
            return 1
        if hi.numerator * od < on * hi.denominator:
            return -1
        if lo == hi:
            return 0
        if bits >= DEFAULT_PRECISION and _opaque_support(x):
            return None
        bits *= 2


def real_sign(x: SpanElement) -> int | None:
    return real_sign_offset(x, Fraction(0))


def classify_shift(f: AdditiveMap, t: SpanElement) -> ShiftClass:
    """Period when f(t) = 0, else quasiperiod with increment f(t); the
    direction compares the real-value signs of t and f(t)."""
    return shift_class(t, apply_map(f, t), real_sign)


def _grid_point(x0: SpanElement, steer: SpanElement, m: int, depth: int) -> SpanElement:
    """x0 + (m/2**depth)*steer, one Fraction per coordinate."""
    return SpanElement(x0.basis, tuple(
        Fraction((a.numerator * b.denominator << depth) + m * b.numerator * a.denominator,
                 a.denominator * b.denominator << depth)
        for a, b in zip(x0.coords, steer.coords)
    ))


def surjection_witness(f: AdditiveMap, y: SpanElement, l: Fraction, r: Fraction) -> SpanElement:
    """Exact x with f(x) = y whose real value lies strictly in (l, r).

    Solves for one preimage x0, then steers it along a kernel element of
    nonzero real value; the dyadic coefficient c is found on refining grids.
    The kernel comes from the elimination `solve_image` just made for x0, so
    the map is eliminated once.  At each grid the integer enclosures of x0
    and the steer already bound the value of x0 + c*steer, so a candidate
    they place at or below l, or at or above r, is skipped without being
    built.  Every other candidate is admitted only after the exact checks
    against l and then r, in grid order, so the witness is the first
    candidate the exact checks admit.  A skipped candidate is never checked,
    so one whose check would have run out of precision does not raise.
    """
    l, r = Fraction(l), Fraction(r)
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
    lr_d = l.denominator * r.denominator
    l_n, r_n = l.numerator * r.denominator, r.numerator * l.denominator
    depth = 0
    while depth <= 4 * DEFAULT_PRECISION:
        bits = 32 + depth
        a_lo, a_lod, a_hi, a_hid = _enclosure_ints(x0, bits)
        k_lo, k_lod, k_hi, k_hid = _enclosure_ints(steer, bits)
        # the six bounds as integer numerators over one positive denominator
        den = lcm(a_lod, a_hid, k_lod, k_hid, lr_d)
        a_lo *= den // a_lod
        a_hi *= den // a_hid
        k_lo *= den // k_lod
        k_hi *= den // k_hid
        ln, rn = l_n * (den // lr_d), r_n * (den // lr_d)
        if k_lo + k_hi:
            # floor(2**depth * (mid - mid(v0)) / mid(vk))
            base_m = ((ln + rn - a_lo - a_hi) << depth) // (k_lo + k_hi)
            below, above = (a_hi - ln) << depth, (a_lo - rn) << depth
            for m in range(base_m - 2, base_m + 4):
                # value(x0) + (m/2**depth)*value(steer) over the enclosures
                # in hand, times den*2**depth: at or below l, or at or above r
                if m >= 0:
                    outside = below + m * k_hi <= 0 or above + m * k_lo >= 0
                else:
                    outside = below + m * k_lo <= 0 or above + m * k_hi >= 0
                if outside:
                    continue
                x = _grid_point(x0, steer, m, depth)
                s_lo = real_sign_offset(x, l)
                if s_lo is None:
                    raise UndecidedComparisonError("interval check undecided")
                if s_lo <= 0:
                    continue
                s_hi = real_sign_offset(x, r)
                if s_hi is None:
                    raise UndecidedComparisonError("interval check undecided")
                if s_hi < 0:
                    return x
        depth += 1
    raise UndecidedComparisonError("no admissible coefficient within budget")


# ---------------------------------------------------------------------------
# graph identities


def graph_translation_identity(f: AdditiveMap, x: SpanElement, s: SpanElement) -> bool:
    """Translating the graph point (x, f(x)) by (s, f(s)) stays on the graph."""
    return apply_map(f, x + s) == apply_map(f, x) + apply_map(f, s)


def point_symmetry_identity(f: AdditiveMap, x0: SpanElement, x: SpanElement) -> bool:
    """The graph is symmetric about each of its points (x0, f(x0))."""
    return apply_map(f, x0.scale(2) - x) == apply_map(f, x0).scale(2) - apply_map(f, x)


# ---------------------------------------------------------------------------
# declaration files


def load_map(path: str) -> AdditiveMap:
    """Read an additive map declaration: a JSON object with a `basis` list
    of symbol strings and a `matrix` list of rows, each a list of rational
    literals (strings) or integers; both go through `parse_rational`.  Any
    other shape raises ValueError, and so do JSON floats and booleans: a
    float would decide an exact answer."""
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_int=parse_rational)
    if not isinstance(data, dict):
        raise ValueError("map file must hold a JSON object")
    basis, matrix = data.get("basis"), data.get("matrix")
    if not (isinstance(basis, list) and all(type(t) is str for t in basis)):
        raise ValueError("map file needs `basis`: a list of symbol strings")
    if not (isinstance(matrix, list) and all(
        isinstance(row, list) and all(type(v) in (str, Fraction) for v in row) for row in matrix
    )):
        raise ValueError(
            "map file needs `matrix`: a list of rows of rational strings or integers"
        )
    rows = tuple(tuple(parse_rational(v) if type(v) is str else v for v in row) for row in matrix)
    return AdditiveMap(SpanBasis.from_strings(basis), rows)


def parse_coords(text: str, basis: SpanBasis) -> SpanElement:
    return SpanElement(basis, tuple(parse_rational(p) for p in text.split(",")))


def format_element(x: SpanElement) -> str:
    return ",".join(str(q) for q in x.coords)
