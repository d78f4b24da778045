"""Independent references used to generate inputs and check outputs.

Nothing here imports wildfuncs: the checks must not share code with the
program they check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def strip_factor(n: int, p: int) -> tuple[int, int]:
    """(m, e) with n = m * p**e and p not dividing m."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(b: int, m: int) -> int:
    """Least n >= 1 with b**n = 1 (mod m); 0 when m == 1 (no cycle)."""
    if m == 1:
        return 0
    if gcd(b, m) != 1:
        raise ValueError("base and modulus share a factor")
    phi = m
    for p in factorize(m):
        phi = phi // p * (p - 1)
    order = phi
    for p in factorize(phi):
        while order % p == 0 and pow(b, order // p, m) == 1:
            order //= p
    return order


def cycle_length(den: int, base: int) -> int:
    """Length of the repeating block of any reduced fraction over den."""
    return multiplicative_order(base, strip_factor(den, base)[0])


def _binary_value(bits: list[int]) -> int:
    v = 0
    for b in bits:
        v = 2 * v + b
    return v


def ternary_map(x: Fraction, signed: bool = False) -> Fraction:
    """h(x) (or hs(x)) by base-3 long division with remainder tracking.

    The fractional digits are generated one at a time.  The preperiod has
    exactly as many digits as the power of 3 in the denominator; the cycle
    ends when the remainder returns to its value after the preperiod.  The
    value is 0 when the preperiod holds fewer than two 2s or the cycle holds
    a 2; otherwise the digits between the last two 2s are a binary integer
    and the digits after the last 2 (cycle included) a binary fraction.
    """
    num, den = x.numerator % x.denominator, x.denominator
    _, pre = strip_factor(den, 3)
    prefix = []
    r = num
    for _ in range(pre):
        d, r = divmod(3 * r, den)
        prefix.append(d)
    twos = [i for i, d in enumerate(prefix) if d == 2]
    if len(twos) < 2:
        return Fraction(0)
    cycle = []
    if r:
        r0 = r
        while True:
            d, r = divmod(3 * r, den)
            if d == 2:
                return Fraction(0)
            cycle.append(d)
            if r == r0:
                break
    i, j = twos[-2], twos[-1]
    block, tail = prefix[i + 1 : j], prefix[j + 1 :]
    frac = Fraction(_binary_value(tail), 1 << len(tail))
    if cycle:
        frac += Fraction(_binary_value(cycle), ((1 << len(cycle)) - 1) << len(tail))
    if not signed:
        return _binary_value(block) + frac
    if not block:
        return frac
    magnitude = _binary_value(block[1:]) + frac
    return magnitude if block[0] == 1 else -magnitude


def sqrt2_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2) by comparing squares over a common denominator."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def matrix_rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / m[rank][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def surd_sum_sign(coords, radicands) -> int:
    """Sign of sum(q * sqrt(n)) by interval bounds of growing precision;
    radicand 1 is the unit.  The sum must be nonzero unless all q are 0."""
    if all(q == 0 for q in coords):
        return 0
    bits = 16
    while True:
        lo = hi = Fraction(0)
        for q, n in zip(coords, radicands):
            root_lo = Fraction(isqrt(n << (2 * bits)), 1 << bits)
            root_hi = root_lo if root_lo * root_lo == n else root_lo + Fraction(1, 1 << bits)
            lo += q * (root_lo if q > 0 else root_hi)
            hi += q * (root_hi if q > 0 else root_lo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def cantor_digits(t: Fraction):
    """(prefix, cycle) ternary digits of t in [0, 1] written with 0s and 2s
    only, or None.  A terminating expansion ending in its only 1 is also
    read in its alternative form ...0(2)."""
    if t == 0:
        return [], []
    if t == 1:
        return [], [2]
    num, den = t.numerator, t.denominator
    _, pre = strip_factor(den, 3)
    prefix = []
    r = num
    for _ in range(pre):
        d, r = divmod(3 * r, den)
        prefix.append(d)
    if r == 0:
        if 1 not in prefix:
            return prefix, []
        if prefix[-1] == 1 and 1 not in prefix[:-1]:
            return prefix[:-1] + [0], [2]
        return None
    if 1 in prefix:
        return None
    cycle = []
    r0 = r
    while True:
        d, r = divmod(3 * r, den)
        if d == 1:
            return None
        cycle.append(d)
        if r == r0:
            return prefix, cycle


def decode_stream(prefix: list[int], cycle: list[int]) -> Fraction:
    """Value of an eventually periodic bit stream under the Cantor codec:
    sign bit (1 is +), a unary run of 1s giving the integer bit count, a 0,
    the integer bits, then the binary fraction.  A run that never ends is 0."""

    def bit(i):
        if i < len(prefix):
            return prefix[i]
        return cycle[(i - len(prefix)) % len(cycle)] if cycle else 0

    limit = len(prefix) + len(cycle) + 1
    z = 1
    while bit(z) == 1:
        z += 1
        if z > limit:
            return Fraction(0)
    count = z - 1
    integer = _binary_value([bit(z + 1 + k) for k in range(count)])
    start = z + 1 + count
    n = len(cycle)
    if start >= len(prefix):
        if not n:
            frac = Fraction(0)
        else:
            off = (start - len(prefix)) % n
            frac = Fraction(_binary_value(cycle[off:] + cycle[:off]), (1 << n) - 1)
    else:
        tail = prefix[start:]
        frac = Fraction(_binary_value(tail), 1 << len(tail))
        if n:
            frac += Fraction(_binary_value(cycle), ((1 << n) - 1) << len(tail))
    value = integer + frac
    return value if bit(0) == 1 else -value


def cantor_value(x: Fraction, hulls, bound: int) -> tuple[Fraction, int]:
    """Cantor-family value at x given the placed hulls [(c, d), ...]: the
    decoded halved digits in the first set holding x, else (0, bound)."""
    for i in range(bound):
        c, d = hulls[i]
        t = (x - c) / (d - c)
        if 0 <= t <= 1:
            digits = cantor_digits(t)
            if digits is not None:
                prefix, cycle = digits
                return decode_stream([v >> 1 for v in prefix], [v >> 1 for v in cycle]), i
    return Fraction(0), bound
