"""Property round trips for the rational literal codec and the expansions,
an oracle for the literal grammar, and the cylinder search against a
brute-force scan.

Denominators reach about 2 * 10**5, so base-3 cycles run past the lane
cutoff of `exactcore._divide` as well as below it.
"""

import contextlib
import sys
from fractions import Fraction as F
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wildfuncs.exactcore import (  # noqa: E402
    cylinder_for_interval,
    format_rational,
    from_expansion,
    parse_rational,
    to_expansion,
)

import test_exactcore  # noqa: E402

fixed = settings(derandomize=True, max_examples=100, deadline=None)

denominators = st.integers(1, 10**4) | st.integers(10**4, 2 * 10**5)
rationals = st.builds(F, st.integers(-(10**6), 10**6), denominators)


@fixed
@given(rationals)
def test_format_then_parse(x):
    assert parse_rational(format_rational(x)) == x


@fixed
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_parse_then_format(n, d):
    # the canonical text is the reduced n/d, or the integer alone when the
    # denominator reduces to 1
    x = parse_rational(f"  {n}/{d}\n")
    assert x == F(n, d)
    g = gcd(n, d)
    canonical = f"{n // g}" if d == g else f"{n // g}/{d // g}"
    assert format_rational(x) == canonical
    assert parse_rational(canonical) == x


# the literal grammar restated without a regex: after strip(), an optional
# minus, then one or two runs of 1 to 4300 ASCII digits joined by "/", the
# second not all zeros
LITERAL_CHARS = "0123456789-/.e+_ "


def grammar_accepts(text: str) -> bool:
    body = text.strip()
    body = body[1:] if body.startswith("-") else body
    parts = body.split("/")
    return (
        len(parts) <= 2
        and all(0 < len(p) <= 4300 and set(p) <= set("0123456789") for p in parts)
        and (len(parts) == 1 or set(parts[1]) != {"0"})
    )


short_texts = st.text(LITERAL_CHARS, max_size=12)
# digit runs on both sides of the 4300-digit bound, wrapped in short noise
long_texts = st.builds(
    lambda head, n, digit, tail: head + digit * n + tail,
    st.text(LITERAL_CHARS, max_size=3),
    st.integers(4290, 4310),
    st.sampled_from("019"),
    st.text(LITERAL_CHARS, max_size=3),
)


@contextlib.contextmanager
def int_digits_unguarded():
    # the CLI lifts CPython's own int/str digit guard (3.10.7 and later), so
    # the oracle checks the parser's bound without it
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(short_texts | long_texts)
def test_parse_rational_oracle(text):
    with int_digits_unguarded():
        try:
            x = parse_rational(text)
        except ValueError:
            assert not grammar_accepts(text), text
        else:
            # Fraction(text) also takes exponents, so it sees accepted text only
            assert grammar_accepts(text), text
            assert x == F(text)


@pytest.mark.parametrize("base", (2, 3))
@fixed
@given(x=rationals)
def test_expansion_round_trip(base, x):
    e = to_expansion(x, base)
    assert from_expansion(e) == x
    assert to_expansion(from_expansion(e), base) == e


@pytest.mark.parametrize("base", (2, 3))
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-(10**4), 10**4), st.integers(1, 3000), st.integers(1, 10**4), st.integers(1, 10**6))
def test_cylinder_matches_brute_force(base, a, b, c, d):
    # the integer search against a brute-force scan of every depth, on
    # intervals down to 10**-6 wide
    l = F(a, b)
    r = l + F(c, d)
    cyl = cylinder_for_interval(l, r, base)
    assert (cyl.base, cyl.depth, cyl.value) == (base, *test_exactcore.TestCylinder._oracle(l, r, base, 24))
