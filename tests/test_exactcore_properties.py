"""Property round trips for the rational literal codec and the expansions.

Denominators reach about 2 * 10**5, so base-3 cycles run past the lane
cutoff of `exactcore._divide` as well as below it.
"""

from fractions import Fraction as F
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wildfuncs.exactcore import (  # noqa: E402
    format_rational,
    from_expansion,
    parse_rational,
    to_expansion,
)

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


@pytest.mark.parametrize("base", (2, 3))
@fixed
@given(x=rationals)
def test_expansion_round_trip(base, x):
    e = to_expansion(x, base)
    assert from_expansion(e) == x
    assert to_expansion(from_expansion(e), base) == e
