"""Property round trips for the field literal codecs: `a+b*s2` surds and
comma-separated span coordinates."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wildfuncs.qspan import SpanBasis, SpanElement, format_element, parse_coords  # noqa: E402
from wildfuncs.surds import QuadraticSurd, format_surd, parse_surd  # noqa: E402

fixed = settings(derandomize=True, max_examples=100, deadline=None)

rationals = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
literals = st.builds(
    lambda n, d: f"{n}/{d}" if d != 1 else f"{n}",
    st.integers(-(10**12), 10**12),
    st.integers(1, 10**6),
)
BASES = [SpanBasis.from_strings(b) for b in (["1"], ["1", "sqrt:2", "sqrt:3"], ["sqrt:5", "opaque:pi", "1", "opaque:e"])]


@fixed
@given(rationals, rationals)
def test_surd_format_then_parse(a, b):
    u = QuadraticSurd(a, b)
    assert parse_surd(format_surd(u)) == u


@fixed
@given(literals, literals)
def test_surd_parse_then_format(a, b):
    u = parse_surd(f" {a}+{b}*s2 ")
    assert u == QuadraticSurd(F(a), F(b))
    assert format_surd(u) == f"{F(a)}+{F(b)}*s2"
    # a bare rational is its own surd with no sqrt(2) part
    assert parse_surd(a) == QuadraticSurd(F(a), 0)


@fixed
@given(st.sampled_from(BASES).flatmap(
    lambda basis: st.tuples(st.just(basis), st.lists(rationals, min_size=basis.dim, max_size=basis.dim))
))
def test_coords_format_then_parse(case):
    basis, coords = case
    x = SpanElement(basis, coords)
    assert parse_coords(format_element(x), basis) == x


@fixed
@given(st.sampled_from(BASES).flatmap(
    lambda basis: st.tuples(st.just(basis), st.lists(literals, min_size=basis.dim, max_size=basis.dim))
))
def test_coords_parse_then_format(case):
    basis, texts = case
    x = parse_coords(" , ".join(texts), basis)
    assert x.coords == tuple(F(t) for t in texts)
    assert format_element(x) == ",".join(str(F(t)) for t in texts)
