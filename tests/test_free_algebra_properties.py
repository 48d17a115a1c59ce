"""Property tests of Poly subtraction and the commutator, which merge their
terms in one pass, against the compositions they stand for: p + (-q) and
p*q + (-(q*p))."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.free_algebra import Poly, commutator  # noqa: E402
from ncomplex.presentations import all_u_symbols, all_z_symbols  # noqa: E402
from test_free_algebra import assert_canonical  # noqa: E402


def polys(n):
    letters = all_z_symbols(n) + all_u_symbols(n)
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    coefficients = st.one_of(st.integers(-4, 4),
                             st.fractions(min_value=-4, max_value=4, max_denominator=6))
    return st.dictionaries(words, coefficients, max_size=5).map(Poly)


def assert_same(p, q):
    assert p == q and p._n == q._n
    assert_canonical(p)


def outcome(make):
    try:
        return make()
    except ValueError as exc:
        return f"refused: {exc}"


@settings(max_examples=300, deadline=None)
@given(polys(3), polys(3))
def test_match_the_composed_forms(p, r):
    # q = p and its multiples cancel to zero; p + r cancels p's terms only
    for q in (r, p, p.scale(Fraction(-3, 2)), p + r, r.scale(Fraction(1, 3)) + p):
        assert_same(p - q, p + (-q))
        assert_same(commutator(p, q), p * q + (-(q * p)))
    assert not p - p and not commutator(p, p.scale(2))


@settings(max_examples=200, deadline=None)
@given(polys(3), polys(4))
def test_refuse_mixed_universes_alike(p, q):
    for a, b in ((p, q), (q, p)):
        assert outcome(lambda: a - b) == outcome(lambda: a + (-b))
        assert outcome(lambda: commutator(a, b)) == outcome(lambda: a * b + (-(b * a)))
