"""Property test of the slice construction on random homogeneous
presentations: the engine, which skips shifts of dependent rows, stores the
same rows as the construction that reduces every spanning product."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.free_algebra import Poly, reversed_symbol_key, symbol_key  # noqa: E402
from ncomplex.presentations import Presentation, all_u_symbols  # noqa: E402
from test_quotient_engine import assert_same_construction  # noqa: E402

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def presentations(draw):
    """1-3 letters, 1-4 nonzero relations of degrees 1-3, truncation
    degree 1-4."""
    alphabet = tuple(draw(st.lists(st.sampled_from(all_u_symbols(2)),
                                   min_size=1, max_size=3, unique=True)))
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        words = st.lists(st.sampled_from(alphabet), min_size=degree,
                         max_size=degree).map(tuple)
        g = Poly(draw(st.dictionaries(words, coefficients, min_size=1, max_size=4)))
        if g:
            relations.append(g)
    return Presentation("random", alphabet, tuple(relations)), draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(presentations(), st.sampled_from([symbol_key, reversed_symbol_key]))
def test_same_rows_as_reducing_every_product(case, key):
    pres, d = case
    assert_same_construction(pres, d, key)
