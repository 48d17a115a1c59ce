"""Property tests of the expression parser against the canonical text form."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.free_algebra import Poly, poly_text, word_text  # noqa: E402
from ncomplex.parsing import parse_poly  # noqa: E402
from ncomplex.presentations import all_u_symbols, all_z_symbols  # noqa: E402
from test_free_algebra import assert_canonical  # noqa: E402

LETTERS = all_z_symbols(3) + all_u_symbols(3)

words = st.lists(st.sampled_from(LETTERS), max_size=3).map(tuple)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=9)
# the empty map is zero, the empty word a constant, and zero coefficients drop
polys = st.dictionaries(words, coefficients, max_size=6).map(Poly)


@settings(max_examples=200, deadline=None)
@given(polys)
def test_text_round_trip(p):
    text = poly_text(p)
    assert parse_poly(text, 3) == p
    # the unit generator, and spaces between and inside tokens
    assert parse_poly(f"u({{}}) * ({text})", 3) == p
    spaced = text.replace("*", " * ").replace("(", " ( ").replace(",", " , ")
    assert parse_poly(spaced, 3) == p
    # terms that cancel inside one sum leave nothing behind
    assert parse_poly(f"{text} - ({text})", 3) == Poly.zero()


@settings(max_examples=100, deadline=None)
@given(words, coefficients)
def test_term_with_unit_factors(w, c):
    # u({}) may stand between any two factors of a term
    factors = [f"({c})"] + [f for s in w for f in ("u({})", str(s))] + ["u({})"]
    assert parse_poly("*".join(factors), 3) == Poly({w: c})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(words, coefficients), max_size=6))
def test_parsed_coefficients_are_int_where_integral(terms):
    # terms may repeat a word, so fractions can sum to an integer (or to 0)
    text = " + ".join(f"({c})*{word_text(w)}" for w, c in terms) or "0"
    p = parse_poly(text, 3)
    assert_canonical(p)
    total = Poly.zero()
    for w, c in terms:
        total = total + Poly.term(c, w)
    assert p == total
    assert_canonical(parse_poly(f"{text.replace('/', ' / ')} - 3/3", 3))
