"""Property tests of term-map arithmetic.  Every sum of term maps in the
package goes through two helpers in free_algebra, so +, -, *, commutator,
substitute and parse_poly are checked against a plain dict-of-Fraction
expansion written here; subtraction and the commutator are also checked
against the compositions they stand for, p + (-q) and p*q + (-(q*p))."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.complexes import NodeSet  # noqa: E402
from ncomplex.free_algebra import Poly, commutator, substitute, u, word_text  # noqa: E402
from ncomplex.parsing import parse_poly  # noqa: E402
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


# signed sums over n = 2 (7 letters), so that words repeat and terms cancel
LETTERS = all_z_symbols(2) + all_u_symbols(2)
COEFFICIENTS = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-4, max_value=4, max_denominator=6))


def signed_sums(max_word=2):
    words = st.lists(st.sampled_from(LETTERS), max_size=max_word).map(tuple)
    return st.lists(st.tuples(words, COEFFICIENTS), max_size=5)


def expand(terms):
    """The term map of a list of (word, coefficient) pairs, zeros dropped."""
    out = {}
    for w, c in terms:
        out[w] = out.get(w, Fraction(0)) + Fraction(c)
    return {w: c for w, c in out.items() if c}


def products(left, right):
    return [(w1 + w2, Fraction(c1) * c2) for w1, c1 in left for w2, c2 in right]


def negated(terms):
    return [(w, -c) for w, c in terms]


def assert_expands_to(r, terms):
    want = expand(terms)
    assert r.terms == want
    assert r._n == (2 if any(want) else None)
    for c in r.terms.values():
        assert c and type(c) is (int if c.denominator == 1 else Fraction), repr(c)


@settings(max_examples=300, deadline=None)
@given(signed_sums(), signed_sums(), st.fixed_dictionaries(
    {s: signed_sums(max_word=1) for s in LETTERS}))
def test_match_a_plain_expansion(p, r, images):
    P = Poly(expand(p))
    # P - p and P + (-p) cancel to zero; p + r cancels p's terms only
    for q in (r, p, negated(p), p + r):
        Q = Poly(expand(q))
        assert_expands_to(P + Q, p + q)
        assert_expands_to(P - Q, p + negated(q))
        assert_expands_to(P * Q, products(p, q))
        assert_expands_to(commutator(P, Q), products(p, q) + negated(products(q, p)))
    substituted = []
    for w, c in p:
        partial = [((), Fraction(c))]
        for s in w:
            partial = products(partial, images[s])
        substituted += partial
    assert_expands_to(substitute(P, {s: Poly(expand(t)) for s, t in images.items()}),
                      substituted)
    for q in (p, p + r + negated(p)):
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{word_text(w)}" for w, c in q)
        assert_expands_to(parse_poly(text.lstrip("+ ") or "0", 2), q)


def test_substitute_checks_universes_per_word_and_on_what_survives():
    def letter(v):
        return u(NodeSet.of((v,), 3))

    def image(v, n):
        return Poly.from_symbol(u(NodeSet.of((v,), n)))

    s1, s2, s3 = letter(1), letter(2), letter(3)
    # each word's image mixes n = 3 and n = 4, and the two images cancel
    mixed_words = Poly({(s1, s2): 1, (s3, s2): -1})
    with pytest.raises(ValueError, match="mixed universes: n=3 vs n=4"):
        substitute(mixed_words, {s1: image(1, 3), s2: image(1, 4), s3: image(1, 3)})
    # across words, the n = 4 images cancel and only the n = 3 term is checked
    cancelling = Poly({(s1,): 1, (s2,): 1, (s3,): -1})
    kept = substitute(cancelling, {s1: image(1, 3), s2: image(1, 4), s3: image(1, 4)})
    assert kept == image(1, 3) and kept._n == 3
