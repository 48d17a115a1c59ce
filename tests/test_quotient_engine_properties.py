"""Property tests of the slice construction on random homogeneous
presentations, against the construction that reduces every spanning product
over the alphabet as given: the engine, which drops the letters that
single-word degree-1 relations kill, copies the letter shifts of the rows
stored at the degree below and inserts only the products g * m2, of every
other relation, degree 1 included, that are neither right shifts of
dependent rows nor g * m2 with m2 a pivot of the slice e - deg g, must have
the same ranks, lifted pivot words and remainders, its letters must be the
alphabet less the killed ones, and each slice must hold those letter shifts.
Against ``RightShiftOnly``, the engine without that pivot (tip) rule, it
must store the same rows, entry for entry and type for type; the relations
here have degrees 1-3, so the rule reads slices e - 1 to e - 3.  Each of
these runs in the canonical order and in its reverse, on the presentation
with its letters renamed; renamed to put its letters in any drawn order, a
presentation must keep its dims, ranks and membership verdicts.

The elimination kernel itself, ``Echelon.insert`` and ``Echelon.reduce``, is
checked on random triangular stores against ``reference_reduce``, the
kernel as first written, which heaps every column of the vector."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.complexes import NodeSet  # noqa: E402
from ncomplex.free_algebra import Poly, symbol_key, z  # noqa: E402
from ncomplex.presentations import Presentation, all_u_symbols  # noqa: E402
from ncomplex.quotient_engine import TruncatedIdealBasis  # noqa: E402
from test_free_algebra import assert_canonical  # noqa: E402
from test_quotient_engine import (  # noqa: E402
    assert_kernel_matches_reference,
    assert_same_construction,
    assert_tip_rule_keeps_rows,
    reference_insert,
    relabelled,
    rename,
    renaming,
    reversed_key,
)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
keys = st.sampled_from([symbol_key, reversed_key])


def relations(draw, alphabet, degrees, count):
    out = []
    for _ in range(draw(count)):
        degree = draw(degrees)
        words = st.lists(st.sampled_from(alphabet), min_size=degree,
                         max_size=degree).map(tuple)
        g = Poly(draw(st.dictionaries(words, coefficients, min_size=1, max_size=4)))
        if g:
            out.append(g)
    return out


@st.composite
def presentations(draw):
    """1-3 letters, 1-4 nonzero relations of degrees 1-3, truncation
    degree 1-4."""
    alphabet = tuple(draw(st.lists(st.sampled_from(all_u_symbols(2)),
                                   min_size=1, max_size=3, unique=True)))
    rels = relations(draw, alphabet, st.integers(1, 3), st.integers(1, 4))
    return Presentation("random", alphabet, tuple(rels)), draw(st.integers(1, 4))


@st.composite
def eliminating_presentations(draw):
    """2-4 letters; 0-2 single-word kills and 0-2 degree-1 relations of
    several terms (at least one degree-1 relation), 0-3 nonzero relations of
    degrees 2-3, all in a drawn order; truncation degree 1-3."""
    alphabet = tuple(draw(st.lists(st.sampled_from(all_u_symbols(3)),
                                   min_size=2, max_size=4, unique=True)))
    kills = [Poly.from_symbol(s) for s in
             draw(st.lists(st.sampled_from(alphabet), max_size=2, unique=True))]
    linear = [g for g in relations(draw, alphabet, st.just(1), st.integers(0, 2))
              if len(g.terms) > 1]
    if not kills and not linear:
        kills = [Poly.from_symbol(draw(st.sampled_from(alphabet)))]
    rels = draw(st.permutations(
        kills + linear + relations(draw, alphabet, st.integers(2, 3), st.integers(0, 3))))
    return Presentation("random", alphabet, tuple(rels)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(presentations(), keys)
def test_same_rows_as_reducing_every_product(case, key):
    pres, d = case
    assert_same_construction(pres, d, key)


@settings(max_examples=150, deadline=None)
@given(eliminating_presentations(), keys)
def test_elimination_agrees_with_reducing_every_product(case, key):
    pres, d = case
    assert_same_construction(pres, d, key)


@settings(max_examples=200, deadline=None)
@given(st.one_of(presentations(), eliminating_presentations()), keys)
def test_tip_rule_keeps_every_row(case, key):
    pres, d = case
    assert_tip_rule_keeps_rows(pres, d, key)


def polys(draw, alphabet, degree):
    words = st.lists(st.sampled_from(alphabet), min_size=degree,
                     max_size=degree).map(tuple)
    return Poly(draw(st.dictionaries(words, coefficients, max_size=4)))


def raised(call, q):
    try:
        call(q)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"no ValueError for {q}")


@settings(max_examples=100, deadline=None)
@given(st.one_of(presentations(), eliminating_presentations()), keys, st.data())
def test_contains_is_reduce_to_zero(case, key, data):
    """contains(q) is (not reduce(q)) on zero, member and random queries with
    non-integer coefficients, every remainder holds an int exactly where its
    coefficient is integral, and both refuse a bad query with one message."""
    pres, d = case
    pres = relabelled(pres, key)
    basis = TruncatedIdealBasis(pres, d)
    alphabet = list(pres.alphabet)
    e = data.draw(st.integers(0, d))
    q = polys(data.draw, alphabet, e)
    member = Poly.zero()
    for g in pres.relations:
        if g.degree() <= e:
            a = data.draw(st.integers(0, e - g.degree()))
            m1 = polys(data.draw, alphabet, a)
            m2 = polys(data.draw, alphabet, e - g.degree() - a)
            member = member + m1 * g * m2
    for query in (Poly.zero(), member, q, q + member):
        assert basis.contains(query) == (not basis.reduce(query))
        assert_canonical(basis.reduce(query))
    assert not basis.reduce(member)
    assert basis.reduce(q + member) == basis.reduce(q)
    x = Poly.from_symbol(alphabet[0])
    over = Poly.term(1, (alphabet[0],) * (d + 1))
    stray = Poly.from_symbol(z(NodeSet.of((), 3), 1))
    for bad in (over, x + x * x, stray):
        assert raised(basis.contains, bad) == raised(basis.reduce, bad)


@settings(max_examples=150, deadline=None)
@given(st.one_of(presentations(), eliminating_presentations()), st.data())
def test_any_letter_order_gives_the_same_quotient(case, data):
    """Renamed so that its canonical order is any drawn order of its
    letters, a presentation has the same dims, rows generated and ranks, and
    a query lies in the ideal exactly when its renaming does.  rows_reduced
    is not compared: which products the tip rule skips depends on the order."""
    pres, d = case
    order = data.draw(st.permutations(pres.alphabet))
    letters = renaming(pres.alphabet, order.index)
    basis = TruncatedIdealBasis(pres, d)
    renamed = TruncatedIdealBasis(relabelled(pres, order.index), d)
    assert basis.dimensions() == renamed.dimensions()
    assert ([(s.rows_generated, s.rank) for s in basis.stats]
            == [(s.rows_generated, s.rank) for s in renamed.stats])
    alphabet = list(pres.alphabet)
    e = data.draw(st.integers(0, d))
    q = polys(data.draw, alphabet, e)
    member = Poly.zero()
    for g in pres.relations:
        if g.degree() <= e:
            a = data.draw(st.integers(0, e - g.degree()))
            m1 = polys(data.draw, alphabet, a)
            m2 = polys(data.draw, alphabet, e - g.degree() - a)
            member = member + m1 * g * m2
    for query in (q, member, q + member):
        assert basis.contains(query) == renamed.contains(rename(query, letters))


entries = st.one_of(st.integers(-3, 3), coefficients).filter(bool)


@st.composite
def kernel_cases(draw):
    """Up to 12 vectors over 1-10 columns, int and Fraction entries (some
    Fractions integral), inserted in turn; about half of them, and every
    query, are combinations of earlier vectors or stored rows plus a few
    further entries, so columns cancel and fill again as the rows are
    subtracted.  Queries cover columns on and off the pivots."""
    width = draw(st.integers(1, 10))
    vectors = st.dictionaries(st.integers(0, width - 1), entries, max_size=width)

    def combination(pool):
        out = dict(draw(vectors))
        for vec in draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else ():
            c = draw(entries)
            for col, x in vec.items():
                acc = out.get(col, 0) + c * x
                if acc:
                    out[col] = acc
                else:
                    out.pop(col, None)
        return out

    inserted, pivots = [], {}
    for _ in range(draw(st.integers(0, 12))):
        vec = combination(inserted) if draw(st.booleans()) else draw(vectors)
        if vec:
            inserted.append(vec)
            reference_insert(pivots, vec)
    rows = list(pivots.values())
    queries = [combination(rows) for _ in range(draw(st.integers(1, 6)))]
    return inserted, queries


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_matches_the_reference(case):
    inserted, queries = case
    assert_kernel_matches_reference(inserted, queries)
