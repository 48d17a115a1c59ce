"""Property tests of the slice construction on random homogeneous
presentations, against the construction that reduces every spanning product
over the alphabet as given: the engine, which drops the letters that
single-word degree-1 relations kill, stores in each slice only the rows it
inserts, reads the letter shifts of the rows of the slices below through the
column's suffix, and inserts only the products g * m2, of every other
relation, degree 1 included, whose parent g * m2' (m2 = m2' * y) was neither
skipped nor dependent and whose m2 is not a pivot of the slice e - deg g,
each as r * y with r the row its parent stored, must have the same ranks,
lifted pivot words and remainders, its letters must be the alphabet less the
killed ones, and each slice must span those letter shifts.  Against
``RightShiftOnly``, the copying engine without that pivot (tip) rule, its
slices expanded by their letter shifts must hold the same rows, entry for
entry and type for type; the relations here have degrees 1-3, so the rule
reads slices e - 1 to e - 3.  Each of these runs in the canonical order and
in its reverse, on the presentation with its letters renamed; renamed to put
its letters in any drawn order, a presentation must keep its dims, ranks and
membership verdicts.  Against ``CopiedShifts``, the engine that copies those
shifts into each slice, relations scaled by drawn factors of either sign,
Fractions included, must give the same expanded rows, dims, quotient bases
and remainders.  Against ``RawProducts``, which inserts every such g * m2
raw, the same rescaled presentations must give the same own rows in value,
type and insertion order, and the same stats, dims, quotient bases and
remainders.

The elimination kernel itself, ``Echelon.insert`` and ``Echelon.reduce``, is
checked on random triangular stores against ``reference_reduce``, the
kernel as first written, which heaps every column of the vector; reduce
must return a new dict, equal to the vector when it holds no pivot column,
and a vector mutated after ``insert`` must leave the stored rows as they
were."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncomplex.complexes import NodeSet  # noqa: E402
from ncomplex.free_algebra import Poly, symbol_key, z  # noqa: E402
from ncomplex.presentations import Presentation, all_u_symbols  # noqa: E402
from ncomplex.quotient_engine import TruncatedIdealBasis  # noqa: E402
from test_free_algebra import assert_canonical  # noqa: E402
from test_quotient_engine import (  # noqa: E402
    CopiedShifts,
    RawProducts,
    assert_kernel_matches_reference,
    assert_only_own_rows,
    assert_same_own_rows,
    assert_same_rows,
    assert_same_construction,
    assert_tip_rule_keeps_rows,
    reference_insert,
    relabelled,
    rename,
    renaming,
    reversed_key,
    typed_terms,
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


def drawn_member(draw, pres, e):
    """A drawn element of the ideal's degree-e slice: the sum over the
    relations g of degree at most e of m1 * g * m2, m1 and m2 drawn."""
    alphabet = list(pres.alphabet)
    member = Poly.zero()
    for g in pres.relations:
        if g.degree() <= e:
            a = draw(st.integers(0, e - g.degree()))
            member = member + (polys(draw, alphabet, a) * g
                               * polys(draw, alphabet, e - g.degree() - a))
    return member


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
    member = drawn_member(data.draw, pres, e)
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
    member = drawn_member(data.draw, pres, e)
    for query in (q, member, q + member):
        assert basis.contains(query) == renamed.contains(rename(query, letters))


#: leading coefficients a relation is scaled to: unit, non-unit and
#: Fraction, of either sign
scales = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def rescaled_presentations(draw):
    """A presentation from either strategy with each relation scaled by a
    drawn factor, and 0-2 single-word kills, each scaled, appended."""
    pres, d = draw(st.one_of(presentations(), eliminating_presentations()))
    kills = draw(st.lists(st.sampled_from(pres.alphabet), max_size=2, unique=True))
    rels = [draw(scales) * g for g in pres.relations]
    rels += [draw(scales) * Poly.from_symbol(s) for s in kills]
    return Presentation("rescaled", pres.alphabet, tuple(rels)), d


def assert_same_quotient(basis, oracle, pres, data):
    """Equal dims, and at each degree equal quotient bases and remainders,
    types included, of a drawn query and of a drawn member plus it."""
    assert basis.dimensions() == oracle.dimensions()
    alphabet = list(pres.alphabet)
    for e in range(basis.max_degree + 1):
        assert basis.quotient_basis(e) == oracle.quotient_basis(e)
        q = polys(data.draw, alphabet, e)
        for query in (q, q + drawn_member(data.draw, pres, e)):
            assert typed_terms(basis.reduce(query)) == typed_terms(oracle.reduce(query))


@settings(max_examples=150, deadline=None)
@given(rescaled_presentations(), st.data())
def test_linked_slices_match_copied_shifts(case, data):
    """The engine, whose slices store only their own rows, against
    ``CopiedShifts``, whose slices copy the letter shifts: equal stats,
    expanded rows entry for entry and type for type, dims, quotient bases,
    and remainders of a drawn query and of a member plus it."""
    pres, d = case
    basis, oracle = TruncatedIdealBasis(pres, d), CopiedShifts(pres, d)
    assert basis.stats == oracle.stats
    assert_same_rows(basis, oracle)
    assert_only_own_rows(basis)
    assert_same_quotient(basis, oracle, pres, data)


@settings(max_examples=150, deadline=None)
@given(rescaled_presentations(), st.data())
def test_parent_rows_times_a_letter_match_raw_products(case, data):
    """The engine, which inserts each product g * m2 of a relation of degree
    below e as the row its parent stored times the last letter of m2,
    against ``RawProducts``, which inserts every g * m2 raw: equal stats,
    own rows in value, type and insertion order, dims, quotient bases, and
    remainders of a drawn query and of a member plus it."""
    pres, d = case
    basis, oracle = TruncatedIdealBasis(pres, d), RawProducts(pres, d)
    assert_same_own_rows(basis, oracle)
    assert_same_quotient(basis, oracle, pres, data)


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
