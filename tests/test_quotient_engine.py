"""Tests for the degree-truncated ideal engine.

The independent oracle here is a dense Gaussian elimination written from
scratch below: spanning rows are produced by plain polynomial multiplication
(m1 * g * m2 over the Poly layer), laid out densely over the canonical word
list, and rank/membership are read off the dense echelon.  The engine must
agree with it on every tested presentation.

A second oracle, ``reduce_every_product``, is the slice construction that
passes every spanning product through ``Echelon.insert`` over the alphabet as
given.  The engine drops the letters that single-word degree-1 relations
kill, stores in each slice only the rows it inserts, reads the letter shifts
of the rows of the slices below through the column's suffix, and inserts
only the products g * m2, of every other relation, whose parent g * m2'
(m2 = m2' * y) was neither skipped nor dependent and whose m2 is not a pivot
column (a tip) of the slice e - deg g; it must have the same ranks, the same
pivot words once its own are lifted back to the given alphabet, and the same
remainders, and each slice must span the letter shifts of the rows of the
degree below.

``RawProducts`` is the engine before it inserted each such product as r * y,
r the row its parent stored: it inserts every g * m2 raw and passes on only
dependent flags.  r * y lies in g * m2's coset of the span so far, so the
engine's own rows must be exactly its, in value, type and insertion order,
with the same stats, dims and remainders.

``expanded_rows`` rebuilds a slice's full row set, its own rows plus the
letter shifts of the lower slices, and the last two oracles are read
through it.  ``CopiedShifts`` is ``RawProducts`` as it was before the slices
linked to the slice below: each slice first copies those shifts, entry by
entry.  ``RightShiftOnly`` is ``CopiedShifts`` without the tip rule.  A
skipped product is dependent, so the engine's expanded rows must be exactly
theirs, entry for entry and type for type, with the same dims and
remainders.
"""

import hashlib
import heapq
import random
import time
from fractions import Fraction
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest

from ncomplex.complexes import (
    NodeSet,
    closure,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_complexes,
    path_graph,
    star_graph,
)
from ncomplex.free_algebra import (
    Poly,
    commutator,
    exact,
    poly_text,
    substitute,
    symbol_key,
    u,
    word_key,
    z,
)
from ncomplex.presentations import (
    Presentation,
    _instances,
    all_z_symbols,
    graph_presentation,
    qF_presentation,
    qn_presentation,
    rel_4,
    rel_additive,
)
from ncomplex.quotient_engine import (
    Echelon,
    TruncatedIdealBasis,
    _index_word,
    graded_dimension,
)
from test_free_algebra import assert_canonical
from test_presentations import all_graphs


def ns(*elems, n=3):
    return NodeSet.of(elems, n)


def up(*elems, n=3):
    return Poly.from_symbol(u(NodeSet.of(elems, n)))


def mixed_presentation():
    """Relations with non-unit leading coefficients and non-integral
    coefficients, so pivot normalisation divides inexactly (and, for the
    last relation, exactly by 2)."""
    alphabet = (u(ns(1, n=2)), u(ns(2, n=2)), u(ns(1, 2, n=2)))
    a, b, c = (Poly.from_symbol(s) for s in alphabet)
    rels = (2 * a * b - 3 * b * a,
            Fraction(1, 2) * a * a + Fraction(2, 3) * b * b - a * b,
            4 * c * a - 6 * b * c,
            2 * c * c - 4 * a * b)
    return Presentation("mixed(n=2)", alphabet, rels)


#: the membership benchmark's complex: K4 with {1,2,3} filled in
K4_123 = closure([[1, 2, 3]] + [[i, j] for i in range(1, 5) for j in range(i + 1, 5)], 4)


def stored_entries(echelons):
    """The entries of the rows each echelon stores itself."""
    return [x for ech in echelons for row in ech.pivots.values() for x in row.values()]


def expanded_rows(basis, e):
    """Slice e's full row set, pivot -> row: the rows it stores and, when it
    links to the slice below, the letter shift x * r of every row r of the
    full set of slice e - 1, for each of the k letters x."""
    ech = basis.slices[e]
    rows = dict(ech.pivots)
    if ech.below is not None:
        step = basis.k ** (e - 1)
        for piv, row in expanded_rows(basis, e - 1).items():
            for base in range(0, basis.k * step, step):
                rows[base + piv] = {base + c: x for c, x in row.items()}
    return rows


def expanded_entries(basis):
    """The entries of every slice's full row set."""
    return [x for e in range(basis.max_degree + 1)
            for row in expanded_rows(basis, e).values() for x in row.values()]


def row_digest(basis):
    """sha256 over every slice's full row set as (degree, pivot, sorted
    (column, str(Fraction(x)))): equal digests mean equal rows, whatever the
    types."""
    h = hashlib.sha256()
    for e in range(basis.max_degree + 1):
        rows = expanded_rows(basis, e)
        for piv in sorted(rows):
            row = rows[piv]
            h.update(repr((e, piv, sorted((c, str(Fraction(x)))
                                          for c, x in row.items()))).encode())
    return h.hexdigest()


def reversed_key(s):
    """The canonical letter order reversed."""
    return -int(s)


def renaming(alphabet, key):
    """A bijection of alphabet onto itself under which the new letters'
    canonical order is the order that key puts on the old letters."""
    return dict(zip(sorted(alphabet, key=key), sorted(alphabet)))


def rename(q, letters):
    """q with every letter s replaced by letters[s]."""
    return substitute(q, {s: Poly.from_symbol(t) for s, t in letters.items()})


def relabelled(pres, key):
    """The presentation isomorphic to pres whose letters are renamed by
    ``renaming(pres.alphabet, key)``: the engine reads it in key's order of
    pres's letters."""
    letters = renaming(pres.alphabet, key)
    return Presentation(pres.label, tuple(letters[s] for s in pres.alphabet),
                        tuple(rename(g, letters) for g in pres.relations))


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def dense_rows(pres, e):
    """All spanning vectors of the degree-e ideal slice, densely, via Poly
    arithmetic only."""
    letters = sorted(pres.alphabet, key=symbol_key)
    words = list(product(letters, repeat=e))
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for g in pres.relations:
        e0 = g.degree()
        if e0 > e:
            continue
        for a in range(e - e0 + 1):
            for m1 in product(letters, repeat=a):
                for m2 in product(letters, repeat=e - e0 - a):
                    p = Poly.term(1, m1) * g * Poly.term(1, m2)
                    row = [Fraction(0)] * len(words)
                    for w, c in p.terms.items():
                        row[index[w]] += c
                    rows.append(row)
    return rows, index


def dense_rank(rows):
    rows = [r[:] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_member(pres, q):
    e = q.degree()
    rows, index = dense_rows(pres, e)
    target = [Fraction(0)] * len(index)
    for w, c in q.terms.items():
        target[index[w]] += c
    return dense_rank(rows) == dense_rank(rows + [target])


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------

def reference_reduce(pivots, vec):
    """``Echelon.reduce`` as first written, over a dict of pivot rows: every
    column of the vector enters the heap, and a popped column that is not a
    pivot is skipped.  vec is not mutated."""
    v = dict(vec)
    heap = [-c for c in v]
    heapq.heapify(heap)
    while heap:
        col = -heapq.heappop(heap)
        if col not in v:
            continue
        row = pivots.get(col)
        if row is None:
            continue
        coef = v.pop(col)
        for c2, x in row.items():
            if c2 == col:
                continue
            acc = v.get(c2, 0) - coef * x
            if acc:
                if c2 not in v:
                    heapq.heappush(heap, -c2)
                v[c2] = acc
            else:
                v.pop(c2, None)
    return v


def reference_insert(pivots, vec):
    """``Echelon.insert`` as first written, through ``reference_reduce``:
    the remainder is scaled so its pivot entry is 1, each entry ``exact``."""
    r = reference_reduce(pivots, vec)
    if not r:
        return False
    lead = max(r)
    inv = r[lead] if r[lead] in (1, -1) else 1 / Fraction(r[lead])
    pivots[lead] = {c: exact(x * inv) for c, x in r.items()}
    return True


def typed(vec, base=0):
    """vec, its columns moved up by base, with each entry paired with its
    type: int 2 and Fraction(2) differ."""
    return {base + c: (type(x), x) for c, x in vec.items()}


def assert_kernel_matches_reference(inserted, queries):
    """Insert ``inserted`` into an Echelon and into a reference store: the
    stored rows are equal, entry types included, insert returns None exactly
    when the reference finds the vector dependent and otherwise the row it
    stored, the object in ``pivots``, and mutating a vector once it is
    inserted changes none of them.  Each query then reduces to the
    reference's remainder, types included, and is left unmutated.  reduce
    never returns the dict it is given, and returns one equal to it when
    no entry lies on a pivot column."""
    ech, pivots = Echelon(), {}

    def reduced(vec):
        before = typed(vec)
        rem = ech.reduce(vec)
        assert typed(vec) == before and rem is not vec
        if ech.columns.isdisjoint(vec):
            assert typed(rem) == before
        return rem

    for vec in inserted:
        reduced(vec)
        given = dict(vec)
        row = ech.insert(given)
        if reference_insert(pivots, vec):
            assert row is not None and row is ech.pivots[max(row)]
        else:
            assert row is None
        assert typed(given) == typed(vec)
        stored = {p: typed(r) for p, r in ech.pivots.items()}
        for c in given:
            given[c] += 1
        given[max(given, default=-1) + 1] = 1
        assert {p: typed(r) for p, r in ech.pivots.items()} == stored
    assert {p: typed(r) for p, r in ech.pivots.items()} == \
        {p: typed(r) for p, r in pivots.items()}
    for vec in queries:
        assert typed(reduced(vec)) == typed(reference_reduce(pivots, vec))


# ---------------------------------------------------------------------------
# reduce-every-product oracle
# ---------------------------------------------------------------------------

def reduce_every_product(pres, d):
    """The degree slices built by inserting every product m1 * g * m2 into
    an Echelon, in the engine's generation order: relations by degree (ties
    in presentation order), then |m1|, then m1 and m2 as words.  Returns an
    object with the engine's ``slices`` and ``(rows_generated, rank)`` per
    degree as ``stats``."""
    letters = sorted(pres.alphabet)
    index = {s: p for p, s in enumerate(letters)}
    k = len(letters)

    def column(digits):
        col = 0
        for x in digits:
            col = col * k + x
        return col

    rels = [(g.degree(),
             [(tuple(index[s] for s in w), c.numerator if c.denominator == 1 else c)
              for w, c in g.sorted_terms()])
            for g in sorted(pres.relations, key=lambda g: g.degree())]
    slices, stats = [], []
    for e in range(d + 1):
        ech, rows = Echelon(), 0
        for e0, terms in rels:
            if e0 > e:
                continue
            for a in range(e - e0 + 1):
                for m1 in product(range(k), repeat=a):
                    for m2 in product(range(k), repeat=e - e0 - a):
                        ech.insert({column(m1 + w + m2): c for w, c in terms})
                        rows += 1
        slices.append(ech)
        stats.append((rows, ech.rank))
    return SimpleNamespace(slices=slices, stats=stats)


def rows_reduced_bounded(basis):
    """The rows inserted into each slice are at most the rows generated over
    the given alphabet, and the slice's rank is at most the k * rank(e-1)
    letter shifts of the degree below plus the rows inserted."""
    ranks = [0] + [ech.rank for ech in basis.slices]
    return all(s.rows_reduced <= s.rows_generated
               and ranks[e + 1] <= basis.k * ranks[e] + s.rows_reduced
               for e, s in enumerate(basis.stats))


def assert_shifts_stored(basis):
    """For each e >= 1, x * r is a row of slice e's full set, entry for entry
    and type for type, for every letter x of the engine and row r of slice
    e-1's full set, and slice e reduces it to zero.  Each slice's pivot
    columns are those of its full set."""
    for e in range(basis.max_degree + 1):
        rows = expanded_rows(basis, e)
        assert basis.slices[e].columns == rows.keys(), e
        if not e:
            continue
        step = basis.k ** (e - 1)
        for piv, row in expanded_rows(basis, e - 1).items():
            for base in range(0, basis.k * step, step):
                assert typed(rows.get(base + piv, {})) == typed(row, base), (e, piv)
                assert not basis.slices[e].reduce(rows[base + piv]), (e, piv)


def assert_only_own_rows(basis):
    """For each e >= 1, slice e links to slice e - 1 and stores only the
    rows it inserted: as many as its rank exceeds the k * rank(e-1) letter
    shifts of the degree below, none of them at a pivot that is a letter
    shift of a lower pivot (a column whose suffix is a pivot of e - 1)."""
    for e in range(1, basis.max_degree + 1):
        ech, below = basis.slices[e], basis.slices[e - 1]
        assert ech.below is below, e
        assert len(ech.pivots) == ech.rank - basis.k * below.rank, e
        assert not [piv for piv in ech.pivots if piv % basis.k ** (e - 1) in below.columns], e


def assert_same_construction(pres, d, key):
    """The engine against ``reduce_every_product`` at every degree: equal
    rows generated, full ranks and dimensions; equal pivot words, the
    engine's lifted to the given alphabet together with every word that
    holds a killed letter; equal remainders of up to 300 words and of
    one query with many terms.  Each slice stores only its own rows and
    spans the letter shifts of the rows of the degree below, and the
    engine's letters are the alphabet less the letters of the single-word
    degree-1 relations.  All of it is read on pres relabelled so that the
    canonical order is key's."""
    pres = relabelled(pres, key)
    basis = TruncatedIdealBasis(pres, d)
    oracle = reduce_every_product(pres, d)
    letters = sorted(pres.alphabet)
    k = len(letters)
    assert [(s.rows_generated, s.rank) for s in basis.stats] == oracle.stats
    assert basis.dimensions() == [k ** e - rank for e, (_, rank) in enumerate(oracle.stats)]
    assert rows_reduced_bounded(basis)
    survivors = set(basis.letters)
    for e in range(d + 1):
        words = list(product(letters, repeat=e))  # in column order
        column = {w: col for col, w in enumerate(words)}
        lifted = {column[_index_word(c, basis.letters, e)] for c in expanded_rows(basis, e)}
        lifted |= {col for col, w in enumerate(words) if not survivors.issuperset(w)}
        assert lifted == set(oracle.slices[e].pivots), e

        def remainder(vec):
            return Poly({words[c]: x for c, x in oracle.slices[e].reduce(vec).items()})
        sample = random.Random(e).sample(range(len(words)), min(300, len(words)))
        for col in sample:
            assert basis.reduce(Poly.term(1, words[col])) == remainder({col: 1})
        dense = {col: Fraction(col % 5 - 2, col % 3 + 1) for col in sample if col % 5 != 2}
        assert basis.reduce(Poly({words[c]: x for c, x in dense.items()})) == remainder(dense)
    assert_shifts_stored(basis)
    assert_only_own_rows(basis)
    killed = {w[0] for g in pres.relations if g.degree() == 1 and len(g.terms) == 1
              for w in g.terms}
    assert basis.letters == [s for s in letters if s not in killed]


SMALL_CASES = [
    (qn_presentation(2, "u"), 2),
    (qn_presentation(2, "z"), 2),
    (qF_presentation(closure([], 3)), 2),
    (qF_presentation(closure([{1, 2}, {2, 3}], 3)), 2),
    (graph_presentation(path_graph(3)), 2),
    # from degree 3 on, rows have both outer words m1 and m2 non-empty
    (qn_presentation(2, "u"), 4),
    (qn_presentation(2, "z"), 3),
    (graph_presentation(complete_graph(2)), 4),
    (mixed_presentation(), 4),
]


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("pres,d", SMALL_CASES,
                             ids=[p.label if d == 2 else f"{p.label},d={d}"
                                  for p, d in SMALL_CASES])
    def test_ranks_agree(self, pres, d):
        basis = TruncatedIdealBasis(pres, d)
        for e in range(d + 1):
            rows, _ = dense_rows(pres, e)
            assert basis.rank(e) == dense_rank(rows), e
        # integral entries are stored as int, never as a float or Fraction
        for x in stored_entries(basis.slices):
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x

    def test_inexact_pivots_store_fractions(self):
        entries = stored_entries(TruncatedIdealBasis(mixed_presentation(), 3).slices)
        assert any(type(x) is Fraction for x in entries)
        assert any(type(x) is int and x not in (1, -1) for x in entries)

    def test_membership_agrees_on_random_quadratics(self):
        for pres in (qF_presentation(closure([{1, 2}, {2, 3}], 3)), mixed_presentation()):
            rng = random.Random(17)
            basis = TruncatedIdealBasis(pres, 2)
            letters = list(pres.alphabet)
            for _ in range(25):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    w = (rng.choice(letters), rng.choice(letters))
                    terms[w] = Fraction(rng.randint(-3, 3))
                q = Poly(terms)
                if not q:
                    continue
                assert basis.contains(q) == dense_member(pres, q)
                # q minus its remainder must lie in the ideal
                member = q - basis.reduce(q)
                assert not member or dense_member(pres, member)


ORACLE_CASES = [
    # degree-1 kill relations on u({1,3}) and u({1,2,3}) drop those letters
    (qF_presentation(closure([{1, 2}, {2, 3}], 3)), 3),
    # z-form Q_2 mixes degree-2 relations with degree-1 relations of four
    # terms, whose rows the slices span like those of any other relation
    (qn_presentation(2, "z"), 4),
    # non-unit and non-integral leading coefficients: Fraction pivots
    (mixed_presentation(), 4),
    # degree 4 is the first where a row of a quadratic relation has both a
    # left and a right parent
    (graph_presentation(complete_graph(4)), 4),
]


class TestAgainstReduceEveryProduct:
    @pytest.mark.parametrize("key", [symbol_key, reversed_key],
                             ids=["symbol_key", "reversed_symbol_key"])
    @pytest.mark.parametrize("pres,d", ORACLE_CASES,
                             ids=[p.label for p, _ in ORACLE_CASES])
    def test_same_rows_and_stats(self, pres, d, key):
        assert_same_construction(pres, d, key)


# ---------------------------------------------------------------------------
# raw-products, copied-shifts and right-shift-only oracles
# ---------------------------------------------------------------------------

class RawProducts(TruncatedIdealBasis):
    """The engine before it inserted each product as its parent's stored
    row times one letter: ``_build_slice`` inserts every product g * m2 raw,
    at columns w * k^(e - deg g) + m2 for the words w of g, and passes on per
    relation the dependent flags of its products, by m2, in a bytearray.  It
    skips g * m2 when its parent g * m2', with m2 = m2' * y, was flagged, or
    when m2 is a pivot column (a tip) of the slice e - deg g."""

    tip_rule = True

    def _echelon(self, e):
        return Echelon(self.slices[e - 1], self.k) if e else Echelon()

    def _build_slice(self, e, parents):
        k = self.k
        ech = self._echelon(e)
        reduced = 0
        dependent = []
        for t, (e0, coords) in enumerate(self._relations):
            if e0 > e:
                break
            n = k ** (e - e0)
            shifted = [(col * n, c) for col, c in coords.items()]
            parent = parents[t] if t < len(parents) else b"\0"
            tips = self.slices[e - e0].columns if self.tip_rule else ()
            flags = bytearray(n)
            for m2 in range(n):
                if not parent[m2 // k] and m2 not in tips:
                    reduced += 1
                    if ech.insert({m2 + col: c for col, c in shifted}):
                        continue
                flags[m2] = 1
            dependent.append(flags)
        return ech, reduced, dependent


class CopiedShifts(RawProducts):
    """``RawProducts`` before its slices linked to the slice below: each
    slice starts as an unlinked Echelon holding a copy, entry by entry, of
    x * r for every letter x and row r of the degree below."""

    def _echelon(self, e):
        k = self.k
        ech = Echelon()
        if e:
            step = k ** (e - 1)
            for piv, row in expanded_rows(self, e - 1).items():
                for base in range(0, k * step, step):
                    ech.pivots[base + piv] = {base + c: x for c, x in row.items()}
            ech.columns.update(ech.pivots)
        return ech


class RightShiftOnly(CopiedShifts):
    """``CopiedShifts`` before its tip rule: ``_build_slice`` skips only the
    right shifts of rows found dependent at the degree below, so it also
    reduces every product g * m2 whose m2 is a pivot column of slice
    e - deg g."""

    tip_rule = False


def assert_same_rows(basis, oracle):
    """basis and oracle have equal full row sets in every slice, entry for
    entry and type for type."""
    for e in range(basis.max_degree + 1):
        rows, expected = expanded_rows(basis, e), expanded_rows(oracle, e)
        assert rows.keys() == expected.keys(), e
        assert all(typed(rows[p]) == typed(row) for p, row in expected.items()), e


def typed_terms(q):
    """q's terms, each coefficient paired with its type."""
    return {w: (type(c), c) for w, c in q.terms.items()}


def assert_same_remainders(basis, oracle, letters, d):
    """basis and oracle leave equal remainders, coefficient types included,
    of 50 random words over letters at each degree up to d and of one query
    with many terms."""
    for e in range(d + 1):
        rng = random.Random(e)
        words = [tuple(rng.choice(letters) for _ in range(e)) for _ in range(50)]
        dense = Poly({w: Fraction(i % 5 - 2, i % 3 + 1) for i, w in enumerate(words)})
        for q in [Poly.term(1, w) for w in words] + [dense]:
            assert typed_terms(basis.reduce(q)) == typed_terms(oracle.reduce(q)), (e, q)


def assert_tip_rule_keeps_rows(pres, d, key):
    """The engine against ``RightShiftOnly`` at every degree: equal full
    row sets, entry for entry and type for type (so equal pivot sets), equal
    dims, ranks and rows generated, equal remainders of up to 50 words and
    of one query with many terms, and no more rows reduced, on pres
    relabelled so that the canonical order is key's."""
    pres = relabelled(pres, key)
    basis = TruncatedIdealBasis(pres, d)
    oracle = RightShiftOnly(pres, d)
    assert basis.dimensions() == oracle.dimensions()
    assert [(s.rows_generated, s.rank) for s in basis.stats] == \
        [(s.rows_generated, s.rank) for s in oracle.stats]
    assert all(s.rows_reduced <= t.rows_reduced for s, t in zip(basis.stats, oracle.stats))
    assert_same_rows(basis, oracle)
    assert_only_own_rows(basis)
    assert_same_remainders(basis, oracle, sorted(pres.alphabet), d)


def assert_same_own_rows(basis, oracle):
    """basis and oracle have equal stats, and each slice stores the same own
    rows, entry for entry and type for type, in the same order."""
    assert basis.stats == oracle.stats
    for e, (ech, raw) in enumerate(zip(basis.slices, oracle.slices, strict=True)):
        assert [(p, typed(r)) for p, r in ech.pivots.items()] == \
            [(p, typed(r)) for p, r in raw.pivots.items()], e


def assert_matches_raw_products(pres, d, key):
    """The engine against ``RawProducts``: equal stats, own rows in value,
    type and insertion order, dims, quotient bases and remainders, on pres
    relabelled so that the canonical order is key's."""
    pres = relabelled(pres, key)
    basis, oracle = TruncatedIdealBasis(pres, d), RawProducts(pres, d)
    assert_same_own_rows(basis, oracle)
    assert basis.dimensions() == oracle.dimensions()
    assert all(basis.quotient_basis(e) == oracle.quotient_basis(e) for e in range(d + 1))
    assert_same_remainders(basis, oracle, sorted(pres.alphabet), d)


TIP_CASES = (
    [(qF_presentation(c), 4) for n in (1, 2, 3) for c in enumerate_complexes(n)]
    + [(graph_presentation(g), 4) for n in (1, 2, 3, 4) for g in all_graphs(n)]
    + [(qn_presentation(2, "z"), 5), (qn_presentation(3, "z"), 3),
       (mixed_presentation(), 4), (qF_presentation(K4_123), 4)])


class TestAgainstRightShiftOnly:
    @pytest.mark.parametrize("key", [symbol_key, reversed_key],
                             ids=["symbol_key", "reversed_symbol_key"])
    @pytest.mark.parametrize("pres,d", TIP_CASES,
                             ids=[f"{p.label},d={d}" for p, d in TIP_CASES])
    def test_same_rows(self, pres, d, key):
        assert_tip_rule_keeps_rows(pres, d, key)


class TestAgainstRawProducts:
    @pytest.mark.parametrize("key", [symbol_key, reversed_key],
                             ids=["symbol_key", "reversed_symbol_key"])
    @pytest.mark.parametrize("pres,d", TIP_CASES,
                             ids=[f"{p.label},d={d}" for p, d in TIP_CASES])
    def test_same_own_rows(self, pres, d, key):
        assert_matches_raw_products(pres, d, key)


class TestTrivialExamples:
    def test_edgeless_graph_degree_2_rank_one(self):
        basis = TruncatedIdealBasis(graph_presentation(edgeless_graph(2)), 2)
        assert basis.rank(2) == 1

    def test_qn_u_has_no_linear_relations(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 1)
        assert basis.rank(1) == 0

    def test_kill_generator_is_a_linear_relation(self):
        basis = TruncatedIdealBasis(qF_presentation(closure([], 2)), 1)
        assert basis.rank(1) == 1

    def test_relations_are_members(self):
        pres = qn_presentation(2, "u")
        basis = TruncatedIdealBasis(pres, 2)
        for g in pres.relations:
            assert basis.contains(g)

    def test_single_word_not_member(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 2)
        assert not basis.contains(up(1, n=2) * up(2, n=2))

    def test_commutator_member_with_certificate(self):
        # [u(1),u(2)] = -rel_4(empty,1,2) + u({1,2})u(1) - u({1,2})u(2), and the
        # last two words are kill multiples, so membership must hold
        lhs = commutator(up(1), up(2))
        cert = -1 * rel_4(ns(), 1, 2) + up(1, 2) * up(1) - up(1, 2) * up(2)
        assert lhs == cert
        basis = TruncatedIdealBasis(qF_presentation(closure([], 3)), 2)
        assert basis.contains(lhs)

    def test_zero_is_always_member(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 2)
        assert basis.contains(Poly.zero())


class TestGradedDimension:
    def test_degree_one_u_form(self):
        for n in (1, 2, 3, 4):
            assert graded_dimension(qn_presentation(n, "u"), 1) == [1, 2 ** n - 1]

    def test_commutative_dims(self):
        assert graded_dimension(qF_presentation(closure([], 3)), 2) == [1, 3, 6]

    def test_z_form_degree_one(self):
        assert graded_dimension(qn_presentation(2, "z"), 1) == [1, 3]

    def test_z_u_consistency(self):
        for n in (1, 2, 3):
            zd = graded_dimension(qn_presentation(n, "z"), 2)
            ud = graded_dimension(qn_presentation(n, "u"), 2)
            assert zd == ud, n


def qn_series(n, d):
    """Coefficients of (1 - t) / (1 - t(2 - t)^n) through t^d, the Hilbert
    series of Q_n: h = 1 - t + t * (2 - t)^n * h over the integers."""
    p = [comb(n, j) * 2 ** (n - j) * (-1) ** j for j in range(n + 1)]
    h = []
    for e in range(d + 1):
        h.append((e == 0) - (e == 1) + sum(p[j] * h[e - 1 - j] for j in range(min(n + 1, e))))
    return h


class TestGoldenDimensions:
    """Closed forms at the degrees where each slice stacks the most rows
    copied from the degrees below."""

    @pytest.mark.parametrize("n,form,d,expected", [
        (2, "u", 6, [1, 3, 8, 21, 55, 144, 377]),
        (2, "z", 6, [1, 3, 8, 21, 55, 144, 377]),
        (3, "u", 5, [1, 7, 44, 274, 1705, 10609]),
        (3, "z", 4, [1, 7, 44, 274, 1705]),
        (4, "u", 3, [1, 15, 208, 2872]),
    ], ids=["Q2-u,d=6", "Q2-z,d=6", "Q3-u,d=5", "Q3-z,d=4", "Q4-u,d=3"])
    def test_qn_hilbert_series(self, n, form, d, expected):
        assert qn_series(n, d) == expected
        assert graded_dimension(qn_presentation(n, form), d) == expected

    @pytest.mark.parametrize("graph,expected", [
        (cycle_graph(4), [1, 8, 48, 264, 1407]),
        (star_graph(4), [1, 7, 37, 182, 878]),
    ], ids=["C4", "K_1,3"])
    def test_graph_dims_frozen(self, graph, expected):
        assert graded_dimension(graph_presentation(graph), 4) == expected


class TestQuotientBasis:
    def test_degree_one_u_form(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 1)
        assert basis.quotient_basis(0) == [()]
        assert [poly_text(Poly.term(1, w)) for w in basis.quotient_basis(1)] == \
            ["u({1})", "u({2})", "u({1,2})"]

    def test_edgeless_graph_degree_two(self):
        basis = TruncatedIdealBasis(graph_presentation(edgeless_graph(2)), 2)
        assert len(basis.quotient_basis(2)) == 3

    def test_sizes_match_dimensions(self):
        pres = qF_presentation(closure([{1, 2}], 3))
        basis = TruncatedIdealBasis(pres, 2)
        for e in range(3):
            assert len(basis.quotient_basis(e)) == basis.dimension(e)

    def test_free_word_counts(self):
        two = Presentation("free", (u(ns(1, n=2)), u(ns(2, n=2))), ())
        assert TruncatedIdealBasis(two, 2).dimensions() == [1, 2, 4]
        fifteen = tuple(u(s) for s in NodeSet.full(4).subsets() if not s.is_empty)
        assert TruncatedIdealBasis(Presentation("free", fifteen, ()), 2).dimension(2) == 225

    def test_free_words_in_canonical_order_without_duplicates(self):
        letters = tuple(u(s) for s in NodeSet.full(2).subsets() if not s.is_empty)
        words = TruncatedIdealBasis(Presentation("free", letters, ()), 2).quotient_basis(2)
        keys = [word_key(w) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words) == 9


class TestEngineProperties:
    @pytest.mark.parametrize("pres,d,expected", [
        (qF_presentation(closure([[1, 2], [2, 3], [3, 4]], 4)), 3,
         [(0, 0), (8, 8), (288, 189), (6840, 3207)]),
        (qn_presentation(3, "u"), 4,
         [(0, 0), (0, 0), (12, 5), (168, 69), (1764, 696)]),
        (graph_presentation(cycle_graph(4)), 4,
         [(0, 0), (0, 0), (20, 16), (320, 248), (3840, 2689)]),
    ], ids=["qF-P4", "Q3-u", "graph-C4"])
    def test_slice_stats(self, pres, d, expected):
        # rows generated per degree are sum over relations of
        # (e - deg g + 1) * k^(e - deg g); the ranks are frozen values
        basis = TruncatedIdealBasis(pres, d)
        assert [(s.rows_generated, s.rank) for s in basis.stats] == expected

    @pytest.mark.parametrize("pres,d,expected", [
        (qF_presentation(closure([[1, 2], [2, 3], [3, 4]], 4)), 3, [0, 0, 48, 91]),
        (qn_presentation(3, "u"), 4, [0, 0, 12, 35, 213]),
        (graph_presentation(cycle_graph(4)), 4, [0, 0, 20, 128, 715]),
        (qn_presentation(2, "z"), 5, [0, 1, 4, 11, 29, 76]),
        (graph_presentation(complete_graph(4)), 4, [0, 0, 21, 170, 1352]),
    ], ids=["qF-P4", "Q3-u", "graph-C4", "Q2-z", "graph-K4"])
    def test_rows_reduced(self, pres, d, expected, monkeypatch):
        # rows passed to Echelon.insert: the products g * m2, over the 7
        # letters that qF-P4's 8 kill relations leave, that are not right
        # shifts of rows found dependent at the degree below, and whose m2
        # is not a pivot of the slice e - deg g; the kills themselves are
        # not inserted, and the letter shifts of the rows stored at the
        # degree below are copied.  qF-P4 has no pivot at degree 1, so at
        # d=3 the pivot rule skips nothing.  Q2-z has degree-1
        # relations of four terms, so from degree 2 on it skips g * m2 with
        # m2 a pivot of slice e - 1
        calls = []
        insert = Echelon.insert

        def counting(self, vec):
            calls.append(vec)
            return insert(self, vec)
        monkeypatch.setattr(Echelon, "insert", counting)
        basis = TruncatedIdealBasis(pres, d)
        assert [s.rows_reduced for s in basis.stats] == expected
        assert len(calls) == sum(expected)
        assert rows_reduced_bounded(basis)

    @pytest.mark.parametrize("pres,d,fractions,expected,remainder", [
        (qn_presentation(3, "u"), 4, 0,
         "c0c84ca4205ffc09606c546d6ea3f1c1911575b352f7ca922884cdfed152e522",
         [Fraction(1, 2), 3]),
        (graph_presentation(cycle_graph(4)), 4, 0,
         "6a4fe6ca547727ca626b092073dfb38748cc31b677d5feb8c6991926eeaeef3e",
         [-3, -3, -3, 3, 3, 3, 3, 3, Fraction(7, 2), Fraction(7, 2)]),
        (qF_presentation(K4_123), 3, 349,
         "487b856791965217c94d698a5d6505ed80c12222f2012069c921ee5bc5060d57",
         [Fraction(1, 2), 3]),
    ], ids=["Q3-u", "graph-C4", "qF-K4+123"])
    def test_stored_rows_frozen(self, pres, d, fractions, expected, remainder):
        # the digests freeze each slice's full row set, its own rows and
        # the letter shifts of the slices below, and how many entries are
        # Fractions (the others are ints); the remainder's values are those
        # of the all-Fraction Poly, each an int where integral
        basis = TruncatedIdealBasis(pres, d)
        entries = expanded_entries(basis)
        assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                   for x in entries)
        assert sum(type(x) is Fraction for x in entries) == fractions
        assert row_digest(basis) == expected
        live = [s for s in pres.alphabet if s in basis.letters]
        x, y = live[0], live[-1]
        rem = basis.reduce(Poly({(x, y, x, y)[:d]: Fraction(1, 2), (y, y, x, x)[:d]: 3}))
        assert sorted(rem.terms.values()) == remainder
        assert_canonical(rem)

    @pytest.mark.parametrize("pres,rows,entries", [
        (qn_presentation(3, "u"), [0, 0, 5, 34, 213], 1904),
        (graph_presentation(cycle_graph(4)), [0, 0, 16, 120, 705], 4319),
    ], ids=["Q3-u", "graph-C4"])
    def test_slices_store_only_their_own_rows(self, pres, rows, entries):
        # each slice stores only the rows it inserted, per degree the rank
        # less k times the rank below; CopiedShifts copies a further 518
        # rows of 3,808 entries for Q3-u and 2,112 of 7,488 for C4
        basis = TruncatedIdealBasis(pres, 4)
        assert [len(ech.pivots) for ech in basis.slices] == rows
        assert len(stored_entries(basis.slices)) == entries
        assert_only_own_rows(basis)
        assert_shifts_stored(basis)

    @pytest.mark.parametrize("pres,held,raw_held,inserted", [
        (qn_presentation(3, "u"), 13, 112, 260),
        (graph_presentation(cycle_graph(4)), 221, 443, 863),
    ], ids=["Q3-u", "graph-C4"])
    def test_products_arrive_reduced(self, pres, held, raw_held, inserted, monkeypatch):
        # at d=4, each product g * m2 with deg g < e is inserted as r * y, r
        # the own row its parent g * m2' stored at e - 1 and m2 = m2' * y,
        # so its columns are r's times k plus y; the relations of degree e
        # come last, as their vectors.  Of the vectors inserted, only
        # ``held`` have an entry on a pivot column, against ``raw_held`` of
        # the same number that RawProducts inserts raw
        calls = []
        insert = Echelon.insert

        def recording(self, vec):
            calls.append((self, dict(vec), not self.columns.isdisjoint(vec)))
            return insert(self, vec)
        monkeypatch.setattr(Echelon, "insert", recording)
        basis = TruncatedIdealBasis(pres, 4)
        assert (len(calls), sum(h for _, _, h in calls)) == (inserted, held)
        k = basis.k
        for e, ech in enumerate(basis.slices):
            vecs = [vec for target, vec, _ in calls if target is ech]
            rels = [dict(coords) for e0, coords in basis._relations if e0 == e]
            split = len(vecs) - len(rels)
            assert [typed(v) for v in vecs[split:]] == [typed(v) for v in rels], e
            for vec in vecs[:split]:
                y = min(vec) % k
                assert all(c % k == y for c in vec), (e, vec)
                row = {c // k: x for c, x in vec.items()}
                assert typed(basis.slices[e - 1].pivots.get(max(row), {})) == typed(row), (e, vec)
        calls.clear()
        RawProducts(pres, 4)
        assert (len(calls), sum(h for _, _, h in calls)) == (inserted, raw_held)

    def test_cancelled_columns_refilled(self):
        # the row at 5 cancels the query's pivot column 3 and its non-pivot
        # column 1; the row at 4 fills both again, and column 3 is then
        # eliminated by its own row
        inserted = [{5: 1, 3: 1, 1: 1}, {4: 1, 3: -1, 1: 2}, {3: 1, 0: Fraction(1, 2)}]
        query = {5: 1, 4: 1, 3: 1, 1: 1}
        assert_kernel_matches_reference(inserted, [query])
        ech = Echelon()
        for vec in inserted:
            ech.insert(vec)
        assert typed(ech.reduce(query)) == typed({1: -2, 0: Fraction(-1, 2)})

    def test_additive_echelon_stores_ints(self):
        # vectors of integral Fractions inserted straight into an Echelon
        # still come out as int (the relations themselves hold int +-1)
        letters = sorted(all_z_symbols(3), key=symbol_key)
        index = {s: c for c, s in enumerate(letters)}
        ech = Echelon()
        for a, i, j in _instances(3):
            terms = rel_additive(a, i, j).terms
            assert all(type(c) is int for c in terms.values())
            ech.insert({index[w[0]]: Fraction(c) for w, c in terms.items()})
        assert len(letters) - ech.rank == 7
        assert all(type(x) is int for x in stored_entries([ech]))

    def test_relations_above_the_bound_are_not_read(self, monkeypatch):
        # at max_degree 1 the z form's degree-2 relations span nothing, so
        # none of them is read over the engine's letters
        pres = qn_presentation(3, "z")
        full = TruncatedIdealBasis(pres, 2)
        degrees = []
        vector = TruncatedIdealBasis._vector

        def counting(self, q):
            degrees.append(q.degree())
            return vector(self, q)
        monkeypatch.setattr(TruncatedIdealBasis, "_vector", counting)
        basis = TruncatedIdealBasis(pres, 1)
        assert not [e for e in degrees if e >= 2]
        assert basis.dimensions() == full.dimensions()[:2]
        assert basis.stats == full.stats[:2]
        for s in pres.alphabet:
            x = Poly.from_symbol(s)
            assert basis.reduce(x) == full.reduce(x)

    def test_soundness_of_stored_rows(self):
        # every stored pivot row, read back as a polynomial, must lie in the
        # ideal according to the dense oracle
        pres = qF_presentation(closure([{1, 2}, {2, 3}], 3))
        basis = TruncatedIdealBasis(pres, 2)
        items = sorted(expanded_rows(basis, 2).items())
        rng = random.Random(23)
        for _, row in rng.sample(items, min(10, len(items))):
            q = Poly({_index_word(c, basis.letters, 2): x for c, x in row.items()})
            assert dense_member(pres, q)

    def test_monotonicity(self):
        pres = qF_presentation(closure([{1, 2}, {2, 3}], 3))
        basis = TruncatedIdealBasis(pres, 3)
        members = [r for r in pres.relations if r.degree() == 2][:5]
        for q in members:
            for s in pres.alphabet[:4]:
                gen = Poly.from_symbol(s)
                assert basis.contains(gen * q)
                assert basis.contains(q * gen)

    def test_order_independence(self):
        for pres in (qn_presentation(3, "u"), qF_presentation(closure([{1, 2}], 3)),
                     graph_presentation(path_graph(3))):
            a = graded_dimension(pres, 3)
            b = graded_dimension(relabelled(pres, reversed_key), 3)
            assert a == b, pres.label

    def test_membership_verdicts_order_independent(self):
        pres = qF_presentation(closure([{1, 2}, {2, 3}], 3))
        letters = renaming(pres.alphabet, reversed_key)
        b1 = TruncatedIdealBasis(pres, 2)
        b2 = TruncatedIdealBasis(relabelled(pres, reversed_key), 2)
        rng = random.Random(29)
        alphabet = list(pres.alphabet)
        for _ in range(30):
            terms = {(rng.choice(alphabet), rng.choice(alphabet)):
                     Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))}
            q = Poly(terms)
            assert b1.contains(q) == b2.contains(rename(q, letters))

    def test_determinism(self):
        pres = qF_presentation(closure([{1, 2}, {2, 3}], 3))
        b1 = TruncatedIdealBasis(pres, 2)
        b2 = TruncatedIdealBasis(pres, 2)
        assert b1.dimensions() == b2.dimensions()
        assert b1.quotient_basis(2) == b2.quotient_basis(2)
        q = commutator(up(1, 2), up(3))
        assert poly_text(b1.reduce(q)) == poly_text(b2.reduce(q))


class TestErrors:
    def test_inhomogeneous_query_rejected(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 2)
        with pytest.raises(ValueError, match="not homogeneous"):
            basis.contains(up(1, n=2) + up(1, n=2) * up(2, n=2))

    def test_degree_above_truncation_rejected(self):
        basis = TruncatedIdealBasis(qn_presentation(2, "u"), 1)
        with pytest.raises(ValueError, match="exceeds max_degree"):
            basis.contains(up(1, n=2) * up(2, n=2))

    def test_stray_symbol_rejected(self):
        basis = TruncatedIdealBasis(graph_presentation(edgeless_graph(2)), 2)
        with pytest.raises(ValueError, match="not in the presentation's alphabet"):
            basis.contains(up(1, 2, n=2))

    @pytest.mark.parametrize("order", ["least-first", "least-last"])
    def test_two_stray_symbols_name_the_least(self, order):
        # z({},1) sorts before u({1,2}) wherever it stands in the query
        basis = TruncatedIdealBasis(graph_presentation(edgeless_graph(2)), 2)
        least, other = Poly.from_symbol(z(ns(n=2), 1)), up(1, 2, n=2)
        q = least * other if order == "least-first" else other * least
        with pytest.raises(ValueError, match=r"^symbol z\(\{\},1\) is not in the "
                                             r"presentation's alphabet$"):
            basis.reduce(q)

    @pytest.mark.parametrize("order", ["killed-first", "stray-first"])
    def test_stray_symbol_rejected_beside_a_killed_letter(self, order):
        # u({1,3}) is killed on the path P3; the stray z({},1) is refused on
        # either side of it, with one message
        basis = TruncatedIdealBasis(qF_presentation(closure([{1, 2}, {2, 3}], 3)), 3)
        killed, stray = up(1, 3), Poly.from_symbol(z(ns(), 1))
        q = killed * stray if order == "killed-first" else stray * killed
        with pytest.raises(ValueError, match=r"^symbol z\(\{\},1\) is not in the "
                                             r"presentation's alphabet$"):
            basis.reduce(q)

    @pytest.mark.parametrize("e,message", [(-1, "degree -1 is negative"),
                                           (3, "degree 3 exceeds max_degree 2"),
                                           (True, "degree True is not an integer"),
                                           (1.0, "degree 1.0 is not an integer")],
                             ids=["below", "above", "bool", "float"])
    @pytest.mark.parametrize("method", ["dimension", "rank", "quotient_basis"])
    def test_degree_accessors_refuse_degrees_out_of_range(self, method, e, message):
        basis = TruncatedIdealBasis(qF_presentation(closure([{1, 2}, {2, 3}], 3)), 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(basis, method)(e)

    # a bool would pass as the int it equals, a float fail inside a range
    @pytest.mark.parametrize("build, text", [
        (lambda p: TruncatedIdealBasis(p, True), "True"),
        (lambda p: TruncatedIdealBasis(p, 2.0), r"2\.0"),
        (lambda p: graded_dimension(p, True), "True"),
    ], ids=["bool", "float", "graded_dimension"])
    def test_max_degree_must_be_an_int(self, build, text):
        with pytest.raises(ValueError, match=f"^max_degree {text} is not an integer$"):
            build(qn_presentation(2, "u"))

    def test_monomial_cap(self):
        pres = qn_presentation(4, "u")  # 15 letters
        with pytest.raises(ValueError, match="cap"):
            TruncatedIdealBasis(pres, 7)

    def test_monomial_cap_counts_every_degree(self):
        # the words of degrees 0..d are counted: 2^23 - 1 fit, 2^24 - 1 do not
        two = Presentation("free", (u(ns(1, n=2)), u(ns(2, n=2))), ())
        assert TruncatedIdealBasis(two, 22).dimension(22) == 2 ** 22
        with pytest.raises(ValueError, match="2\\^23 words exceed"):
            TruncatedIdealBasis(two, 23)

    def test_monomial_cap_on_one_letter(self):
        # one letter has one word per degree; huge degrees are refused at
        # once, without a loop over them
        one = Presentation("free", (u(ns(1, n=1)),), ())
        # each degree is charged MIN_SLICE_CHARGE words, so 9,999 degrees
        # are the most one letter may ask for
        assert TruncatedIdealBasis(one, 9999).dimension(9999) == 1
        with pytest.raises(ValueError, match="1\\^10000 words exceed"):
            TruncatedIdealBasis(one, 10000)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1\\^10000000 words exceed"):
            TruncatedIdealBasis(one, 10 ** 7)
        with pytest.raises(ValueError, match="1\\^100000000 words exceed"):
            TruncatedIdealBasis(one, 10 ** 8)
        assert time.perf_counter() - start < 1.0

    def test_entry_cap_refused_before_any_slice_is_built(self, monkeypatch):
        def insert(self, vec):
            raise AssertionError("a slice was built before the estimate")
        monkeypatch.setattr(Echelon, "insert", insert)
        pres = qn_presentation(4, "u")  # degree 4 fits, degree 5 does not
        with pytest.raises(ValueError, match="degree-5 slice would exceed"):
            TruncatedIdealBasis(pres, 5)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            TruncatedIdealBasis(qn_presentation(2, "u"), -1)
