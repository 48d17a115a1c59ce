"""Degree-truncated two-sided ideal computation over exact rationals.

For a presentation with homogeneous relations, the ideal it generates is
graded, and its degree-e slice is spanned by the products m1 * g * m2 where g
is a relation and deg m1 + deg g + deg m2 = e.  Those with m1 nonempty are
letter shifts x * r of the degree below, so I_e = V * I_(e-1) + sum over g
of g * V^(e - deg g).  This module builds the slices degree by degree as
sparse rational vectors over the canonical word list in triangular (distinct
leading column) form, and answers membership, rank and quotient-basis
queries from that structure.
Coefficients stay exact, never float: int where integral, else Fraction.

The degree-1 relations are echelonized first.  Each of their pivot letters
is replaced by its normal form, which holds only smaller letters (for a
single-word kill it is zero), in every other relation and in every query,
and the slices are built over the surviving letters only.  Every word that
holds an eliminated letter is then a leading word of the full ideal, so the
standard words, dimensions, quotient bases and remainders are those of the
full ideal.

Each slice first stores x * r for every letter x and stored row r of the
degree below, without reducing them: a shift keeps each pivot its row's
largest column, and the pivots stay distinct.  Only the products g * m2 are
then reduced, and one that is a right shift r * y of a row r found dependent
at the degree below is skipped, as it depends on the rows before it too.

Normal forms are canonical: a reduced remainder is supported only on
non-pivot columns, and the projection along the row space onto those
coordinates does not depend on how the triangular basis was built.  The
pivot-column set itself is basis-independent too, so graded dimensions and
quotient bases are well-defined, and repeated runs are byte-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .free_algebra import Poly, Rational, Symbol, Word, _check_word_count, exact, symbol_key
from .presentations import Presentation

#: refuse slices whose spanning rows would hold more nonzeros than this
MATRIX_ENTRY_CAP = 10**7

Vector = dict[int, Rational]


class Echelon:
    """Sparse row store in triangular form: one row per pivot column, each
    row's pivot being its largest column, scaled so the pivot entry is 1.
    Integral entries are stored as int and all others as Fraction."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, Vector] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Vector) -> Vector:
        """Normal form of vec modulo the stored row space (vec is not
        mutated).  Returns a vector supported off the pivot columns."""
        v = dict(vec)
        heap = [-c for c in v]
        heapq.heapify(heap)
        while heap:
            col = -heapq.heappop(heap)
            if col not in v:
                continue
            row = self.pivots.get(col)
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

    def insert(self, vec: Vector) -> bool:
        """Reduce and, if independent, store as a new pivot row.  Returns
        whether the rank grew."""
        r = self.reduce(vec)
        if not r:
            return False
        lead = max(r)
        # a pivot of +-1 is its own inverse; 1 / int would give a float
        inv = r[lead] if r[lead] in (1, -1) else 1 / Fraction(r[lead])
        self.pivots[lead] = {c: exact(x * inv) for c, x in r.items()}
        return True


def _index_word(idx: int, letters: list[Symbol], degree: int) -> Word:
    k = len(letters)
    out = []
    for _ in range(degree):
        idx, pos = divmod(idx, k)
        out.append(letters[pos])
    return tuple(reversed(out))


@dataclass(frozen=True)
class SliceStats:
    """Per degree, for the presentation as given: ``rows_generated`` is the
    size of its spanning set, the sum over relations g of
    (e - deg g + 1) * k^(e - deg g) with k the given alphabet's size;
    ``rows_reduced`` counts the rows actually passed to ``Echelon.insert``
    (the degree-1 relations at degree 1, and the products g * m2 of the
    other relations, rewritten over the surviving letters, that are not
    right shifts of dependent rows), not the letter shifts of the degree
    below's rows, which are copied; ``rank`` is the rank of the full ideal's
    slice, k^e minus the quotient dimension."""
    rows_generated: int
    rows_reduced: int
    rank: int


class TruncatedIdealBasis:
    """Echelonized spanning sets of the ideal's degree slices up to a bound.

    The monomial order is degree-first, then lexicographic by ``key`` on the
    symbols; pass a different ``key`` to re-run under another order (results
    of rank, dimension and membership must agree).

    ``letters`` and ``k`` are the surviving letters, over which ``slices``
    are built; the other letters of the alphabet are eliminated by the
    degree-1 relations.
    """

    def __init__(self, presentation: Presentation, max_degree: int,
                 key: Callable[[Symbol], int] = symbol_key):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree = max_degree
        letters = sorted(presentation.alphabet, key=key)
        k = len(letters)
        _check_word_count(k, max_degree)
        rels = []
        for r in presentation.relations:
            deg = r.degree()
            if deg is None or deg < 1:
                raise ValueError("relations must be nonzero of degree >= 1")
            rels.append((deg, r))
        # per degree, the spanning products m1 * g * m2 over the given
        # alphabet; an over-large request is refused before any slice is built
        spanning = []
        for e in range(max_degree + 1):
            products = [((e - e0 + 1) * k ** (e - e0), len(r._terms))
                        for e0, r in rels if e0 <= e]
            if sum(m * t for m, t in products) > MATRIX_ENTRY_CAP:
                raise ValueError(
                    f"degree-{e} slice would exceed {MATRIX_ENTRY_CAP} matrix entries")
            spanning.append(sum(m for m, _ in products))
        # eliminate the letters that are pivots of the degree-1 relations:
        # each is replaced by its normal form, which holds smaller letters only
        linear = Echelon()
        index = {s: p for p, s in enumerate(letters)}
        for deg, r in rels:
            if deg == 1:
                linear.insert({index[w[0]]: c for w, c in r._terms.items()})
        survivors = [p for p in range(k) if p not in linear.pivots]
        self.letters = [letters[p] for p in survivors]
        self.k = len(self.letters)
        self._sym_index = {s: i for i, s in enumerate(self.letters)}
        column = dict(zip(survivors, range(self.k)))
        # every letter's normal form over the surviving letters
        self._image = {letters[p]: [(column[c], exact(x))
                                    for c, x in linear.reduce({p: 1}).items()]
                       for p in range(k)}
        # the relations of degrees 2..max_degree over the surviving letters, by
        # degree (ties in presentation order), less those that vanish there
        self._relations: list[tuple[int, list[tuple[int, Rational]]]] = []
        for deg, r in sorted(rels, key=lambda dr: dr[0]):
            if 1 < deg <= max_degree:
                vec = self._vector(r)
                if vec:
                    self._relations.append((deg, list(vec.items())))
        self.slices: list[Echelon] = []
        self.stats: list[SliceStats] = []
        dependent: list[bytearray] = []
        for e in range(max_degree + 1):
            ech, reduced, dependent = self._build_slice(e, dependent)
            self.slices.append(ech)
            self.stats.append(SliceStats(
                rows_generated=spanning[e],
                rows_reduced=spanning[1] if e == 1 else reduced,
                rank=k ** e - self.dimension(e)))

    def _build_slice(self, e: int, parents: list[bytearray]
                     ) -> tuple[Echelon, int, list[bytearray]]:
        """Echelon of the eliminated ideal's degree-e slice, the number of
        rows inserted, and per relation the dependent flags of its rows
        g * m2, by m2; ``parents`` holds the flags of degree e-1.  A skipped
        g * m2' * y lies in V * I_(e-2) * y, inside the copied rows, plus
        the right shifts of the rows before g * m2', which come before it."""
        ech = Echelon()
        k = self.k
        if e:
            step = k ** (e - 1)
            for piv, row in self.slices[e - 1].pivots.items():
                for base in range(0, k * step, step):
                    ech.pivots[base + piv] = {base + c: x for c, x in row.items()}
        reduced = 0
        dependent = []
        for t, (e0, coords) in enumerate(self._relations):
            if e0 > e:  # the relations are sorted by degree
                break
            n = k ** (e - e0)
            # g * m2 sits at column w * k^(e-e0) + m2 for each word w of g;
            # its parent g * m2' with m2 = m2' * y has index m2 div k
            shifted = [(col * n, c) for col, c in coords]
            parent = parents[t] if t < len(parents) else b"\0"  # deg g = e: no parent
            flags = bytearray(n)
            for m2 in range(n):
                if not parent[m2 // k]:
                    reduced += 1
                    if ech.insert({m2 + col: c for col, c in shifted}):
                        continue
                flags[m2] = 1
            dependent.append(flags)
        return ech, reduced, dependent

    def _vector(self, q: Poly) -> Vector:
        """q's coordinates over the surviving words, with every eliminated
        letter replaced by its image."""
        k, index, image = self.k, self._sym_index, self._image
        vec: Vector = {}
        expanded = []
        for w, c in q._terms.items():
            col = 0
            for s in w:
                pos = index.get(s)
                if pos is None:
                    # a killed letter (empty image) makes the word vanish; a
                    # symbol outside the alphabet is reported by _expand
                    if image.get(s, True):
                        expanded.append((w, c))
                    break
                col = col * k + pos
            else:
                # distinct words over the surviving letters: distinct columns
                vec[col] = c
        for w, c in expanded:
            for col, x in self._expand(w, c):
                acc = vec.get(col, 0) + x
                if acc:
                    vec[col] = acc
                else:
                    vec.pop(col, None)
        return vec

    def _expand(self, w: Word, c: Rational) -> list[tuple[int, Rational]]:
        """c * w over the surviving words, for a word holding an eliminated
        letter."""
        k = self.k
        terms = [(0, c)]
        for s in w:
            img = self._image.get(s)
            if img is None:
                raise ValueError(f"symbol {s} is not in the presentation's alphabet")
            terms = [(col * k + p, x * y) for col, x in terms for p, y in img]
            if not terms:
                break
        return terms

    def contains(self, q: Poly) -> bool:
        """Whether the homogeneous q lies in the ideal's slice at its degree."""
        return not self.reduce(q)

    def reduce(self, q: Poly) -> Poly:
        """Canonical remainder of q modulo the slice at its degree."""
        deg = q.degree()
        if deg is None:
            return Poly.zero()
        if deg > self.max_degree:
            raise ValueError(f"degree {deg} exceeds max_degree {self.max_degree}")
        rem = self.slices[deg].reduce(self._vector(q))
        return Poly._canonical({_index_word(c, self.letters, deg): exact(x)
                                for c, x in rem.items()}, q._n)

    def rank(self, e: int) -> int:
        """Rank of the full ideal's degree-e slice."""
        return self.stats[e].rank

    def dimension(self, e: int) -> int:
        """Quotient dimension at degree e: words minus ideal rank."""
        return self.k ** e - self.slices[e].rank

    def dimensions(self) -> list[int]:
        return [self.dimension(e) for e in range(self.max_degree + 1)]

    def quotient_basis(self, e: int) -> list[Word]:
        """The non-pivot words at degree e, in canonical order."""
        piv = self.slices[e].pivots
        return [_index_word(i, self.letters, e)
                for i in range(self.k ** e) if i not in piv]


def graded_dimension(p: Presentation, d: int,
                     key: Callable[[Symbol], int] = symbol_key) -> list[int]:
    """Quotient dimensions at degrees 0..d."""
    return TruncatedIdealBasis(p, d, key=key).dimensions()
