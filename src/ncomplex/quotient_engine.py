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

A degree-1 relation of a single word kills that word's letter.  Every word
that holds a killed letter lies in the ideal, so it vanishes from every
relation and every query, and the slices are built over the other letters
only.  Those words are leading words of the full ideal, so the standard
words, dimensions, quotient bases and remainders are those of the full
ideal.  Every other relation, of degree 1 or more, spans its rows g * m2
like any other.

Each slice stores only the rows it inserts and links to the slice below:
a letter shift x * r of a row r spanned there is read through the column's
suffix, the column less its leading letter, and keeps each pivot its row's
largest column, so the pivots stay distinct.  Only the products g * m2 are
inserted; ``Echelon.insert`` returns the row each stores, kept by m2.  One
is skipped as dependent when its parent g * m2', m2 = m2' * y, stored no
row, or when m2 is the pivot (tip) of a row h of slice e - deg g:
g * m2 = g * h - sum over w < m2 of h_w * g * w, g * h lies in V * I_(e-1),
which the shifts span, and each g * w came earlier.  Any other is inserted
as r * y, r the row its parent stored (as the Simplify step of Faugere's F4
does), or as g if deg g = e.  r = (g * m2' - s) / p, p a scalar and s in
the span that g * m2' met, and s * y lies in the span that g * m2 meets:
s's shifts x * r' go to x * (r' * y) in V * I_(e-1), its products h * m2''
to h * (m2'' * y), which came before g * m2.  So r * y leaves g * m2's
remainder over p, every stored row and verdict is unchanged, and most such
vectors hold no pivot column.

Reduction pushes only pivot columns onto its heap.  Every row's other
entries lie below its pivot, so the columns pop in descending order, a
popped column never reappears, and an entry off the pivots is left as it is.
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

from .complexes import _require_int
from .free_algebra import Poly, Rational, Symbol, Word, _check_word_count, exact
from .presentations import Presentation

#: refuse slices whose spanning rows would hold more nonzeros than this
MATRIX_ENTRY_CAP = 10**7

Vector = dict[int, Rational]


class Echelon:
    """Sparse row store in triangular form: one row per pivot column, each
    row's pivot being its largest column, scaled so the pivot entry is 1.
    Integral entries are stored as int and all others as Fraction.
    ``pivots`` holds the rows inserted here.  Linked to the slice ``below``
    of k letters, the store also spans x * r for each letter x and row r
    spanned below; ``columns`` holds every pivot column, shifts' included."""

    __slots__ = ("pivots", "columns", "below", "words")

    def __init__(self, below: Echelon | None = None, k: int = 1):
        self.pivots: dict[int, Vector] = {}
        self.below = below
        self.words = 1 if below is None else k * below.words  # k^degree
        self.columns = set() if below is None else {
            c + base for c in below.columns for base in range(0, self.words, below.words)}

    @property
    def rank(self) -> int:
        return len(self.columns)

    def reduce(self, vec: Vector) -> Vector:
        """Normal form of vec modulo the spanned row space, a new dict
        supported off the pivot columns (a copy of vec if it holds none)."""
        pivots, columns = self.pivots, self.columns
        v = dict(vec)
        if columns.isdisjoint(v):
            return v
        heap = [-c for c in v if c in columns]
        heapq.heapify(heap)
        while heap:
            col = -heapq.heappop(heap)
            coef = v.pop(col, None)
            if coef is None:  # cancelled, or pushed again once refilled
                continue
            row, piv = pivots.get(col), col
            if row is None:  # a letter shift x * r, r stored at a suffix of col
                ech = self.below
                while (row := ech.pivots.get(piv := piv % ech.words)) is None:
                    ech = ech.below
            off = col - piv
            for c2, x in row.items():
                c2 += off
                if c2 == col:
                    continue
                acc = v.get(c2, 0) - coef * x
                if acc:
                    if c2 not in v and c2 in columns:
                        heapq.heappush(heap, -c2)
                    v[c2] = acc
                else:
                    v.pop(c2, None)
        return v

    def insert(self, vec: Vector) -> Vector | None:
        """Reduce and, if independent, store as a new pivot row.  Returns
        the row stored, the object now in ``pivots``, or None if vec lies
        in the span."""
        r = self.reduce(vec)
        if not r:
            return None
        lead = max(r)
        p = r[lead]
        if p == 1:  # the remainder is the row, its integral Fractions made int
            for c, x in r.items():
                if x.__class__ is not int:
                    r[c] = exact(x)
        else:  # -1 is its own inverse; 1 / int would give a float
            inv = -1 if p == -1 else 1 / Fraction(p)
            r = {c: exact(x * inv) for c, x in r.items()}
        self.pivots[lead] = r
        self.columns.add(lead)
        return r


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
    ``rows_reduced`` counts the rows passed to ``Echelon.insert``;
    ``rank`` is the rank of the full ideal's slice, k^e minus the
    quotient dimension."""
    rows_generated: int
    rows_reduced: int
    rank: int


class TruncatedIdealBasis:
    """Echelonized spanning sets of the ideal's degree slices up to a bound.

    The monomial order is degree-first, then lexicographic in the canonical
    order of the letters, the order in which Symbols sort.

    ``letters`` and ``k`` are the letters that no single-word degree-1
    relation kills, over which ``slices`` are built.  Each slice stores only
    the rows it inserted and reads the letter shifts of the lower slices,
    through its link, by the column's suffix.
    """

    def __init__(self, presentation: Presentation, max_degree: int):
        _require_int("max_degree", max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree = max_degree
        letters = sorted(presentation.alphabet)
        k = len(letters)
        _check_word_count(k, max_degree)
        # a Presentation's relations are nonzero and homogeneous, so any one
        # word's length is the degree
        rels = [(len(next(iter(r._terms))), r) for r in presentation.relations]
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
        # a single-word degree-1 relation kills its letter; the relations up
        # to max_degree are read over the other letters by degree (ties in
        # presentation order), less those that vanish there, as kills do
        killed = {s for deg, r in rels if deg == 1 and len(r._terms) == 1
                  for (s,) in r._terms}
        self.letters = [s for s in letters if s not in killed]
        self.k = len(self.letters)
        self._sym_index = {s: i for i, s in enumerate(self.letters)}
        self._alphabet = frozenset(letters)
        self._relations: list[tuple[int, Vector]] = [
            (deg, vec) for deg, r in sorted(rels, key=lambda dr: dr[0])
            if deg <= max_degree and (vec := self._vector(r))]
        self.slices: list[Echelon] = []
        self.stats: list[SliceStats] = []
        parents: list[dict[int, Vector]] = []
        for e in range(max_degree + 1):
            ech, reduced, parents = self._build_slice(e, parents)
            self.slices.append(ech)
            self.stats.append(SliceStats(
                rows_generated=spanning[e],
                rows_reduced=reduced,
                rank=k ** e - self.dimension(e)))

    def _build_slice(self, e: int, parents: list[dict[int, Vector]]
                     ) -> tuple[Echelon, int, list[dict[int, Vector]]]:
        """Echelon of the degree-e slice over ``letters``, the number of
        rows inserted, and per relation g a dict from m2 to the own row that
        g * m2 stored; ``parents`` holds those of degree e-1, the rows r
        whose r * y are inserted for g * (m2' * y)."""
        k = self.k
        ech = Echelon(self.slices[e - 1], k) if e else Echelon()
        reduced = 0
        stored = []
        for t, (e0, g) in enumerate(self._relations):
            if e0 > e:  # the relations are sorted by degree
                break
            tips = self.slices[e - e0].columns  # e0 >= 1: a slice already built
            if e0 == e:  # g itself, which has no parent
                products = [(0, g)]
            else:  # r * y sits at column c * k + y for each column c of r
                products = ((i * k + y, {c * k + y: x for c, x in r.items()})
                            for i, r in parents[t].items()
                            for y in range(k) if i * k + y not in tips)
            own: dict[int, Vector] = {}
            for m2, vec in products:
                reduced += 1
                if (row := ech.insert(vec)) is not None:
                    own[m2] = row
            stored.append(own)
        return ech, reduced, stored

    def _vector(self, q: Poly) -> Vector:
        """q's coordinates over the words of ``letters``; a word that holds a
        killed letter vanishes."""
        k, index = self.k, self._sym_index
        vec: Vector = {}
        for w, c in q._terms.items():
            col = 0
            for s in w:
                pos = index.get(s)
                if pos is None:  # a killed letter
                    break
                col = col * k + pos
            else:
                # distinct words over the letters: distinct columns
                vec[col] = c
        return vec

    def contains(self, q: Poly) -> bool:
        """Whether the homogeneous q lies in the ideal's slice at its degree."""
        return not self.reduce(q)

    def reduce(self, q: Poly) -> Poly:
        """Canonical remainder of q modulo the slice at its degree."""
        deg = q.degree()
        if deg is None:
            return Poly.zero()
        self._check_degree(deg)
        stray = set().union(*q._terms) - self._alphabet
        if stray:
            raise ValueError(f"symbol {min(stray)} is not in the presentation's alphabet")
        rem = self.slices[deg].reduce(self._vector(q))
        return Poly._canonical({_index_word(c, self.letters, deg): exact(x)
                                for c, x in rem.items()}, q._n)

    def _check_degree(self, e: int) -> None:
        _require_int("degree", e)
        if e < 0:
            raise ValueError(f"degree {e} is negative")
        if e > self.max_degree:
            raise ValueError(f"degree {e} exceeds max_degree {self.max_degree}")

    def rank(self, e: int) -> int:
        """Rank of the full ideal's degree-e slice."""
        self._check_degree(e)
        return self.stats[e].rank

    def dimension(self, e: int) -> int:
        """Quotient dimension at degree e: words minus ideal rank."""
        self._check_degree(e)
        return self.k ** e - self.slices[e].rank

    def dimensions(self) -> list[int]:
        return [self.dimension(e) for e in range(self.max_degree + 1)]

    def quotient_basis(self, e: int) -> list[Word]:
        """The non-pivot words at degree e, in canonical order."""
        self._check_degree(e)
        piv = self.slices[e].columns
        return [_index_word(i, self.letters, e)
                for i in range(self.k ** e) if i not in piv]


def graded_dimension(p: Presentation, d: int) -> list[int]:
    """Quotient dimensions at degrees 0..d."""
    return TruncatedIdealBasis(p, d).dimensions()
