"""Degree-truncated two-sided ideal computation over exact rationals.

For a presentation with homogeneous relations, the ideal it generates is
graded, and its degree-e slice is spanned by the products m1 * g * m2 where g
is a relation and deg m1 + deg g + deg m2 = e.  This module materializes those
spanning rows degree by degree as sparse rational vectors over the canonical
word list, keeps them in triangular (distinct leading column) form, and
answers membership, rank and quotient-basis queries from that structure.
Coefficients stay exact, never float: int where integral, else Fraction.

A product that is a one-letter shift x * r or r * y of a row r found
dependent at the degree below depends on the rows before it too, so it is
skipped without being reduced; the stored rows equal those of reducing every
product.

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

from .free_algebra import Poly, Rational, Symbol, Word, _check_word_count, symbol_key
from .presentations import Presentation

#: refuse slices whose spanning rows would hold more nonzeros than this
MATRIX_ENTRY_CAP = 10**7

Vector = dict[int, Rational]


def _exact(x: Rational) -> Rational:
    """x as an int when it is integral, else as a Fraction."""
    return x.numerator if x.denominator == 1 else x


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
        self.pivots[lead] = {c: _exact(x * inv) for c, x in r.items()}
        return True


def _word_index(word: Word, sym_index: dict[Symbol, int], k: int) -> int:
    idx = 0
    for s in word:
        pos = sym_index.get(s)
        if pos is None:
            raise ValueError(f"symbol {s} is not in the presentation's alphabet")
        idx = idx * k + pos
    return idx


def _index_word(idx: int, letters: list[Symbol], degree: int) -> Word:
    k = len(letters)
    out = []
    for _ in range(degree):
        idx, pos = divmod(idx, k)
        out.append(letters[pos])
    return tuple(reversed(out))


@dataclass(frozen=True)
class SliceStats:
    """Per degree: spanning products m1 * g * m2, those of them passed to
    ``Echelon.insert`` (the others are shifts of dependent rows), and the
    rank."""
    rows_generated: int
    rows_reduced: int
    rank: int


class TruncatedIdealBasis:
    """Echelonized spanning sets of the ideal's degree slices up to a bound.

    The monomial order is degree-first, then lexicographic by ``key`` on the
    symbols; pass a different ``key`` to re-run under another order (results
    of rank, dimension and membership must agree).
    """

    def __init__(self, presentation: Presentation, max_degree: int,
                 key: Callable[[Symbol], int] = symbol_key):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.presentation = presentation
        self.max_degree = max_degree
        self.key = key
        self.letters = sorted(presentation.alphabet, key=key)
        self.k = len(self.letters)
        _check_word_count(self.k, max_degree)
        self._sym_index = {s: p for p, s in enumerate(self.letters)}
        # each relation as (degree, [(column of word, coefficient)]), in
        # sorted_terms order
        self._rel_coords: list[tuple[int, list[tuple[int, Rational]]]] = []
        for r in presentation.relations:
            deg = r.degree()
            if deg is None or deg < 1:
                raise ValueError("relations must be nonzero of degree >= 1")
            self._rel_coords.append(
                (deg, [(_word_index(w, self._sym_index, self.k), _exact(c))
                       for w, c in r.sorted_terms()]))
        # refuse an over-large request before any slice is built
        for e in range(max_degree + 1):
            entries = sum(len(coords) * (e - e0 + 1) * self.k ** (e - e0)
                          for e0, coords in self._rel_coords if e0 <= e)
            if entries > MATRIX_ENTRY_CAP:
                raise ValueError(
                    f"degree-{e} slice would exceed {MATRIX_ENTRY_CAP} matrix entries")
        # processing degree-1 relations first lets single-word kill rows act
        # as cheap pivots before the wide quadratic rows arrive
        self._rel_order = sorted(range(len(self._rel_coords)),
                                 key=lambda t: (self._rel_coords[t][0], t))
        self.slices: list[Echelon] = []
        self.stats: list[SliceStats] = []
        dependent: dict[tuple[int, int], bytearray] = {}
        for e in range(max_degree + 1):
            ech, dependent = self._build_slice(e, dependent)
            self.slices.append(ech)

    def _build_slice(self, e: int, parents: dict[tuple[int, int], bytearray]
                     ) -> tuple[Echelon, dict[tuple[int, int], bytearray]]:
        """Echelon of the degree-e slice, and the dependent flags of its rows
        by (relation, a).  ``parents`` holds the flags of degree e-1."""
        ech = Echelon()
        k = self.k
        rows = reduced = 0
        dependent = {}
        for t in self._rel_order:
            e0, coords = self._rel_coords[t]
            if e0 > e:
                continue
            n = k ** (e - e0)
            # m1 * w * m2 with |m1| = a, |m2| = b sits at column
            # m1 * k^(e-a) + w * k^b + m2; distinct words w give distinct
            # columns, so each row is its relation's terms shifted
            for a in range(e - e0 + 1):
                b = e - e0 - a
                kb, step = k ** b, k ** (e - a)
                shifted = [(col * kb, c) for col, c in coords]
                # the row with block index i = m1 * k^b + m2 is x * (its left
                # parent) and (its right parent) * y, the degree-(e-1) rows
                # at index i mod k^(e-e0-1) of block a-1 (m1 loses its first
                # letter) and i div k of block a (m2 loses its last letter).
                # Shifting by a letter keeps the generation order, so a
                # shift of a row dependent on the rows before it is
                # dependent too, and inserting it would change nothing.
                left, right = parents.get((t, a - 1)), parents.get((t, a))
                kl = n // k
                flags = dependent[t, a] = bytearray(n)
                i = 0
                for m1 in range(k ** a):
                    for base in range(m1 * step, m1 * step + kb):
                        if ((left is not None and left[i % kl])
                                or (right is not None and right[i // k])):
                            flags[i] = 1
                        else:
                            reduced += 1
                            if not ech.insert({base + col: c for col, c in shifted}):
                                flags[i] = 1
                        i += 1
                rows += n
        self.stats.append(SliceStats(rows_generated=rows, rows_reduced=reduced,
                                     rank=ech.rank))
        return ech, dependent

    def _coords(self, q: Poly) -> tuple[int, Vector]:
        deg = q.degree()
        if deg is None:
            return 0, {}
        if deg > self.max_degree:
            raise ValueError(f"degree {deg} exceeds max_degree {self.max_degree}")
        vec = {_word_index(w, self._sym_index, self.k): _exact(c)
               for w, c in q._terms.items()}
        return deg, vec

    def contains(self, q: Poly) -> bool:
        """Whether the homogeneous q lies in the ideal's slice at its degree."""
        deg, vec = self._coords(q)
        if not vec:
            return True
        return not self.slices[deg].reduce(vec)

    def reduce(self, q: Poly) -> Poly:
        """Canonical remainder of q modulo the slice at its degree."""
        deg, vec = self._coords(q)
        if not vec:
            return Poly.zero()
        rem = self.slices[deg].reduce(vec)
        return Poly._canonical({_index_word(c, self.letters, deg): Fraction(x)
                                for c, x in rem.items()}, q._n)

    def rank(self, e: int) -> int:
        return self.slices[e].rank

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
