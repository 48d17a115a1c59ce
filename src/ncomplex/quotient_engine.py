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

Each slice first stores x * r for every letter x and stored row r of the
degree below, without reducing them: a shift keeps each pivot its row's
largest column, and the pivots stay distinct.  Only the products g * m2 are
then reduced, and one is skipped as dependent when it is a right shift
r * y of a row r found dependent at the degree below, as it depends on the
rows before it too, or when m2 is the pivot (tip) of a row h of slice
e - deg g: g * m2 = g * h - sum over w < m2 of h_w * g * w, g * h lies in
V * I_(e-1), which the copied shifts span, and each g * w came earlier.

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
    Integral entries are stored as int and all others as Fraction."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, Vector] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Vector) -> Vector:
        """Normal form of vec modulo the stored row space (vec is not
        mutated), supported off the pivot columns.  Only pivot columns enter
        the heap: a row's other entries lie below its pivot, so columns pop
        in descending order and a popped column never reappears."""
        pivots = self.pivots
        v = dict(vec)
        heap = [-c for c in v if c in pivots]
        heapq.heapify(heap)
        while heap:
            col = -heapq.heappop(heap)
            coef = v.pop(col, None)
            if coef is None:  # cancelled, or pushed again once refilled
                continue
            for c2, x in pivots[col].items():
                if c2 == col:
                    continue
                acc = v.get(c2, 0) - coef * x
                if acc:
                    if c2 not in v and c2 in pivots:
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
        p = r[lead]
        if p == 1:  # the remainder is the row, its integral Fractions made int
            for c, x in r.items():
                if x.__class__ is not int:
                    r[c] = exact(x)
        else:  # -1 is its own inverse; 1 / int would give a float
            inv = -1 if p == -1 else 1 / Fraction(p)
            r = {c: exact(x * inv) for c, x in r.items()}
        self.pivots[lead] = r
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
    relation kills, over which ``slices`` are built.
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
        self._relations: list[tuple[int, list[tuple[int, Rational]]]] = []
        for deg, r in sorted(rels, key=lambda dr: dr[0]):
            if deg <= max_degree:
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
                rows_reduced=reduced,
                rank=k ** e - self.dimension(e)))

    def _build_slice(self, e: int, parents: list[bytearray]
                     ) -> tuple[Echelon, int, list[bytearray]]:
        """Echelon of the degree-e slice over ``letters``, the number of
        rows inserted, and per relation the dependent flags of its rows
        g * m2, by m2; ``parents`` holds the flags of degree e-1."""
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
            tips = self.slices[e - e0].pivots  # e0 >= 1: a slice already built
            flags = bytearray(n)
            for m2 in range(n):
                if not parent[m2 // k] and m2 not in tips:
                    reduced += 1
                    if ech.insert({m2 + col: c for col, c in shifted}):
                        continue
                flags[m2] = 1
            dependent.append(flags)
        return ech, reduced, dependent

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
        piv = self.slices[e].pivots
        return [_index_word(i, self.letters, e)
                for i in range(self.k ** e) if i not in piv]


def graded_dimension(p: Presentation, d: int) -> list[int]:
    """Quotient dimensions at degrees 0..d."""
    return TruncatedIdealBasis(p, d).dimensions()
