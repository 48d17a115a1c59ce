"""Exact arithmetic in the free associative algebra on set-indexed generators.

Generators come in two families over a universe {1..n}: z(A,i) with i not in
A, and u(A) with A nonempty.  u of the empty set is the algebra unit and is
represented by the empty word, never by a symbol.  Every generator has degree
1, so the relation families built on top of this module are homogeneous and
the quotient algebras are graded.  A Symbol is the int that orders it
canonically, so the words of every polynomial hash and compare in C.  u and
z return one Symbol per letter: each letter they are asked for is built and
validated once, then held for the process.

Coefficients are exact rationals: int where integral, else Fraction (``exact``);
polynomials are canonical term maps, so equality is literal equality of the maps.
Every sum of term maps (Poly +, - and *, commutator, substitute, the parser's
sums) is made by _add or _add_products.  Poly(mapping) checks every term and
its universe; arithmetic takes over its canonical results unchecked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NoReturn

from .complexes import NodeSet, _require_int

#: refuse more words than this over degrees 0..d (guards |alphabet|**d blowups)
MONOMIAL_CAP = 10**7
#: each degree from 1 on is charged at least this many words against the
#: cap: a slice costs its echelon and a pass over the relations however few
#: its words, so a one-letter alphabet cannot ask for millions of slices
MIN_SLICE_CHARGE = 1000

#: a coefficient: an int where integral, else a Fraction (``exact`` makes it so)
Rational = Fraction | int


def exact(c: Rational) -> Rational:
    """c as an int when it is integral, else as a Fraction.  Only int and
    Fraction are coefficients: a float, str or Decimal raises TypeError."""
    if c.__class__ is int:
        return c
    if c.__class__ is Fraction:  # its slots: the public properties are Python calls
        return c._numerator if c._denominator == 1 else c
    if isinstance(c, (int, Fraction)) and not isinstance(c, Symbol):
        return exact(Fraction(c))
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class Symbol(int):
    """A degree-1 generator: kind 'z' carries (A, i) with i not in A, kind 'u'
    carries a nonempty A.  It is the int it hashes, compares and orders as:
    kind, |A| (5 bits), A's elements (16), i (5), n (5).  ``kind``, ``a``
    and ``i`` are read-only, and arithmetic on it raises TypeError."""

    def __new__(cls, kind: str, a: NodeSet, i: int | None = None) -> "Symbol":
        if kind == "z":
            if i is None:
                raise ValueError("z generator needs an index i")
            _require_int("index", i)
            if not 1 <= i <= a.n:
                raise ValueError(f"index {i} outside 1..{a.n}")
            if i in a:
                raise ValueError(f"z({a},{i}) requires {i} not in {a}")
        elif kind == "u":
            if i is not None:
                raise ValueError("u generator takes no index")
            if a.is_empty:
                raise ValueError("u({}) is the unit, not a generator")
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        self = super().__new__(cls, (((kind == "u") << 21 | a.sort_key()) << 5
                                     | (i or 0)) << 5 | a.n)
        self.__dict__.update(kind=kind, a=a, i=i)
        return self

    def __getnewargs__(self) -> tuple:
        return self.kind, self.a, self.i

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Symbol field {name!r} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Symbol(kind={self.kind!r}, a={self.a!r}, i={self.i!r})"

    @property
    def n(self) -> int:
        return self.a.n

    def __str__(self) -> str:
        if self.kind == "z":
            return f"z({self.a},{self.i})"
        return f"u({self.a})"

    def _not_a_number(self, *_: object) -> NoReturn:
        raise TypeError(f"{self} is a generator, not a number; use Poly.from_symbol")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _not_a_number
    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = __neg__ = _not_a_number


#: the one Symbol of each letter that u or z has returned, keyed by (n, bits)
#: for u(A) and (n, bits, i) for z(A,i); a letter is only added once Symbol
#: has accepted it, and never removed
_LETTERS: dict[tuple[int, ...], Symbol] = {}


def z(a: NodeSet, i: int) -> Symbol:
    if i.__class__ is not int:  # True or 1.0 would find z(A,1): let Symbol refuse it
        return Symbol("z", a, i)
    s = _LETTERS.get((a.n, a.bits, i))
    if s is None:  # setdefault, as in complexes._node_set
        s = _LETTERS.setdefault((a.n, a.bits, i), Symbol("z", a, i))
    return s


def u(a: NodeSet) -> Symbol:
    s = _LETTERS.get((a.n, a.bits))
    if s is None:
        s = _LETTERS.setdefault((a.n, a.bits), Symbol("u", a))
    return s


def symbol_key(s: Symbol) -> int:
    """Canonical total order: all z before all u, then by (|A|, elements, i)
    (then n, which only tells apart symbols of different universes)."""
    return int(s)


#: a word in the generators; the empty tuple is the unit monomial
Word = tuple[Symbol, ...]
#: a canonical term map: word -> nonzero ``exact`` coefficient
_Terms = dict[Word, Rational]


def word_key(w: Word) -> tuple:
    """Degree-first, then lexicographic by the symbol order."""
    return (len(w), w)


class Poly:
    """A polynomial of the free algebra: a canonical map word -> coefficient."""

    __slots__ = ("_terms", "_n")

    def __init__(self, terms: Mapping[Word, Rational] | None = None):
        data: dict[Word, Rational] = {}
        n = None
        for w, c in (terms or {}).items():
            c = exact(c)
            if not c:
                continue
            for s in w:
                if n is None:
                    n = s.n
                elif s.n != n:
                    raise ValueError(f"mixed universes: n={n} vs n={s.n}")
            data[w] = c
        self._terms = data
        self._n = n

    @classmethod
    def _canonical(cls, terms: dict[Word, Rational], n: int | None) -> "Poly":
        """Take over a canonical map (nonzero ``exact`` coefficients, symbols over
        universe n) unchecked; like Poly(), forget n when only the unit word is left."""
        p = object.__new__(cls)
        p._terms = terms
        p._n = n if any(terms) else None
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._canonical({}, None)

    @classmethod
    def one(cls) -> "Poly":
        return cls._canonical({(): 1}, None)

    @classmethod
    def from_symbol(cls, s: Symbol) -> "Poly":
        return cls._canonical({(s,): 1}, s.n)

    @classmethod
    def term(cls, coeff: Rational, word: Word) -> "Poly":
        return cls({tuple(word): coeff})

    @property
    def terms(self) -> dict[Word, Rational]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _check_universe(self, other: "Poly") -> int | None:
        if self._n is not None and other._n is not None and self._n != other._n:
            raise ValueError(f"mixed universes: n={self._n} vs n={other._n}")
        return self._n or other._n

    def __add__(self, other: "Poly") -> "Poly":
        n = self._check_universe(other)
        return Poly._canonical(_add(dict(self._terms), other._terms), n)

    def __neg__(self) -> "Poly":
        return Poly._canonical({w: -c for w, c in self._terms.items()}, self._n)

    def __sub__(self, other: "Poly") -> "Poly":
        n = self._check_universe(other)
        return Poly._canonical(_add(dict(self._terms), other._terms, True), n)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        if not isinstance(other, Poly):
            return self.__rmul__(other)
        n = self._check_universe(other)
        return Poly._canonical(_add_products({}, self._terms, other._terms), n)

    def __rmul__(self, other: Rational) -> "Poly":
        return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

    def scale(self, c: Rational) -> "Poly":
        c = exact(c)
        return Poly._canonical({w: exact(c * x) for w, x in self._terms.items()}
                               if c else {}, self._n)

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self._terms})

    def degree(self) -> int | None:
        """Common degree of a homogeneous polynomial; None for zero."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {degs}")
        return degs[0]

    def graded_component(self, d: int) -> "Poly":
        if d < 0:
            raise ValueError("degree must be >= 0")
        return Poly._canonical({w: c for w, c in self._terms.items() if len(w) == d},
                               self._n)

    def symbols(self) -> set[Symbol]:
        return {s for w in self._terms for s in w}

    def sorted_terms(self) -> list[tuple[Word, Rational]]:
        return sorted(self._terms.items(), key=lambda wc: word_key(wc[0]))

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"


def _add(out: _Terms, terms: _Terms, negate: bool = False) -> _Terms:
    """out += terms (-= when negate), in place, and return out: a word whose
    sum is zero leaves the map, an integral sum is stored as an int."""
    for w, c in terms.items():
        acc = out.get(w, 0) - c if negate else out.get(w, 0) + c
        if acc:
            out[w] = exact(acc)
        else:
            out.pop(w, None)
    return out


def _add_products(out: _Terms, p: _Terms, q: _Terms, negate: bool = False) -> _Terms:
    """out += p * q (-= when negate) by _add's rule, each product of terms
    summed into out as it is formed."""
    for w1, c1 in p.items():
        if negate:
            c1 = -c1
        for w2, c2 in q.items():
            w = w1 + w2
            acc = out.get(w, 0) + c1 * c2
            if acc:
                out[w] = exact(acc)
            else:
                out.pop(w, None)
    return out


def commutator(p: Poly, q: Poly) -> Poly:
    """[p, q] = pq - qp, both products summed into one map."""
    n = p._check_universe(q)
    out = _add_products({}, p._terms, q._terms)
    return Poly._canonical(_add_products(out, q._terms, p._terms, True), n)


def substitute(p: Poly, images: Mapping[Symbol, Poly]) -> Poly:
    """Apply the algebra homomorphism sending each symbol to its image; one word's
    images must share a universe, and Poly() checks the terms that survive."""
    out: _Terms = {}
    for w, c in p._terms.items():
        acc = Poly._canonical({(): c}, None)
        for s in w:
            img = images.get(s)
            if img is None:
                raise ValueError(f"no image for symbol {s}")
            acc = acc * img
        _add(out, acc._terms)
    return Poly(out)


def _check_word_count(k: int, d: int) -> None:
    """Refuse when the words of degrees 0..d over k letters, each degree from
    1 on charged at least MIN_SLICE_CHARGE, exceed MONOMIAL_CAP.  Charging
    stops once past the cap, so the cost does not grow with d.  From k = 2
    on, the charge refuses exactly the degrees that the plain word count
    refuses."""
    total, words = 1, 1
    for _ in range(d):
        words *= k
        total += max(words, MIN_SLICE_CHARGE)
        if total > MONOMIAL_CAP:
            raise ValueError(f"{k}^{d} words exceed the monomial cap {MONOMIAL_CAP}")


# ---------------------------------------------------------------------------
# canonical text form (stable: used by the CLI and frozen in golden tests)
# ---------------------------------------------------------------------------

def word_text(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(str(s) for s in w)


def poly_text(p: Poly) -> str:
    """Terms in ascending canonical monomial order, signs folded into ' + '
    / ' - ' separators, unit coefficients omitted before nonunit words."""
    if not p:
        return "0"
    parts = []
    for k, (w, c) in enumerate(p.sorted_terms()):
        neg = c < 0
        mag = -c if neg else c
        if not w:
            body = str(mag)
        elif mag == 1:
            body = word_text(w)
        else:
            body = f"{mag}*{word_text(w)}"
        if k == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)
