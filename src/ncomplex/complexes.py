"""Node sets, simplicial complexes and graphs on the vertex universe {1..n}.

A complex is a downward-closed family of nonempty subsets of {1..n} that
always contains every singleton.  Sets are stored as bitmasks (bit k-1
represents vertex k), which caps the universe at 16 vertices.  NodeSet alone
checks n and vertices, and NodeSet.of, full, plus, minus, | and subsets
return one object per value: each set they, closure, enumerate_complexes
and Complex ask for is built and validated once, then held for the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

UNIVERSE_CAP = 16
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _vertex_text(v: object) -> str:
    """repr(v) for a refusal, cut to at most 40 characters."""
    return f"{v!r:.37}..." if len(repr(v)) > 40 else repr(v)


def _require_int(name: str, v: object) -> None:
    """Refuse a v that is not an int, or is a bool (True would pass as 1)."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{name} {_vertex_text(v)} is not an integer")


def _mask_of(members: Iterable[int], n: int) -> int:
    mask = 0
    for v in members:
        _require_int("vertex", v)
        if not 1 <= v <= n:
            raise ValueError(f"vertex {_vertex_text(v)} "
                             + (f"exceeds n={n}" if v > n else "is below 1"))
        mask |= 1 << (v - 1)
    return mask


@dataclass(frozen=True)
class NodeSet:
    """A subset of {1..n}, held as a bitmask.  ``a | b`` is the union of two
    sets on one universe; ``plus`` and ``minus`` add and remove one node."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _require_int("n", self.n)
        _require_int("bitmask", self.bits)
        if not 1 <= self.n <= UNIVERSE_CAP:
            raise ValueError(f"n={self.n} outside 1..{UNIVERSE_CAP}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bitmask {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "NodeSet":
        _require_int("n", n)  # before the lookup, where True would find n=1
        return _node_set(n, _mask_of(members, n))

    @classmethod
    def full(cls, n: int) -> "NodeSet":
        _require_int("n", n)
        # an n out of range is left to __post_init__'s bound, not to the shift
        return _node_set(n, (1 << min(max(n, 0), UNIVERSE_CAP)) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.bits >> (v - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= self.n and bool(self.bits >> (v - 1) & 1)

    def _check_universe(self, other: "NodeSet") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed universes: n={self.n} vs n={other.n}")

    def __or__(self, other: "NodeSet") -> "NodeSet":
        self._check_universe(other)
        return _node_set(self.n, self.bits | other.bits)

    def plus(self, v: int) -> "NodeSet":
        return _node_set(self.n, self.bits | _mask_of((v,), self.n))

    def minus(self, v: int) -> "NodeSet":
        return _node_set(self.n, self.bits & ~_mask_of((v,), self.n))

    def sort_key(self) -> int:
        """The canonical order as one int: size, then elements.  Of two sets of
        one size, A comes first exactly when the smallest vertex in only one of
        them lies in A: when A's mask read with vertex 1 atop 16 bits is larger."""
        rev = _REVERSED_BYTE[self.bits & 0xFF] << 8 | _REVERSED_BYTE[self.bits >> 8]
        return self.size << 16 | (0xFFFF - rev)

    def subsets(self) -> list["NodeSet"]:
        """All subsets of this set (including empty and itself), in canonical order."""
        bits = [1 << (v - 1) for v in self.elements]
        return [_node_set(self.n, sum(c))
                for k in range(len(bits) + 1) for c in combinations(bits, k)]

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.elements) + "}"


#: the one NodeSet of each (n, bits) asked of a NodeSet method or of _node_set;
#: a value is only added once NodeSet has accepted it, and never removed
_NODE_SETS: dict[tuple[int, int], NodeSet] = {}


def _node_set(n: int, bits: int) -> NodeSet:
    """The held NodeSet(n, bits), built and validated on its first request;
    n and bits must be ints, not bools (True would find n=1's sets)."""
    s = _NODE_SETS.get((n, bits))
    if s is None:  # setdefault: two threads that both miss still get one object
        s = _NODE_SETS.setdefault((n, bits), NodeSet(n, bits))
    return s


@dataclass(frozen=True)
class Complex:
    """A downward-closed family of nonempty node sets containing all singletons."""

    n: int
    faces: frozenset[NodeSet]

    def __post_init__(self) -> None:
        NodeSet.full(self.n)  # NodeSet's checks of n
        if not isinstance(self.faces, frozenset):
            raise ValueError(f"faces must be a frozenset, got {type(self.faces).__name__}")
        masks = set()
        for f in self.faces:
            if not isinstance(f, NodeSet):
                raise ValueError(f"face {_vertex_text(f)} is not a NodeSet")
            if f.n != self.n:
                raise ValueError(f"face {f} has universe n={f.n}, expected {self.n}")
            if f.is_empty:
                raise ValueError("the empty set is not a face")
            masks.add(f.bits)
        for v in range(self.n):
            if (1 << v) not in masks:
                raise ValueError(f"missing singleton face {{{v + 1}}}")
        # with every singleton present, the family is downward closed exactly
        # when each face's subsets with one node fewer are faces
        for m in masks:
            rest = m
            while rest:
                sub = m ^ (rest & -rest)
                rest &= rest - 1
                if sub and sub not in masks:
                    raise ValueError(
                        f"not downward closed: {_node_set(self.n, sub)} missing "
                        f"under {_node_set(self.n, m)}")

    def sorted_faces(self) -> list[NodeSet]:
        return sorted(self.faces, key=NodeSet.sort_key)

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.sorted_faces())


def closure(facets: Iterable[Iterable[int]], n: int) -> Complex:
    """Smallest complex containing the given facets plus every singleton."""
    NodeSet.full(n)
    faces: set[NodeSet] = {_node_set(n, 1 << v) for v in range(n)}
    for facet in facets:
        top = NodeSet.of(facet, n)
        if top.is_empty:
            raise ValueError("facets must be nonempty sets")
        for s in top.subsets():
            if not s.is_empty:
                faces.add(s)
    return Complex(n, frozenset(faces))


def dimension(c: Complex) -> int:
    return max(f.size for f in c.faces) - 1


def is_face(c: Complex, a: NodeSet) -> bool:
    if a.is_empty:
        raise ValueError("the empty set is never a face")
    if a.n != c.n:
        raise ValueError(f"mixed universes: n={a.n} vs n={c.n}")
    return a in c.faces


def edges(c: Complex) -> frozenset[tuple[int, int]]:
    """Unordered pairs (i, j), i < j, that are 2-element faces."""
    out = set()
    for f in c.faces:
        if f.size == 2:
            i, j = f.elements
            out.add((i, j))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """The 1-dimensional view of a complex: vertices 1..n plus edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        NodeSet.full(self.n)
        if not isinstance(self.edges, frozenset):
            raise ValueError(f"edges must be a frozenset, got {type(self.edges).__name__}")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"edge {_vertex_text(e)} is not a pair (i, j)")
            i, j = e
            NodeSet.of(e, self.n)  # NodeSet's checks of each vertex
            if i >= j:
                raise ValueError(f"edge {e} must be an ordered pair i < j")

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]], n: int) -> "Graph":
        norm = set()
        for i, j in pairs:
            if i == j:
                raise ValueError(f"edge ({i},{j}) is a loop")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    @classmethod
    def from_complex(cls, c: Complex) -> "Graph":
        if dimension(c) > 1:
            raise ValueError(f"complex has dimension {dimension(c)}, expected <= 1")
        return cls(c.n, edges(c))

    def as_complex(self) -> Complex:
        return closure(self.edges, self.n)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __str__(self) -> str:
        return ",".join(f"{{{i},{j}}}" for i, j in self.sorted_edges()) or "none"


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(combinations(range(1, n + 1), 2), n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(v, v + 1) for v in range(1, n)], n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges([(v, v + 1) for v in range(1, n)] + [(1, n)], n)


def star_graph(n: int) -> Graph:
    """Star with center 1 and leaves 2..n."""
    return Graph.from_edges([(1, v) for v in range(2, n + 1)], n)


def edgeless_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def enumerate_complexes(n: int) -> list[Complex]:
    """Every complex on n nodes, for exhaustive small-n sweeps (n <= 5): from the
    singletons, each set of two or more nodes, in canonical order (so after its
    subsets), extends every family that holds its subsets with one node fewer."""
    if n > 5:
        raise ValueError("exhaustive complex enumeration is capped at n=5")
    full = NodeSet.full(n)  # before range(n), which would fail on a float
    families = [frozenset(1 << v for v in range(n))]
    for s in full.subsets():
        if s.size >= 2:
            below = [s.minus(v).bits for v in s]
            families += [f | {s.bits} for f in families if all(b in f for b in below)]
    out = [Complex(n, frozenset(_node_set(n, m) for m in f)) for f in families]
    out.sort(key=lambda c: (len(c.faces), sorted(map(NodeSet.sort_key, c.faces))))
    return out
