"""Relation builders and the three algebra presentations.

Every builder returns the homogeneous polynomial LHS - RHS of the identity it
instantiates, over z or u generators.  Subset sums are non-strict: a sum over
subsets of A includes both the empty set and A itself.

Two sign conventions are deliberate and verified by the test suite:

* u_in_z uses the exponent |A| - |D| - 1, which makes it the exact Moebius
  inverse of z_in_u (the round trip is an identity of the free algebra);
* the closing term of the graph-truncated quadratic rel_10 carries a minus
  sign, which is what makes rel_10(empty, i, j) equal the degree-two pair
  relation and makes rel_10 the image of rel_5 under killing u(S), |S| >= 3.

rel_4, rel_10 and the graph relations (i) and (ii) list their +-1 terms
through one builder, _quadratic.  rel_5, rel_9, the z/u change of basis and
identity_11_residual stay Poly arithmetic: they are the independent forms
that the checks and tests compare the builder against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .complexes import Complex, Graph, NodeSet
from .free_algebra import MONOMIAL_CAP, Poly, Symbol, Word, commutator, symbol_key, u, z


@dataclass(frozen=True)
class Presentation:
    """An alphabet of generators plus homogeneous defining relations."""

    label: str
    alphabet: tuple[Symbol, ...]
    relations: tuple[Poly, ...]

    def __post_init__(self) -> None:
        allowed = set(self.alphabet)
        if len(allowed) != len(self.alphabet):
            raise ValueError("duplicate generator in alphabet")
        for r in self.relations:
            if not r:
                raise ValueError("zero polynomial is not a relation")
            if not r.is_homogeneous():
                raise ValueError(f"inhomogeneous relation: {r}")
            stray = r.symbols() - allowed
            if stray:
                s = sorted(stray, key=symbol_key)[0]
                raise ValueError(f"relation symbol {s} is not in the alphabet")


def _require_witnesses(a: NodeSet, i: int, j: int) -> None:
    if i == j:
        raise ValueError(f"indices must differ, got i=j={i}")
    if i in a:
        raise ValueError(f"index i={i} lies in A={a}")
    if j in a:
        raise ValueError(f"index j={j} lies in A={a}")


def rel_additive(a: NodeSet, i: int, j: int) -> Poly:
    """Degree-1 relation  z(A+i,j) + z(A,i) - z(A+j,i) - z(A,j)."""
    _require_witnesses(a, i, j)
    return (Poly.from_symbol(z(a.plus(i), j)) + Poly.from_symbol(z(a, i))
            - Poly.from_symbol(z(a.plus(j), i)) - Poly.from_symbol(z(a, j)))


def rel_multiplicative(a: NodeSet, i: int, j: int) -> Poly:
    """Degree-2 relation  z(A+i,j)z(A,i) - z(A+j,i)z(A,j)."""
    _require_witnesses(a, i, j)
    return (Poly.from_symbol(z(a.plus(i), j)) * Poly.from_symbol(z(a, i))
            - Poly.from_symbol(z(a.plus(j), i)) * Poly.from_symbol(z(a, j)))


def _subset_sum(a: NodeSet, *top: int) -> Poly:
    """The sum of u(D + top) over all D inside A."""
    t = NodeSet.of(top, a.n)
    return Poly._canonical({(u(d | t),): 1 for d in a.subsets()}, a.n)


def z_in_u(a: NodeSet, i: int) -> Poly:
    """z(A,i) written in the u basis: the sum of u(D+i) over all D inside A."""
    if i in a:
        raise ValueError(f"index i={i} lies in A={a}")
    return _subset_sum(a, i)


def u_in_z(a: NodeSet, i: int) -> Poly:
    """u(A) written in the z generators via the index i in A:
    sum over D inside A-i of (-1)^(|A|-|D|-1) z(D,i)."""
    if i not in a:
        raise ValueError(f"index i={i} must lie in A={a}")
    rest = a.minus(i)
    return Poly._canonical({(z(d, i),): (-1) ** (a.size - d.size - 1)
                            for d in rest.subsets()}, a.n)


def _quadratic(si: list[Symbol], sj: list[Symbol], sij: list[Symbol], n: int) -> Poly:
    """[S_i,S_j] - S_ij(S_i - S_j), where S_i, S_j and S_ij sum the given
    letters: those holding i but not j, j but not i, and both.  The four
    products S_i S_j, S_ij S_j, S_j S_i and S_ij S_i have disjoint words (their
    letters differ in which of i, j they hold), so every coefficient is +-1."""
    terms: dict[Word, int] = {}
    for left, right, c in ((si, sj, 1), (sij, sj, 1), (sj, si, -1), (sij, si, -1)):
        for x in left:
            for y in right:
                terms[x, y] = c
    return Poly._canonical(terms, n)


def rel_4(a: NodeSet, i: int, j: int) -> Poly:
    """The u-form quadratic relation of the base algebra, one per (A,i,j):
    (S_j + S_ij) S_i - (S_i + S_ij) S_j, where S_T sums u(D+T) over D inside A."""
    _require_witnesses(a, i, j)
    n = a.n
    subsets = a.subsets()
    si, sj, sij = ([u(d | NodeSet.of(top, n)) for d in subsets]
                   for top in ((i,), (j,), (i, j)))
    # swapping i and j negates the quadratic
    return _quadratic(sj, si, sij, n)


def _check_rel_4_words(n: int) -> None:
    """Refuse, before building it, a rel_4 family on n nodes of more than
    MONOMIAL_CAP words (4 * 4^|A| per instance, 4n(n-1) * 5^(n-2) in all)."""
    words = 4 * n * (n - 1) * 5 ** max(n - 2, 0)
    if words > MONOMIAL_CAP:
        raise ValueError(f"the rel_4 family on n={n} nodes has {words} words, "
                         f"over the monomial cap {MONOMIAL_CAP}")


def rel_5(a: NodeSet, i: int, j: int) -> Poly:
    """Commutator form of rel_4; identically equal to -rel_4(A,i,j):
    sum of [u(C+i),u(D+j)] minus (sum of u(E+i+j)) * (sum of u(F+i)-u(F+j))."""
    _require_witnesses(a, i, j)
    si = _subset_sum(a, i)
    sj = _subset_sum(a, j)
    sij = _subset_sum(a, i, j)
    return rel_9(a, a, i, j) - sij * (si - sj)


def rel_9(ap: NodeSet, bp: NodeSet, i: int, j: int) -> Poly:
    """Double commutator sum: [u(C+i), u(D+j)] over C inside A', D inside B'."""
    if i == j:
        raise ValueError(f"indices must differ, got i=j={i}")
    if i in ap:
        raise ValueError(f"index i={i} lies in A'={ap}")
    if j in bp:
        raise ValueError(f"index j={j} lies in B'={bp}")
    return commutator(_subset_sum(ap, i), _subset_sum(bp, j))


def _u(n: int, *vertices: int) -> Poly:
    return Poly.from_symbol(u(NodeSet.of(vertices, n)))


def rel_10(a: NodeSet, i: int, j: int, graph: Graph | None = None) -> Poly:
    """The quadratic element R(A,i,j): rel_5(A,i,j) with every u(S), |S| >= 3,
    set to zero, that is [P_i,P_j] - u(ij)(P_i - P_j) with
    P_i = u(i) + sum over k in A of u(ik).  With a graph argument, non-edge
    pair generators are also zeroed at build time."""
    _require_witnesses(a, i, j)
    n = a.n

    def pairs(x: int, ys) -> list[Symbol]:
        return [u(NodeSet.of((x, y), n)) for y in ys
                if graph is None or graph.has_edge(x, y)]
    return _quadratic([u(NodeSet.of((i,), n))] + pairs(i, a),
                      [u(NodeSet.of((j,), n))] + pairs(j, a), pairs(i, (j,)), n)


def identity_11_residual(a: NodeSet, i: int, j: int, k: int) -> Poly:
    """Residual of the recursion identity relating R(A,i,j) to R(A-k,i,j);
    identically zero in the free algebra for every instance."""
    _require_witnesses(a, i, j)
    if k not in a:
        raise ValueError(f"index k={k} must lie in A={a}")
    n = a.n
    uik, ujk, ui, uj = _u(n, i, k), _u(n, j, k), _u(n, i), _u(n, j)

    out = (rel_10(a, i, j) - rel_10(a.minus(k), i, j)
           - commutator(uik, ujk) - commutator(uik, uj) - commutator(ui, ujk)
           + _u(n, i, j) * (uik - ujk))
    for el in a.minus(k):
        out = out - commutator(_u(n, i, el), ujk)
        out = out - commutator(uik, _u(n, j, el))
    return out


def theorem_rel_i(i: int, j: int, g: Graph) -> Poly:
    """Pair relation  [u(i),u(j)] - u(ij)(u(i)-u(j))  with non-edges zeroed:
    R(empty,i,j)."""
    return rel_10(NodeSet(g.n, 0), i, j, g)


def theorem_rel_ii(i: int, j: int, k: int, g: Graph) -> Poly:
    """Triple relation  [u(ik),u(jk)] + [u(ik),u(j)] + [u(i),u(jk)]
    - u(ij)(u(ik)-u(jk))  with non-edges zeroed: R({k},i,j) - R(empty,i,j)."""
    return rel_10(NodeSet.of((k,), g.n), i, j, g) - theorem_rel_i(i, j, g)


def theorem_rel_iii(i: int, j: int, k: int, el: int, g: Graph) -> Poly:
    """Disjoint-edge relation  [u(ij),u(kl)]  with non-edges zeroed."""
    if not (g.has_edge(i, j) and g.has_edge(k, el)):
        return Poly.zero()
    return commutator(_u(g.n, i, j), _u(g.n, k, el))


def theorem_relations(g: Graph) -> list[Poly]:
    """All instances of the three graph relation families, in a fixed order;
    instances that vanish identically under the non-edge convention are
    dropped."""
    nodes = range(1, g.n + 1)
    out = [theorem_rel_i(i, j, g) for i, j in combinations(nodes, 2)]
    out += [theorem_rel_ii(i, j, k, g) for i, j, k in permutations(nodes, 3)]
    out += [theorem_rel_iii(i, j, k, el, g)
            for (i, j), (k, el) in combinations(g.sorted_edges(), 2)
            if not {i, j} & {k, el}]
    return [r for r in out if r]


def _instances(n: int) -> list[tuple[NodeSet, int, int]]:
    """All (A, i, j) with i != j and both outside A, in a fixed order."""
    return [(a, i, j) for i, j in permutations(range(1, n + 1), 2)
            for a in NodeSet.full(n).minus(i).minus(j).subsets()]


def all_u_symbols(n: int) -> list[Symbol]:
    return [u(s) for s in NodeSet.full(n).subsets() if not s.is_empty]


def all_z_symbols(n: int) -> list[Symbol]:
    out = []
    for a in NodeSet.full(n).subsets():
        for i in range(1, n + 1):
            if i not in a:
                out.append(z(a, i))
    return out


def _u_form(n: int) -> tuple[tuple[Symbol, ...], tuple[Poly, ...]]:
    """The base algebra's u form: the sorted u alphabet and the rel_4 family
    in _instances order, priced before any instance is built.  Q_n, Q_F and
    the corollary check all read the family from here."""
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    return alphabet, tuple(rel_4(a, i, j) for a, i, j in _instances(n))


def qn_presentation(n: int, form: str) -> Presentation:
    """The base algebra on n nodes, in z form (additive + multiplicative
    relations) or u form (the rel_4 family).  Both forms are refused where
    the rel_4 family is over the cap, so the base algebra has one size limit."""
    if form not in ("z", "u"):
        raise ValueError(f"form must be 'z' or 'u', got {form!r}")
    if form == "u":
        return Presentation(f"Qn(n={n},form=u)", *_u_form(n))
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_z_symbols(n), key=symbol_key))
    relations: list[Poly] = []
    for a, i, j in _instances(n):
        relations.append(rel_additive(a, i, j))
    for a, i, j in _instances(n):
        relations.append(rel_multiplicative(a, i, j))
    return Presentation(f"Qn(n={n},form=z)", alphabet, tuple(relations))


def qF_presentation(c: Complex) -> Presentation:
    """Q_F: the base algebra's u form plus one degree-1 kill u(A) for each
    letter whose set A is not a face, in alphabet order.  The alphabet keeps
    every u letter; the kills generate the ideal of the non-faces."""
    alphabet, family = _u_form(c.n)
    kills = tuple(Poly.from_symbol(s) for s in alphabet if s.a not in c.faces)
    return Presentation(f"QF(n={c.n},faces={c})", alphabet, family + kills)


def graph_presentation(g: Graph) -> Presentation:
    """The vertex-and-edge presentation of the quotient attached to a graph."""
    n = g.n
    alphabet = [u(NodeSet.of((i,), n)) for i in range(1, n + 1)]
    alphabet += [u(NodeSet.of(e, n)) for e in g.sorted_edges()]
    alphabet = tuple(sorted(alphabet, key=symbol_key))
    relations = tuple(theorem_relations(g))
    label = f"QGraph(n={n},edges={g})"
    return Presentation(label, alphabet, relations)
