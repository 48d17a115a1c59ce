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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    return Poly._canonical({(u(d | t),): Fraction(1) for d in a.subsets()}, a.n)


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
    out: dict[Word, Fraction] = {}
    for d in rest.subsets():
        out[(z(d, i),)] = Fraction(-1) ** (a.size - d.size - 1)
    return Poly(out)


def rel_4(a: NodeSet, i: int, j: int) -> Poly:
    """The u-form quadratic relation of the base algebra, one per (A,i,j):
    (S_j + S_ij) S_i - (S_i + S_ij) S_j, where S_T sums u(D+T) over D inside A."""
    _require_witnesses(a, i, j)
    n = a.n
    subsets = a.subsets()
    si, sj, sij = ([u(d | NodeSet.of(top, n)) for d in subsets]
                   for top in ((i,), (j,), (i, j)))
    # the four products S_j S_i, S_ij S_i, S_i S_j and S_ij S_j have disjoint
    # words (their letters hold i, j or both), so every coefficient is +-1
    one, minus_one = Fraction(1), Fraction(-1)
    terms: dict[Word, Fraction] = {}
    for left, right, c in ((sj, si, one), (sij, si, one),
                           (si, sj, minus_one), (sij, sj, minus_one)):
        for x in left:
            for y in right:
                terms[x, y] = c
    return Poly._canonical(terms, n)


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


def _pair_poly(i: int, j: int, n: int, graph: Graph | None = None) -> Poly:
    """u({i,j}), or zero when a graph is given and (i,j) is not one of its
    edges (the build-time convention for graph presentations)."""
    if graph is not None and not graph.has_edge(i, j):
        return Poly.zero()
    return Poly.from_symbol(u(NodeSet.of((i, j), n)))


def _vertex_poly(i: int, n: int) -> Poly:
    return Poly.from_symbol(u(NodeSet.of((i,), n)))


def rel_10(a: NodeSet, i: int, j: int, graph: Graph | None = None) -> Poly:
    """The quadratic element R(A,i,j): rel_5(A,i,j) with every u(S), |S| >= 3,
    set to zero, that is [P_i,P_j] - u(ij)(P_i - P_j) with
    P_i = u(i) + sum over k in A of u(ik).  With a graph argument, non-edge
    pair generators are also zeroed at build time."""
    _require_witnesses(a, i, j)
    n = a.n
    pi = sum((_pair_poly(i, k, n, graph) for k in a), _vertex_poly(i, n))
    pj = sum((_pair_poly(j, k, n, graph) for k in a), _vertex_poly(j, n))
    return commutator(pi, pj) - _pair_poly(i, j, n, graph) * (pi - pj)


def identity_11_residual(a: NodeSet, i: int, j: int, k: int) -> Poly:
    """Residual of the recursion identity relating R(A,i,j) to R(A-k,i,j);
    identically zero in the free algebra for every instance."""
    _require_witnesses(a, i, j)
    if k not in a:
        raise ValueError(f"index k={k} must lie in A={a}")
    n = a.n
    uik = _pair_poly(i, k, n)
    ujk = _pair_poly(j, k, n)
    ui, uj = _vertex_poly(i, n), _vertex_poly(j, n)

    out = (rel_10(a, i, j) - rel_10(a.minus(k), i, j)
           - commutator(uik, ujk) - commutator(uik, uj) - commutator(ui, ujk)
           + _pair_poly(i, j, n) * (uik - ujk))
    for el in a.minus(k):
        out = out - commutator(_pair_poly(i, el, n), ujk)
        out = out - commutator(uik, _pair_poly(j, el, n))
    return out


def theorem_rel_i(i: int, j: int, g: Graph) -> Poly:
    """Pair relation  [u(i),u(j)] - u(ij)(u(i)-u(j))  with non-edges zeroed."""
    n = g.n
    ui, uj = _vertex_poly(i, n), _vertex_poly(j, n)
    return commutator(ui, uj) - _pair_poly(i, j, n, g) * (ui - uj)


def theorem_rel_ii(i: int, j: int, k: int, g: Graph) -> Poly:
    """Triple relation  [u(ik),u(jk)] + [u(ik),u(j)] + [u(i),u(jk)]
    - u(ij)(u(ik)-u(jk))  with non-edges zeroed."""
    n = g.n
    uik = _pair_poly(i, k, n, g)
    ujk = _pair_poly(j, k, n, g)
    ui, uj = _vertex_poly(i, n), _vertex_poly(j, n)

    return (commutator(uik, ujk) + commutator(uik, uj) + commutator(ui, ujk)
            - _pair_poly(i, j, n, g) * (uik - ujk))


def theorem_rel_iii(i: int, j: int, k: int, el: int, g: Graph) -> Poly:
    """Disjoint-edge relation  [u(ij),u(kl)]  with non-edges zeroed."""
    p = _pair_poly(i, j, g.n, g)
    q = _pair_poly(k, el, g.n, g)
    return commutator(p, q)


def theorem_relations(g: Graph) -> list[Poly]:
    """All instances of the three graph relation families, in a fixed order;
    instances that vanish identically under the non-edge convention are
    dropped."""
    out: list[Poly] = []
    n = g.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r = theorem_rel_i(i, j, g)
            if r:
                out.append(r)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) == 3:
                    r = theorem_rel_ii(i, j, k, g)
                    if r:
                        out.append(r)
    es = g.sorted_edges()
    for x in range(len(es)):
        for y in range(x + 1, len(es)):
            (i, j), (k, el) = es[x], es[y]
            if not {i, j} & {k, el}:
                r = theorem_rel_iii(i, j, k, el, g)
                if r:
                    out.append(r)
    return out


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _instances(n: int) -> list[tuple[NodeSet, int, int]]:
    """All (A, i, j) with i != j and both outside A, in a fixed order."""
    out = []
    for i, j in _ordered_pairs(n):
        rest = NodeSet.full(n).minus(i).minus(j)
        for a in rest.subsets():
            out.append((a, i, j))
    return out


def all_u_symbols(n: int) -> list[Symbol]:
    return [u(s) for s in NodeSet.full(n).subsets() if not s.is_empty]


def all_z_symbols(n: int) -> list[Symbol]:
    out = []
    for a in NodeSet.full(n).subsets():
        for i in range(1, n + 1):
            if i not in a:
                out.append(z(a, i))
    return out


def qn_presentation(n: int, form: str) -> Presentation:
    """The base algebra on n nodes, in z form (additive + multiplicative
    relations) or u form (the rel_4 family)."""
    if form not in ("z", "u"):
        raise ValueError(f"form must be 'z' or 'u', got {form!r}")
    if form == "z":
        alphabet = tuple(sorted(all_z_symbols(n), key=symbol_key))
        relations: list[Poly] = []
        for a, i, j in _instances(n):
            relations.append(rel_additive(a, i, j))
        for a, i, j in _instances(n):
            relations.append(rel_multiplicative(a, i, j))
        return Presentation(f"Qn(n={n},form=z)", alphabet, tuple(relations))
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    relations = [rel_4(a, i, j) for a, i, j in _instances(n)]
    return Presentation(f"Qn(n={n},form=u)", alphabet, tuple(relations))


def qF_presentation(c: Complex) -> Presentation:
    """Quotient of the base algebra by the ideal killing u(A) for every
    non-face A.  The alphabet keeps all u symbols; kill relations are
    degree-1 generators of the ideal."""
    n = c.n
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    relations = [rel_4(a, i, j) for a, i, j in _instances(n)]
    for s in NodeSet.full(n).subsets():
        if not s.is_empty and s not in c.faces:
            relations.append(Poly.from_symbol(u(s)))
    label = f"QF(n={n},faces={c})"
    return Presentation(label, alphabet, tuple(relations))


def graph_presentation(g: Graph) -> Presentation:
    """The vertex-and-edge presentation of the quotient attached to a graph."""
    n = g.n
    alphabet = [u(NodeSet.of((i,), n)) for i in range(1, n + 1)]
    alphabet += [u(NodeSet.of(e, n)) for e in g.sorted_edges()]
    alphabet = tuple(sorted(alphabet, key=symbol_key))
    relations = tuple(theorem_relations(g))
    label = f"QGraph(n={n},edges={g})"
    return Presentation(label, alphabet, relations)
