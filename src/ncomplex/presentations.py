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

Every quadratic family is rel_4 over a table of letters: _rel_4_over lists
rel_4(A,i,j)'s +-1 terms from a letter-of-a-bitmask function, which may set
a letter to zero.  rel_4 builds each letter; the u form reads a table of all
2^n - 1 and lists (A,j,i) as the negation of (A,i,j); rel_10 and the graph
relations (i), (ii) read the table of vertex and edge letters, as rel_4 with
i and j swapped over D = empty and the singletons of A.  The z form and the
graph presentation list each relation once up to sign.  rel_5, rel_9, the
z/u change of basis and identity_11_residual stay Poly arithmetic: the
independent forms that the checks and tests compare the builder against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .complexes import Complex, Graph, NodeSet, _node_set
from .free_algebra import MONOMIAL_CAP, Poly, Symbol, commutator, symbol_key, u, z

#: the most words one rel_4, rel_5 (2^(2|A|+2)) or rel_9 instance may have
RELATION_WORD_CAP = 2 ** 18


@dataclass(frozen=True)
class Presentation:
    """Distinct generators plus relations over them, each nonzero and homogeneous
    of degree >= 1; construction refuses any other, so readers need not check."""

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
            degrees = set(map(len, r._terms))
            if len(degrees) > 1:
                raise ValueError(f"inhomogeneous relation: {r}")
            if not degrees.pop():
                raise ValueError(f"constant relation: {r}")
            stray = set().union(*r._terms) - allowed
            if stray:
                raise ValueError(f"relation symbol {min(stray)} is not in the alphabet")


def _check_instance_words(builder: str, log2_words: int) -> None:
    """Refuse an instance of about 2^log2_words words before its witnesses."""
    if 2 ** log2_words > RELATION_WORD_CAP:
        raise ValueError(f"{builder} would expand to about 2^{log2_words} words, "
                         f"over the cap {RELATION_WORD_CAP}")


def _require_witnesses(a: NodeSet, i: int, j: int) -> None:
    if i == j:
        raise ValueError(f"indices must differ, got i=j={i}")
    if i in a:
        raise ValueError(f"index i={i} lies in A={a}")
    if j in a:
        raise ValueError(f"index j={j} lies in A={a}")
    NodeSet.of((i, j), a.n)  # refuses a vertex outside 1..n before any shift


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


def _rel_4_over(masks: list[int], i: int, j: int, letter, n: int) -> Poly:
    """rel_4(A,i,j) = (S_j + S_ij) S_i - (S_i + S_ij) S_j, where S_T sums the
    letters u(D+T) over the sets D of the given bitmasks.  letter(mask) is the
    u letter of a bitmask, or None for a letter set to zero, which the sums
    leave out.  The four products have disjoint words (their letters differ in
    which of i, j they hold), so every coefficient is +-1."""
    bi, bj = 1 << i - 1, 1 << j - 1
    sj, si, sij = ([x for m in masks if (x := letter(m | t)) is not None]
                   for t in (bj, bi, bi | bj))
    products = ((sj, si, 1), (sij, si, 1), (si, sj, -1), (sij, sj, -1))
    return Poly._canonical({(x, y): c for left, right, c in products
                            for x in left for y in right}, n)


def rel_4(a: NodeSet, i: int, j: int) -> Poly:
    """The u-form quadratic relation of the base algebra, one per (A,i,j):
    (S_j + S_ij) S_i - (S_i + S_ij) S_j, where S_T sums u(D+T) over D inside A."""
    _check_instance_words("rel_4", 2 * a.size + 2)
    _require_witnesses(a, i, j)
    # swapping i and j negates the quadratic
    return _rel_4_over([d.bits for d in a.subsets()], i, j,
                       lambda m: u(_node_set(a.n, m)), a.n)


def _check_rel_4_words(n: int) -> None:
    """Refuse, before building it, a rel_4 family on n nodes of more than
    MONOMIAL_CAP words (4 * 4^|A| per instance, 4n(n-1) * 5^(n-2) in all)."""
    NodeSet.full(n)  # refuses an n out of range before 5^(n-2) grows
    words = 4 * n * (n - 1) * 5 ** max(n - 2, 0)
    if words > MONOMIAL_CAP:
        raise ValueError(f"the rel_4 family on n={n} nodes has {words} words, "
                         f"over the monomial cap {MONOMIAL_CAP}")


def rel_5(a: NodeSet, i: int, j: int) -> Poly:
    """Commutator form of rel_4; identically equal to -rel_4(A,i,j):
    sum of [u(C+i),u(D+j)] minus (sum of u(E+i+j)) * (sum of u(F+i)-u(F+j))."""
    _check_instance_words("rel_5", 2 * a.size + 2)
    _require_witnesses(a, i, j)
    si = _subset_sum(a, i)
    sj = _subset_sum(a, j)
    return commutator(si, sj) - _subset_sum(a, i, j) * (si - sj)


def rel_9(ap: NodeSet, bp: NodeSet, i: int, j: int) -> Poly:
    """Double commutator sum: [u(C+i), u(D+j)] over C inside A', D inside B'."""
    _check_instance_words("rel_9", ap.size + bp.size + 1)
    if i == j:
        raise ValueError(f"indices must differ, got i=j={i}")
    if i in ap:
        raise ValueError(f"index i={i} lies in A'={ap}")
    if j in bp:
        raise ValueError(f"index j={j} lies in B'={bp}")
    return commutator(_subset_sum(ap, i), _subset_sum(bp, j))


def _u(n: int, *vertices: int) -> Poly:
    return Poly.from_symbol(u(NodeSet.of(vertices, n)))


def _vertex_edge_letters(n: int, vertices, edges) -> dict[int, Symbol]:
    """The u letters of the given vertices and edges, keyed by bitmask."""
    masks = [1 << v - 1 for v in vertices]
    masks += [1 << i - 1 | 1 << j - 1 for i, j in edges]
    return {m: u(_node_set(n, m)) for m in masks}


def rel_10(a: NodeSet, i: int, j: int, graph: Graph | None = None) -> Poly:
    """The quadratic element R(A,i,j): rel_5(A,i,j) = rel_4(A,j,i) with every
    u(S), |S| >= 3, set to zero, that is [P_i,P_j] - u(ij)(P_i - P_j) with
    P_i = u(i) + sum over k in A of u(ik).  With a graph on A's universe,
    non-edge pair generators are also zeroed at build time."""
    _require_witnesses(a, i, j)
    if graph is not None and graph.n != a.n:
        raise ValueError(f"mixed universes: n={a.n} vs n={graph.n}")
    pairs = [(i, j)] + [(x, k) for k in a for x in (i, j)]
    edges = [e for e in pairs if graph is None or graph.has_edge(*e)]
    letters = _vertex_edge_letters(a.n, (i, j), edges)
    return _rel_4_over([0] + [1 << k - 1 for k in a], j, i, letters.get, a.n)


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


def _instances(n: int) -> list[tuple[NodeSet, int, int]]:
    """All (A, i, j) with i != j and both outside A, in a fixed order."""
    return [(a, i, j) for i, j in permutations(range(1, n + 1), 2)
            for a in NodeSet.full(n).minus(i).minus(j).subsets()]


def all_u_symbols(n: int) -> list[Symbol]:
    return [u(s) for s in NodeSet.full(n).subsets() if not s.is_empty]


def all_z_symbols(n: int) -> list[Symbol]:
    return [z(a, i) for a in NodeSet.full(n).subsets() for i in range(1, n + 1)
            if i not in a]


def _u_form(n: int) -> tuple[tuple[Symbol, ...], tuple[Poly, ...]]:
    """The base algebra's u form: the sorted u alphabet and the rel_4 family
    in _instances order, priced before any instance is built, from one table
    of letters; (A,j,i), listed after (A,i,j), is its negation.  Q_n, Q_F and
    the corollary check all read the family from here.  The (A,j,i) half
    stays listed: Q_F hands the family to the engine, and perfbench's traced
    anchor freezes qF P5's 73,346 degree-3 rows; it goes with Q_F over faces."""
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    letter = {s.a.bits: s for s in alphabet}.__getitem__
    family: dict[tuple[int, int, int], Poly] = {}
    for a, i, j in _instances(n):
        family[a.bits, i, j] = (-family[a.bits, j, i] if i > j else _rel_4_over(
            [d.bits for d in a.subsets()], i, j, letter, n))
    return alphabet, tuple(family.values())


def qn_presentation(n: int, form: str) -> Presentation:
    """The base algebra on n nodes, in z form (the additive, then the
    multiplicative relations, over the instances with i < j only) or u form
    (the rel_4 family).  Both forms are refused where the rel_4 family is
    over the cap, so the base algebra has one size limit."""
    if form not in ("z", "u"):
        raise ValueError(f"form must be 'z' or 'u', got {form!r}")
    if form == "u":
        return Presentation(f"Qn(n={n},form=u)", *_u_form(n))
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_z_symbols(n), key=symbol_key))
    insts = [(a, i, j) for a, i, j in _instances(n) if i < j]
    relations = [rel_additive(*x) for x in insts] + [rel_multiplicative(*x) for x in insts]
    return Presentation(f"Qn(n={n},form=z)", alphabet, tuple(relations))


def qF_presentation(c: Complex) -> Presentation:
    """Q_F: the base algebra's u form plus one degree-1 kill u(A) for each
    letter whose set A is not a face, in alphabet order.  The alphabet keeps
    every u letter; the kills generate the ideal of the non-faces."""
    alphabet, family = _u_form(c.n)
    kills = tuple(Poly.from_symbol(s) for s in alphabet if s.a not in c.faces)
    return Presentation(f"QF(n={c.n},faces={c})", alphabet, family + kills)


def graph_presentation(g: Graph) -> Presentation:
    """The vertex-and-edge presentation of the quotient attached to a graph,
    read off one table of those letters.  Its relations, in this order: (i)
    R(empty,i,j), i < j; (ii) R({k},i,j) - R(empty,i,j), i < j and k outside
    {i,j}; (iii) the commutators [u(ij),u(kl)] of disjoint edges.  Zeros are
    dropped, and so is any relation equal to an earlier one or its negation."""
    n, letters = g.n, _vertex_edge_letters(g.n, range(1, g.n + 1), g.edges)
    alphabet = tuple(sorted(letters.values(), key=symbol_key))
    nodes, get = range(1, n + 1), letters.get
    pair = {(i, j): _rel_4_over([0], j, i, get, n) for i, j in combinations(nodes, 2)}
    out = list(pair.values()) + [
        _rel_4_over([0, 1 << k - 1], j, i, get, n) - r
        for (i, j), r in pair.items() for k in nodes if k not in (i, j)]
    edges = [s for s in alphabet if s.a.size == 2]
    out += [commutator(Poly.from_symbol(e), Poly.from_symbol(f))
            for e, f in combinations(edges, 2) if not e.a.bits & f.a.bits]
    relations, seen = [], set()
    for r in out:
        if r and r not in seen:
            seen.update((r, -r))
            relations.append(r)
    return Presentation(f"QGraph(n={n},edges={g})", alphabet, tuple(relations))
