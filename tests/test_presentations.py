"""Tests for relation builders and presentations.

Derived expectations are computed by independent oracles: the z expansion of
u is checked against a direct triangular-system solve, the u-form quadratic
against the substitution image of the multiplicative relation, and the
truncated quadratic against an explicit kill-substitution of the commutator
form.
"""

import hashlib
from fractions import Fraction
from itertools import combinations, permutations
from time import perf_counter

import pytest

from ncomplex.complexes import (
    Graph,
    NodeSet,
    closure,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_complexes,
    path_graph,
    star_graph,
)
from ncomplex.free_algebra import Poly, commutator, poly_text, substitute, symbol_key, u, z
from ncomplex import presentations
from ncomplex.presentations import (
    Presentation,
    _check_rel_4_words,
    _instances,
    _u_form,
    all_u_symbols,
    all_z_symbols,
    graph_presentation,
    identity_11_residual,
    qF_presentation,
    qn_presentation,
    rel_4,
    rel_5,
    rel_9,
    rel_10,
    rel_additive,
    rel_multiplicative,
    u_in_z,
    z_in_u,
)
from ncomplex.quotient_engine import TruncatedIdealBasis
from ncomplex.verifier import check_corollary


def ns(*elems, n=3):
    return NodeSet.of(elems, n)


def up(*elems, n=3):
    return Poly.from_symbol(u(NodeSet.of(elems, n)))


def zp(elems, i, n=3):
    return Poly.from_symbol(z(NodeSet.of(elems, n), i))


def instances(n):
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in NodeSet.full(n).minus(i).minus(j).subsets():
                out.append((a, i, j))
    return out


def instances_a3():
    """The n=5 instances with |A| = 3 (beyond what n <= 4 reaches)."""
    return [(a, i, j) for a, i, j in instances(5) if a.size == 3]


def subset_sum(a, *top):
    """The sum of u(D + top) over all D inside A, by Poly addition."""
    t = NodeSet.of(top, a.n)
    return sum((Poly.from_symbol(u(d | t)) for d in a.subsets()), Poly.zero())


def z_to_u_images(n):
    return {s: z_in_u(s.a, s.i) for s in all_z_symbols(n)}


def kill_large_images(n):
    """u(S) -> 0 for |S| >= 3, identity otherwise (independent truncation)."""
    return {s: (Poly.zero() if s.a.size >= 3 else Poly.from_symbol(s))
            for s in all_u_symbols(n)}


def all_graphs(n):
    """Every graph on the nodes 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    return [Graph.from_edges([e for b, e in enumerate(pairs) if mask >> b & 1], n)
            for mask in range(2 ** len(pairs))]


def graph_relations(g):
    return list(graph_presentation(g).relations)


def drop_copies(rels):
    """rels without zeros and without any relation that equals an earlier one
    or its negation."""
    out = []
    for r in rels:
        if r and r not in out and -r not in out:
            out.append(r)
    return out


class TestZRelations:
    def test_additive_base_instance(self):
        expected = (zp((1,), 2, n=2) + zp((), 1, n=2)
                    - zp((2,), 1, n=2) - zp((), 2, n=2))
        assert rel_additive(ns(n=2), 1, 2) == expected

    def test_additive_swap_negates(self):
        for a, i, j in instances(4):
            assert rel_additive(a, i, j) == -1 * rel_additive(a, j, i)

    def test_additive_shifted_instance(self):
        got = rel_additive(ns(3), 1, 2)
        expected = zp((1, 3), 2) + zp((3,), 1) - zp((2, 3), 1) - zp((3,), 2)
        assert got == expected

    def test_multiplicative_base_instance(self):
        got = rel_multiplicative(ns(n=2), 1, 2)
        expected = zp((1,), 2, n=2) * zp((), 1, n=2) - zp((2,), 1, n=2) * zp((), 2, n=2)
        assert got == expected

    def test_multiplicative_swap_negates(self):
        for a, i, j in instances(4):
            assert rel_multiplicative(a, i, j) == -1 * rel_multiplicative(a, j, i)

    def test_degrees(self):
        for a, i, j in instances(3):
            assert rel_additive(a, i, j).degree() == 1
            assert rel_multiplicative(a, i, j).degree() == 2

    def test_index_errors(self):
        with pytest.raises(ValueError, match="i=j"):
            rel_additive(ns(), 1, 1)
        with pytest.raises(ValueError, match="lies in"):
            rel_additive(ns(1), 1, 2)


class TestChangeOfBasis:
    def test_z_in_u_examples(self):
        assert z_in_u(ns(), 1) == up(1)
        assert z_in_u(ns(2), 1) == up(1) + up(1, 2)
        assert z_in_u(ns(2, 3), 1) == up(1) + up(1, 2) + up(1, 3) + up(1, 2, 3)

    def test_u_in_z_examples(self):
        assert u_in_z(ns(1), 1) == zp((), 1)
        assert u_in_z(ns(1, 2), 2) == zp((1,), 2) - zp((), 2)

    def test_u_in_z_against_triangular_solve(self):
        # oracle: invert z(D,i) = sum_{E within D} u(E+i) by subset recursion
        for n in (2, 3, 4):
            for a in NodeSet.full(n).subsets():
                for i in a:
                    rest = a.minus(i)
                    sol = {}
                    for e_set in rest.subsets():
                        acc = Poly.from_symbol(z(e_set, i))
                        for f_set in e_set.subsets():
                            if f_set != e_set:
                                acc = acc - sol[f_set.bits]
                        sol[e_set.bits] = acc
                    assert u_in_z(a, i) == sol[rest.bits], (a, i)

    def test_round_trip_both_ways(self):
        for n in (2, 3, 4):
            for a in NodeSet.full(n).subsets():
                for i in range(1, n + 1):
                    if i in a:
                        continue
                    zi = {z(d, i): z_in_u(d, i) for d in a.subsets()}
                    ui = {u(d.plus(i)): u_in_z(d.plus(i), i) for d in a.subsets()}
                    assert substitute(z_in_u(a, i), ui) == Poly.from_symbol(z(a, i))
                    b = a.plus(i)
                    assert substitute(u_in_z(b, i), zi) == Poly.from_symbol(u(b))

    def test_index_errors(self):
        with pytest.raises(ValueError):
            z_in_u(ns(1), 1)
        with pytest.raises(ValueError):
            u_in_z(ns(2), 1)


class TestURelations:
    def test_rel_4_base_instance(self):
        got = rel_4(ns(n=2), 1, 2)
        expected = (up(2, n=2) * up(1, n=2) + up(1, 2, n=2) * up(1, n=2)
                    - up(1, n=2) * up(2, n=2) - up(1, 2, n=2) * up(2, n=2))
        assert got == expected

    def test_rel_4_lists_the_subset_sum_products(self):
        # rel_4 lists its terms; the product of subset sums it stands for is
        # the oracle, on every instance with n <= 5
        insts = [inst for n in range(2, 6) for inst in instances(n)]
        assert len(insts) == 222
        for a, i, j in insts:
            si, sj, sij = subset_sum(a, i), subset_sum(a, j), subset_sum(a, i, j)
            got = rel_4(a, i, j)
            assert got.sorted_terms() == ((sj + sij) * si - (si + sij) * sj).sorted_terms()
            assert len(got.terms) == 4 * 4 ** a.size
            assert all(c in (1, -1) for c in got.terms.values())

    def test_rel_4_homogeneous_degree_2(self):
        for a, i, j in instances(4):
            assert rel_4(a, i, j).degree() == 2

    def test_rel_4_is_substitution_image_of_multiplicative(self):
        for n, insts in ((2, instances(2)), (3, instances(3)), (4, instances(4)),
                         (5, instances_a3())):
            images = z_to_u_images(n)
            for a, i, j in insts:
                assert substitute(rel_multiplicative(a, i, j), images) == rel_4(a, i, j)

    def test_additive_substitutes_to_zero(self):
        for n in (2, 3, 4):
            images = z_to_u_images(n)
            for a, i, j in instances(n):
                assert substitute(rel_additive(a, i, j), images) == Poly.zero()

    def test_rel_5_base_instance(self):
        got = rel_5(ns(n=2), 1, 2)
        expected = (commutator(up(1, n=2), up(2, n=2))
                    - up(1, 2, n=2) * (up(1, n=2) - up(2, n=2)))
        assert got == expected

    def test_rel_5_is_minus_rel_4(self):
        for a, i, j in instances(2) + instances(3) + instances(4) + instances_a3():
            assert rel_5(a, i, j) == -1 * rel_4(a, i, j)

    def test_rel_5_swap(self):
        assert rel_5(ns(n=2), 2, 1) == -1 * rel_5(ns(n=2), 1, 2)


class TestUFormFamily:
    """_u_form builds each letter once and lists (A,j,i) as -(A,i,j)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_letter_is_built_once(self, monkeypatch, n):
        calls = []

        def counting_u(a):
            calls.append(a)
            return u(a)
        monkeypatch.setattr(presentations, "u", counting_u)
        _u_form(n)
        assert len(calls) == 2 ** n - 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_swapped_entries_are_negations(self, n):
        insts = _instances(n)
        _, family = _u_form(n)
        entries = dict(zip(((a.bits, i, j) for a, i, j in insts), family))
        swapped = [(a, i, j) for a, i, j in insts if i > j]
        assert len(swapped) == len(insts) // 2
        for a, j, i in swapped:
            entry = entries[a.bits, j, i]
            assert entry == -rel_4(a, i, j), (a, j, i)
            assert entry == rel_4(a, j, i), (a, j, i)


class TestInstanceWordCap:
    """rel_4 and rel_5 have 2^(2|A|+2) words and rel_9 2^(|A'|+|B'|+1); an
    instance over 2^18 words is refused before its witnesses are checked."""

    @pytest.mark.parametrize("size", [9, 14])
    @pytest.mark.parametrize("builder,name", [(rel_4, "rel_4"), (rel_5, "rel_5")])
    def test_rel_4_and_rel_5_refuse_big_sets_fast(self, builder, name, size):
        a = NodeSet.of(range(1, size + 1), 16)
        start = perf_counter()
        # i lies in A, which the witness check would refuse
        with pytest.raises(ValueError, match=f"^{name} would expand to about 2\\^"
                                             f"{2 * size + 2} words, over the cap 262144$"):
            builder(a, 1, 16)
        assert perf_counter() - start < 0.1

    @pytest.mark.parametrize("sizes", [(9, 9), (11, 7), (14, 4)])
    def test_rel_9_refuses_big_sets_fast(self, sizes):
        ap = NodeSet.of(range(3, 3 + sizes[0]), 16)
        bp = NodeSet.of(range(1, 1 + sizes[1]), 16)  # holds j = 2
        start = perf_counter()
        with pytest.raises(ValueError, match=f"^rel_9 would expand to about "
                                             f"2\\^{sum(sizes) + 1} words"):
            rel_9(ap, bp, 1, 2)
        assert perf_counter() - start < 0.1

    @pytest.mark.parametrize("builder,sets", [(rel_4, (ns(3, 4, n=4),)),
                                              (rel_5, (ns(3, 4, n=4),)),
                                              (rel_9, (ns(3, 4, n=4), ns(3, 4, n=4)))])
    def test_price_is_the_word_count(self, builder, sets, monkeypatch):
        words = len(builder(*sets, 1, 2).terms)
        monkeypatch.setattr("ncomplex.presentations.RELATION_WORD_CAP", words)
        builder(*sets, 1, 2)
        monkeypatch.setattr("ncomplex.presentations.RELATION_WORD_CAP", words - 1)
        with pytest.raises(ValueError, match="would expand"):
            builder(*sets, 1, 2)


class TestRel9:
    def test_base_instance(self):
        assert rel_9(ns(), ns(), 1, 2) == commutator(up(1), up(2))

    def test_two_subset_instance(self):
        got = rel_9(ns(3), ns(), 1, 2)
        expected = commutator(up(1), up(2)) + commutator(up(1, 3), up(2))
        assert got == expected

    def test_homogeneous(self):
        assert rel_9(ns(3, n=4), ns(4, n=4), 1, 2).degree() == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            rel_9(ns(1), ns(), 1, 2)
        with pytest.raises(ValueError):
            rel_9(ns(), ns(2), 1, 2)
        with pytest.raises(ValueError, match=r"^indices must differ, got i=j=1$"):
            rel_9(ns(), ns(), 1, 1)


class TestRel10:
    def test_base_case(self):
        got = rel_10(ns(n=2), 1, 2)
        expected = (commutator(up(1, n=2), up(2, n=2))
                    - up(1, 2, n=2) * (up(1, n=2) - up(2, n=2)))
        assert got == expected

    def test_is_truncation_of_rel_5(self):
        for n, insts in ((3, instances(3)), (4, instances(4)), (5, instances_a3())):
            kill = kill_large_images(n)
            for a, i, j in insts:
                assert rel_10(a, i, j) == substitute(rel_5(a, i, j), kill)

    def test_single_k_difference(self):
        got = rel_10(ns(3), 1, 2) - rel_10(ns(), 1, 2)
        expected = (commutator(up(1, 3), up(2, 3)) + commutator(up(1, 3), up(2))
                    + commutator(up(1), up(2, 3)) - up(1, 2) * (up(1, 3) - up(2, 3)))
        assert got == expected

    def test_graph_convention_zeroes_non_edges(self):
        g = path_graph(3)
        r = rel_10(ns(2), 1, 3, graph=g)
        assert u(ns(1, 3)) not in r.symbols()

    @pytest.mark.parametrize("a, graph_n", [(ns(), 4), (ns(3, n=4), 3)])
    def test_graph_on_another_universe_refused(self, monkeypatch, a, graph_n):
        def letters(*args):
            raise AssertionError("a letter was built before the refusal")
        monkeypatch.setattr(presentations, "_vertex_edge_letters", letters)
        with pytest.raises(ValueError, match=f"^mixed universes: n={a.n} vs n={graph_n}$"):
            rel_10(a, 1, 2, graph=path_graph(graph_n))


class TestIdentity11:
    def test_exact_for_all_instances(self):
        for n in (3, 4):
            for a, i, j in instances(n):
                for k in a:
                    assert identity_11_residual(a, i, j, k) == Poly.zero(), (a, i, j, k)

    def test_requires_k_in_a(self):
        with pytest.raises(ValueError, match="k=3"):
            identity_11_residual(ns(), 1, 2, 3)


class TestTheoremRelations:
    def test_complete_graph_on_two(self):
        g = complete_graph(2)
        rels = graph_relations(g)
        assert rels == [rel_10(ns(n=2), 1, 2, g)]
        expected = (commutator(up(1, n=2), up(2, n=2))
                    - up(1, 2, n=2) * (up(1, n=2) - up(2, n=2)))
        assert rels[0] == expected

    def test_edgeless_graph_keeps_only_commutators(self):
        rels = graph_relations(edgeless_graph(3))
        assert rels == [commutator(up(1), up(2)), commutator(up(1), up(3)),
                        commutator(up(2), up(3))]

    def test_path_triple_instance_with_convention(self):
        g = path_graph(3)
        got = rel_10(ns(2), 1, 3, g) - rel_10(ns(), 1, 3, g)
        expected = (commutator(up(1, 2), up(2, 3)) + commutator(up(1, 2), up(3))
                    + commutator(up(1), up(2, 3)))
        assert got == expected

    def test_every_triple_relation_is_listed(self):
        # the verifier checks the graph presentation's relations only, so it
        # must hold every nonzero triple relation instance, up to sign
        for n in range(1, 5):
            for g in all_graphs(n):
                rels = graph_relations(g)
                for i, j, k in permutations(range(1, n + 1), 3):
                    r = rel_ii_oracle(i, j, k, g)
                    assert not r or r in rels or -r in rels, (str(g), i, j, k)

    def test_counts(self):
        assert len(graph_relations(path_graph(3))) == 6
        assert len(graph_relations(complete_graph(3))) == 6
        assert len(graph_relations(complete_graph(4))) == 21  # 6 + 12 + 3
        assert len(graph_relations(cycle_graph(4))) == 20
        assert len(graph_relations(star_graph(4))) == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_no_relation_is_listed_twice_up_to_sign(self, n):
        # listing (ii) over i < j alone leaves a relation and its negation on
        # 692 of the 1,099 graphs on <= 5 nodes (such as [u({1,3}),u({2})] on
        # the graph with the one edge {1,3}), and an exact copy on 962
        for g in all_graphs(n):
            rels = graph_relations(g)
            assert len({frozenset((r, -r)) for r in rels}) == len(rels), str(g)

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5), complete_graph(5),
                                   star_graph(5)], ids=["P5", "C5", "K5", "star5"])
    def test_five_node_lists_are_the_oracle_without_copies(self, g):
        assert graph_relations(g) == drop_copies(theorem_relations_oracle(g))

    @pytest.mark.parametrize("g,count,digest", [
        (path_graph(5), 28, "eaf8a7645e6c6a1a7b9bc391d543f7a1a6a1809151b08565852338d816558b0f"),
        (cycle_graph(5), 35, "5a015f162ff32498e4fc394f54330d511eb9ea6273640d5c37b219720364f2b1"),
        (complete_graph(5), 55, "2a78ce5713c70cbcc254ca711a19c6b4a298796f854fbe2da94a97551d6510c5"),
        (star_graph(5), 28, "5f22757fb1ff5fbbfcef0d1b50fb0f6be04f31f9cb9e4b35271e22a606bd4720"),
    ], ids=["P5", "C5", "K5", "star5"])
    def test_five_node_lists_frozen(self, g, count, digest):
        # sha256 of the relations' text, one a line, freezes the list in order
        rels = graph_relations(g)
        assert len(rels) == count
        assert hashlib.sha256("\n".join(map(str, rels)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(4), complete_graph(4),
                                   star_graph(4), edgeless_graph(3)], ids=str)
    def test_each_letter_is_built_once(self, monkeypatch, g):
        calls = []

        def counting_u(a):
            calls.append(a)
            return u(a)
        monkeypatch.setattr(presentations, "u", counting_u)
        graph_presentation(g)
        assert len(calls) == g.n + len(g.edges)


# Poly-arithmetic forms of the quadratic R(A,i,j) and of the graph relations,
# kept as oracles for the one shared term-listing builder in presentations.

def pair_oracle(i, j, n, graph=None):
    if graph is not None and not graph.has_edge(i, j):
        return Poly.zero()
    return up(i, j, n=n)


def rel_4_oracle(a, i, j):
    si, sj, sij = subset_sum(a, i), subset_sum(a, j), subset_sum(a, i, j)
    return (sj + sij) * si - (si + sij) * sj


def rel_10_oracle(a, i, j, graph=None):
    n = a.n
    pi = sum((pair_oracle(i, k, n, graph) for k in a), up(i, n=n))
    pj = sum((pair_oracle(j, k, n, graph) for k in a), up(j, n=n))
    return commutator(pi, pj) - pair_oracle(i, j, n, graph) * (pi - pj)


def rel_i_oracle(i, j, g):
    ui, uj = up(i, n=g.n), up(j, n=g.n)
    return commutator(ui, uj) - pair_oracle(i, j, g.n, g) * (ui - uj)


def rel_ii_oracle(i, j, k, g):
    n = g.n
    uik, ujk = pair_oracle(i, k, n, g), pair_oracle(j, k, n, g)
    ui, uj = up(i, n=n), up(j, n=n)
    return (commutator(uik, ujk) + commutator(uik, uj) + commutator(ui, ujk)
            - pair_oracle(i, j, n, g) * (uik - ujk))


def rel_iii_oracle(i, j, k, el, g):
    return commutator(pair_oracle(i, j, g.n, g), pair_oracle(k, el, g.n, g))


def theorem_relations_oracle(g):
    """The graph relations with (ii) over every ordered triple, duplicates
    and +- pairs kept."""
    n = g.n
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(rel_i_oracle(i, j, g))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) == 3:
                    out.append(rel_ii_oracle(i, j, k, g))
    es = g.sorted_edges()
    for x in range(len(es)):
        for y in range(x + 1, len(es)):
            (i, j), (k, el) = es[x], es[y]
            if not {i, j} & {k, el}:
                out.append(rel_iii_oracle(i, j, k, el, g))
    return [r for r in out if r]


def all_ints(p):
    return all(type(c) is int for c in p.terms.values())


class TestQuadraticBuilder:
    """rel_4, rel_10 and the graph relations list their terms through one
    builder; each must equal its product-and-commutator form."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rel_4_and_rel_10_match_their_product_forms(self, n):
        for a, i, j in instances(n):
            got = rel_4(a, i, j)
            assert got.terms == rel_4_oracle(a, i, j).terms, (a, i, j)
            assert all_ints(got)
            got = rel_10(a, i, j)
            assert got.terms == rel_10_oracle(a, i, j).terms, (a, i, j)
            assert all_ints(got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_graph_relations_match_their_commutator_forms(self, n):
        for g in all_graphs(n):
            for a, i, j in instances(n):
                got = rel_10(a, i, j, graph=g)
                assert got.terms == rel_10_oracle(a, i, j, g).terms, (str(g), a, i, j)
                assert all_ints(got)
            empty = NodeSet(n, 0)
            for i, j in permutations(range(1, n + 1), 2):
                assert rel_10(empty, i, j, g).terms == rel_i_oracle(i, j, g).terms
            for i, j, k in permutations(range(1, n + 1), 3):
                got = rel_10(NodeSet.of((k,), n), i, j, g) - rel_10(empty, i, j, g)
                assert got.terms == rel_ii_oracle(i, j, k, g).terms, (str(g), i, j, k)
            rels = graph_relations(g)
            assert rels == drop_copies(theorem_relations_oracle(g)), str(g)
            assert all(all_ints(r) for r in rels)

    def test_repeated_index_is_refused(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="indices must differ"):
            rel_10(ns(), 1, 1, g)
        with pytest.raises(ValueError, match="indices must differ"):
            rel_10(ns(2), 1, 1, g)
        for i, j, k in ((1, 2, 1), (1, 2, 2)):
            with pytest.raises(ValueError, match="lies in A"):
                rel_10(ns(k), i, j, g)

    @pytest.mark.parametrize("builder", [rel_4, rel_10])
    @pytest.mark.parametrize("i,j,msg", [
        (0, 1, "vertex 0 is below 1"), (1, 3, "vertex 3 exceeds n=2"),
        (-5, 2, "vertex -5 is below 1"), (10 ** 9, 1, "vertex 1000000000 exceeds n=2")])
    def test_index_outside_the_universe_is_refused_fast(self, builder, i, j, msg):
        # refused before any bitmask shift: a huge index once built a
        # 2^(i-1) mask and printed it in hex
        start = perf_counter()
        with pytest.raises(ValueError, match=f"^{msg}$"):
            builder(ns(n=2), i, j)
        assert perf_counter() - start < 0.1


class TestPresentations:
    def test_qn_z_alphabet(self):
        p = qn_presentation(2, "z")
        assert len(p.alphabet) == 4
        assert len(p.relations) == 2  # 1 additive + 1 multiplicative

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_qn_z_lists_each_relation_once_up_to_sign(self, n):
        rels = qn_presentation(n, "z").relations
        assert len(rels) == n * (n - 1) * 2 ** n // 4
        assert len({frozenset((r, -r)) for r in rels}) == len(rels)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_qn_z_stores_the_rows_of_the_full_list(self, n):
        # the (A,j,i) instances, each the negation of (A,i,j) and listed
        # after it, stored no row
        p = qn_presentation(n, "z")
        insts = _instances(n)
        full = Presentation(p.label, p.alphabet,
                            tuple([rel_additive(*x) for x in insts]
                                  + [rel_multiplicative(*x) for x in insts]))
        got, want = TruncatedIdealBasis(p, 2), TruncatedIdealBasis(full, 2)
        assert got.letters == want.letters
        assert [e.pivots for e in got.slices] == [e.pivots for e in want.slices]

    def test_qn_u_alphabet(self):
        p = qn_presentation(2, "u")
        assert [str(s) for s in p.alphabet] == ["u({1})", "u({2})", "u({1,2})"]
        assert list(p.relations) == [rel_4(ns(n=2), 1, 2), rel_4(ns(n=2), 2, 1)]

    def test_alphabets_are_listed_in_canonical_order(self):
        # the builders list their letters in the order Symbols sort, unsorted
        built = [qn_presentation(n, form) for n in range(1, 6) for form in "zu"]
        built += [qF_presentation(c) for n in range(1, 5) for c in enumerate_complexes(n)]
        built += [graph_presentation(g) for n in range(1, 5) for g in all_graphs(n)]
        for p in built:
            assert list(p.alphabet) == sorted(p.alphabet), p.label

    def test_rel_4_family_priced_at_the_cap(self):
        # 4 * 8 * 7 * 5^6 = 3,500,000 words fit; 4 * 9 * 8 * 5^7 = 22,500,000
        # do not, and are refused without building an instance
        _check_rel_4_words(8)
        with pytest.raises(ValueError, match="n=9 nodes has 22500000 words, "
                                             "over the monomial cap 10000000"):
            _check_rel_4_words(9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rel_4_family_price_is_its_word_count(self, n, monkeypatch):
        words = sum(len(rel_4(a, i, j).terms) for a, i, j in _instances(n))
        monkeypatch.setattr("ncomplex.presentations.MONOMIAL_CAP", words)
        _check_rel_4_words(n)
        monkeypatch.setattr("ncomplex.presentations.MONOMIAL_CAP", words - 1)
        for build in (lambda: qn_presentation(n, "u"),
                      lambda: qF_presentation(closure([], n))):
            with pytest.raises(ValueError, match=f"has {words} words"):
                build()

    def test_qn_rejects_bad_form(self):
        with pytest.raises(ValueError, match="form"):
            qn_presentation(2, "w")

    def test_qF_full_simplex_is_qn(self):
        c = closure([{1, 2, 3}], 3)
        qf, qn = qF_presentation(c), qn_presentation(3, "u")
        assert qf.alphabet == qn.alphabet
        assert qf.relations == qn.relations

    def test_qF_edgeless_kills_everything_above_degree_zero(self):
        p = qF_presentation(closure([], 3))
        kills = [r for r in p.relations if r.degree() == 1]
        assert len(kills) == 4  # {1,2},{1,3},{2,3},{1,2,3}

    def test_subcomplex_relations_nest(self):
        big = closure([{1, 2, 3}], 3)
        small = closure([{1, 2}, {2, 3}], 3)
        assert set(qF_presentation(big).relations) <= set(qF_presentation(small).relations)

    def test_graph_presentation_counts(self):
        p = graph_presentation(edgeless_graph(3))
        assert len(p.alphabet) == 3
        assert all(r == commutator(Poly.from_symbol(a), Poly.from_symbol(b))
                   for r, (a, b) in zip(p.relations, [(p.alphabet[0], p.alphabet[1]),
                                                      (p.alphabet[0], p.alphabet[2]),
                                                      (p.alphabet[1], p.alphabet[2])]))
        k2 = graph_presentation(complete_graph(2))
        assert len(k2.alphabet) == 3 and len(k2.relations) == 1
        k3 = graph_presentation(complete_graph(3))
        assert len(k3.alphabet) == 6 and len(k3.relations) == 6

    def test_presentation_validation(self):
        a = u(ns(1))
        b = u(ns(2))
        with pytest.raises(ValueError, match="^duplicate generator in alphabet$"):
            Presentation("bad", (a, b, a), ())
        with pytest.raises(ValueError, match="inhomogeneous"):
            Presentation("bad", (a, b), (Poly.from_symbol(a)
                                         + Poly.from_symbol(a) * Poly.from_symbol(b),))
        with pytest.raises(ValueError, match="not in the alphabet"):
            Presentation("bad", (a,), (Poly.from_symbol(b),))
        with pytest.raises(ValueError, match="zero polynomial"):
            Presentation("bad", (a,), (Poly.zero(),))
        with pytest.raises(ValueError, match="constant relation: 2"):
            Presentation("bad", (a,), (Poly.one() * 2,))
        # of two stray symbols the smallest is named, whichever word holds it
        c, ab = u(ns(3)), u(ns(1, 2))
        two_strays = Poly({(a, ab): 1, (a, c): 1})
        with pytest.raises(ValueError, match=r"relation symbol u\(\{3\}\) is not"):
            Presentation("bad", (a,), (two_strays,))
        # a constant beside degree-2 words is inhomogeneous, whichever comes first
        for terms in ({(): 1, (a, b): 1}, {(a, b): 1, (): 1}):
            with pytest.raises(ValueError, match="inhomogeneous relation"):
                Presentation("bad", (a, b), (Poly(terms),))


def _verdict_per_word(alphabet, relations):
    """Presentation's verdict read word by word, independently of its code:
    a duplicate letter first, then the first relation that breaks a rule,
    and within that relation: zero, then words of two lengths, then the
    empty word alone, then the smallest letter outside the alphabet."""
    if len(set(alphabet)) != len(alphabet):
        return "duplicate generator in alphabet"
    for r in relations:
        words = list(r.terms)
        if not words:
            return "zero polynomial is not a relation"
        if any(len(w) != len(words[0]) for w in words):
            return f"inhomogeneous relation: {r}"
        if not words[0]:
            return f"constant relation: {r}"
        stray = [s for w in words for s in w if s not in alphabet]
        if stray:
            return f"relation symbol {sorted(stray, key=symbol_key)[0]} is not in the alphabet"
    return None


def test_presentation_refusal_matches_the_per_word_oracle():
    """Random relation lists in which zero, inhomogeneous, constant and
    stray-letter relations may each occur, in any position and together:
    Presentation accepts or refuses, with the same message, as the oracle."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    pool = all_u_symbols(3)
    coefficients = st.integers(-3, 3).filter(bool)

    @st.composite
    def drawn(draw):
        alphabet = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        if draw(st.integers(0, 9)) == 0:
            alphabet.append(draw(st.sampled_from(alphabet)))
        relations = []
        for _ in range(draw(st.integers(0, 4))):
            letters = st.sampled_from(draw(st.sampled_from([alphabet, pool])))
            degree = draw(st.integers(0, 3))
            word = st.lists(letters, min_size=degree, max_size=degree)
            if draw(st.booleans()):  # words of any length, so mixed ones too
                word = st.lists(letters, max_size=3)
            terms = draw(st.dictionaries(word.map(tuple), coefficients, max_size=4))
            relations.append(Poly(terms))
        return alphabet, relations

    seen = set()

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(drawn())
    def check(drawing):
        alphabet, relations = drawing
        try:
            Presentation("drawn", tuple(alphabet), tuple(relations))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == _verdict_per_word(alphabet, relations)
        seen.add(got and got.split(" ")[0])

    check()
    # every verdict was reached: acceptance and each of the five refusals
    assert seen == {None, "duplicate", "zero", "inhomogeneous", "constant", "relation"}


# ---------------------------------------------------------------------------
# oracle: the construction as it stood before Q_n's u form had one builder.
# qF_presentation's output (labels, alphabets, relations and their order)
# feeds frozen row counts and digests, so it must not move.
# ---------------------------------------------------------------------------

def _oracle_instances(n):
    out = []
    for i, j in [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]:
        rest = NodeSet.full(n).minus(i).minus(j)
        for a in rest.subsets():
            out.append((a, i, j))
    return out


def _oracle_qn_u(n):
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    relations = [rel_4(a, i, j) for a, i, j in _oracle_instances(n)]
    return Presentation(f"Qn(n={n},form=u)", alphabet, tuple(relations))


def _oracle_qF(c):
    n = c.n
    _check_rel_4_words(n)
    alphabet = tuple(sorted(all_u_symbols(n), key=symbol_key))
    relations = [rel_4(a, i, j) for a, i, j in _oracle_instances(n)]
    for s in NodeSet.full(n).subsets():
        if not s.is_empty and s not in c.faces:
            relations.append(Poly.from_symbol(u(s)))
    label = f"QF(n={n},faces={c})"
    return Presentation(label, alphabet, tuple(relations))


def _shape(p):
    return p.label, p.alphabet, p.relations, tuple(map(poly_text, p.relations))


class TestConstructionOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_qF_on_every_small_complex(self, n):
        complexes = enumerate_complexes(n)
        assert len(complexes) == {1: 1, 2: 2, 3: 9, 4: 114}[n]
        for c in complexes:
            assert _shape(qF_presentation(c)) == _shape(_oracle_qF(c)), c

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_qn_u(self, n):
        assert _shape(qn_presentation(n, "u")) == _shape(_oracle_qn_u(n))

    @pytest.mark.parametrize("c", [
        path_graph(5).as_complex(), cycle_graph(5).as_complex(),
        star_graph(5).as_complex(), complete_graph(5).as_complex(),
        closure([{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}], 4)],
        ids=["P5", "C5", "star5", "K5", "tetrahedron-boundary"])
    def test_qF_on_named_complexes(self, c):
        assert _shape(qF_presentation(c)) == _shape(_oracle_qF(c))

    # identity (11) has one instance per k in A: sum of |A| over (A,i,j),
    # so none on two nodes, where A is empty
    @pytest.mark.parametrize("n,instances,id11", [
        (1, 0, 0), (2, 2, 0), (3, 12, 6), (4, 48, 48), (5, 160, 240)])
    def test_corollary_witness(self, n, instances, id11):
        r = check_corollary(n)
        assert r.passed
        assert r.witness == {"n": n, "instances": instances,
                             "identity11_instances": id11, "failures": []}
