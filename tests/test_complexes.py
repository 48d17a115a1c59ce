"""Tests for node sets, complexes and graphs."""

import random
import re
from math import comb
from time import perf_counter

import pytest

from ncomplex.complexes import (
    Complex,
    Graph,
    NodeSet,
    _node_set,
    closure,
    complete_graph,
    cycle_graph,
    dimension,
    edgeless_graph,
    edges,
    enumerate_complexes,
    is_face,
    path_graph,
    star_graph,
)


def faces_as_sets(c):
    return {frozenset(f.elements) for f in c.faces}


def all_proper_submasks(m):
    """Every nonempty proper submask of m: the all-subsets closure walk, the
    oracle for Complex's one-node-fewer check."""
    sub = (m - 1) & m
    while sub:
        yield sub
        sub = (sub - 1) & m


def brute_force_complexes(n):
    """Every complex on n nodes by testing all 2^(2^n-n-1) families of sets
    of two or more nodes for closure, sorted as enumerate_complexes sorts."""
    nonsingletons = [m for m in range(1, 1 << n) if bin(m).count("1") >= 2]
    out = []
    for pick in range(1 << len(nonsingletons)):
        chosen = {m for k, m in enumerate(nonsingletons) if pick >> k & 1}
        if all(bin(sub).count("1") < 2 or sub in chosen
               for m in chosen for sub in all_proper_submasks(m)):
            faces = {NodeSet(n, 1 << v) for v in range(n)}
            faces.update(NodeSet(n, m) for m in chosen)
            out.append(Complex(n, frozenset(faces)))
    out.sort(key=lambda c: (len(c.faces), sorted((f.size, f.elements) for f in c.faces)))
    return out


#: the Dedekind numbers M(0..5): antichains of subsets of a k-set
DEDEKIND = [2, 3, 6, 20, 168, 7581]


class TestNodeSet:
    def test_of_and_elements(self):
        a = NodeSet.of((3, 1), 4)
        assert a.elements == (1, 3)
        assert a.size == 2
        assert 1 in a and 2 not in a

    def test_set_semantics_match_python_sets(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            xs = {v for v in range(1, n + 1) if rng.random() < 0.5}
            ys = {v for v in range(1, n + 1) if rng.random() < 0.5}
            a, b = NodeSet.of(xs, n), NodeSet.of(ys, n)
            assert set((a | b).elements) == xs | ys
            assert (a == b) == (xs == ys)

    def test_subsets_sorted_and_complete(self):
        a = NodeSet.of((1, 2, 4), 4)
        subs = a.subsets()
        assert len(subs) == 8
        assert subs[0].is_empty
        assert subs == sorted(subs, key=lambda s: (s.size, s.elements))
        sets = [NodeSet(n, m) for n in range(1, 6) for m in range(1 << n)]
        for a in sets + [NodeSet.full(16)]:
            subs = a.subsets()
            assert {s.bits for s in subs} == {m for m in range(a.bits + 1)
                                              if m & ~a.bits == 0}, a
            assert len(subs) == 2 ** a.size and subs[0].is_empty, a
            assert subs == sorted(subs, key=lambda s: (s.size, s.elements)), a

    def test_sort_key_is_size_then_elements(self):
        for n in (1, 4, 16):
            sets = [NodeSet(n, m) for m in random.Random(n).sample(range(1 << n),
                                                                  min(1 << n, 500))]
            assert (sorted(sets, key=NodeSet.sort_key)
                    == sorted(sets, key=lambda s: (s.size, s.elements)))

    def test_universe_bounds(self):
        with pytest.raises(ValueError):
            NodeSet.of((1,), 0)
        with pytest.raises(ValueError):
            NodeSet.of((1,), 17)
        with pytest.raises(ValueError, match="vertex 4 exceeds n=3"):
            NodeSet.of((4,), 3)
        for n in (-1, 0, 17):
            with pytest.raises(ValueError, match=f"n={n} outside 1..16"):
                NodeSet.full(n)
        for bits in (-1, 4):
            with pytest.raises(ValueError, match=f"^bitmask {bits:#x} out of range for n=2$"):
                NodeSet(2, bits)

    def test_mixed_universe_rejected(self):
        with pytest.raises(ValueError, match="mixed universes"):
            NodeSet.of((1,), 2) | NodeSet.of((1,), 3)

    # a bool passed as the int it equals, a float failed inside a shift
    @pytest.mark.parametrize("make, text", [
        (lambda: NodeSet(True, 1), "n True"),
        (lambda: NodeSet(1, True), "bitmask True"),
        (lambda: NodeSet(2.0, 1), "n 2.0"),
        (lambda: NodeSet(2, 1.0), "bitmask 1.0"),
        (lambda: NodeSet.of((1,), True), "n True"),
        (lambda: NodeSet.of((), 2.0), "n 2.0"),
        (lambda: NodeSet.full(True), "n True"),
        (lambda: NodeSet.full(None), "n None"),
    ])
    def test_n_and_bits_must_be_ints(self, make, text):
        NodeSet.of((1,), 1), NodeSet.full(1), NodeSet.of((), 2)  # held sets an equal key would find
        with pytest.raises(ValueError, match=rf"^{re.escape(text)} is not an integer$"):
            make()

    def test_one_object_per_value(self):
        a = NodeSet.of((1, 3), 4)
        assert a is NodeSet.of((3, 1, 3), 4) is NodeSet.of((1,), 4).plus(3)
        assert a is NodeSet.of((1, 2, 3), 4).minus(2) is NodeSet.of((1,), 4) | NodeSet.of((3,), 4)
        assert a.plus(1) is a.minus(2) is a is a.subsets()[-1] is NodeSet.full(4).subsets()[6]
        assert NodeSet.full(4) is NodeSet.of((4, 3, 2, 1), 4) is not NodeSet.full(5)
        assert all(s is t for s, t in zip(NodeSet.full(4).subsets(), NodeSet.full(4).subsets()))
        # a set built directly is a new object, equal to the held one
        b = NodeSet(4, 0b101)
        assert b is not a and b == a and hash(b) == hash(a)
        assert b.plus(1) is a and b | b is a


class TestClosure:
    def test_full_simplex(self):
        c = closure([{1, 2, 3}], 3)
        assert faces_as_sets(c) == {frozenset(s) for s in
                                    [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]}

    def test_singletons_always_present(self):
        c = closure([], 3)
        assert faces_as_sets(c) == {frozenset({1}), frozenset({2}), frozenset({3})}

    def test_path_with_isolated_node(self):
        c = closure([{1, 2}, {2, 3}], 4)
        assert faces_as_sets(c) == {frozenset(s) for s in
                                    [{1}, {2}, {3}, {4}, {1, 2}, {2, 3}]}

    def test_downward_closed_exhaustively(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            facets = [rng.sample(range(1, n + 1), rng.randint(1, n))
                      for _ in range(rng.randint(0, 4))]
            c = closure(facets, n)
            for f in c.faces:
                for s in f.subsets():
                    if not s.is_empty:
                        assert is_face(c, s)

    def test_sixteen_node_simplex_in_under_two_seconds(self):
        start = perf_counter()
        c = closure([range(1, 17)], 16)
        assert perf_counter() - start < 2.0
        assert len(c.faces) == 2 ** 16 - 1

    def test_idempotent(self):
        c = closure([{1, 2}, {3, 4}, {2, 3, 4}], 5)
        again = closure([f.elements for f in c.faces], 5)
        assert again == c

    def test_dimension_is_max_facet_size_minus_one(self):
        assert dimension(closure([], 3)) == 0
        assert dimension(closure([{1, 2}, {2, 3}], 3)) == 1
        assert dimension(closure([{1, 2, 3}], 3)) == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="vertex 4 exceeds n=3"):
            closure([{1, 4}], 3)
        with pytest.raises(ValueError, match="nonempty"):
            closure([set()], 3)
        with pytest.raises(ValueError):
            closure([], 0)


class TestFaceQueries:
    def test_is_face(self):
        assert is_face(closure([{1, 2, 3}], 3), NodeSet.of((1, 2), 3))
        assert not is_face(closure([{1, 2}, {2, 3}], 3), NodeSet.of((1, 3), 3))
        assert is_face(closure([], 2), NodeSet.of((2,), 2))

    def test_empty_set_is_never_a_face(self):
        with pytest.raises(ValueError, match="empty set"):
            is_face(closure([], 2), NodeSet.of((), 2))

    def test_mixed_universes(self):
        with pytest.raises(ValueError, match=r"^mixed universes: n=3 vs n=2$"):
            is_face(closure([], 2), NodeSet.of((1,), 3))

    def test_edges(self):
        assert edges(closure([{1, 2}, {2, 3}], 3)) == {(1, 2), (2, 3)}
        assert edges(closure([], 3)) == frozenset()
        assert edges(closure([{1, 2, 3}], 3)) == {(1, 2), (1, 3), (2, 3)}

    def test_edges_are_exactly_two_element_faces(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 6)
            facets = [rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
                      for _ in range(3)]
            c = closure(facets, n)
            assert edges(c) == {f.elements for f in c.faces if f.size == 2}


class TestComplexValidation:
    def test_rejects_missing_singleton(self):
        with pytest.raises(ValueError, match="singleton"):
            Complex(2, frozenset({NodeSet.of((1,), 2)}))

    def test_rejects_open_family(self):
        faces = {NodeSet.of((v,), 3) for v in (1, 2, 3)} | {NodeSet.of((1, 2, 3), 3)}
        with pytest.raises(ValueError, match="downward closed"):
            Complex(3, frozenset(faces))

    def test_closure_rule_matches_all_subsets(self):
        """Random families of nonempty masks holding every singleton: the
        one-node-fewer check rejects exactly those the all-subsets walk does."""
        rng = random.Random(5)
        verdicts = set()
        for _ in range(400):
            n = rng.randint(1, 5)
            facets = [rng.sample(range(1, n + 1), rng.randint(1, n))
                      for _ in range(rng.randint(0, 3))]
            masks = {f.bits for f in closure(facets, n).faces}
            for _ in range(rng.randint(0, 2)):
                masks ^= {rng.randrange(1, 1 << n)}
            masks |= {1 << v for v in range(n)}
            gap = any(sub not in masks for m in masks for sub in all_proper_submasks(m))
            faces = frozenset(NodeSet(n, m) for m in masks)
            if gap:
                with pytest.raises(ValueError, match="not downward closed"):
                    Complex(n, faces)
            else:
                Complex(n, faces)
            verdicts.add(gap)
        assert verdicts == {False, True}

    def test_rejects_empty_face(self):
        with pytest.raises(ValueError, match="empty set"):
            Complex(1, frozenset({NodeSet.of((), 1), NodeSet.of((1,), 1)}))

    def test_rejects_face_from_another_universe(self):
        faces = {NodeSet.of((1,), 2), NodeSet.of((2,), 2), NodeSet.of((1,), 3)}
        with pytest.raises(ValueError, match=r"^face \{1\} has universe n=3, expected 2$"):
            Complex(2, frozenset(faces))

    @pytest.mark.parametrize("faces, message", [
        (frozenset({(1,)}), "face (1,) is not a NodeSet"),
        ([NodeSet.of((1,), 2), NodeSet.of((2,), 2)], "faces must be a frozenset, got list"),
    ], ids=["tuple-face", "list-of-faces"])
    def test_rejects_malformed_faces(self, faces, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Complex(2, faces)


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges([(2, 1)], 3)
        assert g.sorted_edges() == [(1, 2)]
        assert g.has_edge(2, 1)

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges([(1, 1)], 2)

    def test_edge_must_be_ordered(self):
        with pytest.raises(ValueError, match=r"^edge \(2, 1\) must be an ordered pair i < j$"):
            Graph(3, frozenset({(2, 1)}))

    @pytest.mark.parametrize("edges, message", [
        ([(1, 2)], "edges must be a frozenset, got list"),
        (frozenset({(1, 2, 3)}), "edge (1, 2, 3) is not a pair (i, j)"),
        (frozenset({1}), "edge 1 is not a pair (i, j)"),
    ], ids=["list-of-edges", "triple-edge", "int-edge"])
    def test_rejects_malformed_edges(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(3, edges)

    def test_from_complex_requires_dim_le_1(self):
        with pytest.raises(ValueError, match="dimension 2"):
            Graph.from_complex(closure([{1, 2, 3}], 3))
        g = Graph.from_complex(closure([{1, 2}], 3))
        assert g.sorted_edges() == [(1, 2)]

    def test_as_complex_round_trip(self):
        g = path_graph(4)
        assert Graph.from_complex(g.as_complex()) == g

    def test_named_builders(self):
        assert len(complete_graph(4).edges) == 6
        assert len(path_graph(4).edges) == 3
        assert len(cycle_graph(4).edges) == 4
        assert len(star_graph(4).edges) == 3
        assert len(edgeless_graph(4).edges) == 0
        with pytest.raises(ValueError):
            cycle_graph(2)


class TestEnumerateComplexes:
    def test_count_on_three_nodes(self):
        cs = enumerate_complexes(3)
        assert len(cs) == 9
        assert closure([], 3) in cs
        assert closure([{1, 2, 3}], 3) in cs
        assert closure([{1, 2}, {2, 3}], 3) in cs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        assert enumerate_complexes(n) == brute_force_complexes(n)

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 9), (4, 114), (5, 6894)])
    def test_golden_counts(self, n, count):
        # M(k)-1 of the down-sets of subsets of a k-set hold the empty set (all
        # but the empty one); inclusion-exclusion over the nodes left out
        # counts those that hold every singleton
        assert count == sum((-1) ** (n - k) * comb(n, k) * (DEDEKIND[k] - 1)
                            for k in range(n + 1))
        cs = enumerate_complexes(n)
        assert len(cs) == len(set(cs)) == count

    def test_capped(self):
        start = perf_counter()
        with pytest.raises(ValueError, match="capped at n=5"):
            enumerate_complexes(6)
        assert perf_counter() - start < 1.0


# n and vertices are checked by NodeSet alone, whoever passes them on
@pytest.mark.parametrize("make, message", [
    (lambda: Complex(True, frozenset()), "n True is not an integer"),
    (lambda: Complex(0, frozenset()), "n=0 outside 1..16"),
    (lambda: Graph(True, frozenset()), "n True is not an integer"),
    (lambda: Graph(4.0, frozenset()), "n 4.0 is not an integer"),
    (lambda: Graph(17, frozenset()), "n=17 outside 1..16"),
    (lambda: path_graph(True), "n True is not an integer"),
    (lambda: Graph(3, frozenset({(1, 2.0)})), "vertex 2.0 is not an integer"),
    (lambda: Graph.from_edges([(True, 2)], 3), "vertex True is not an integer"),
    (lambda: Graph(4, frozenset({(1, 5)})), "vertex 5 exceeds n=4"),
    (lambda: Graph(4, frozenset({(0, 1)})), "vertex 0 is below 1"),
    (lambda: closure([[1, 2]], 2.0), "n 2.0 is not an integer"),
    (lambda: closure([[1]], 0), "n=0 outside 1..16"),
    (lambda: enumerate_complexes(2.0), "n 2.0 is not an integer"),
    (lambda: enumerate_complexes(0), "n=0 outside 1..16"),
], ids=["Complex-bool", "Complex-0", "Graph-bool", "Graph-float", "Graph-17",
        "path_graph-bool", "Graph-float-vertex", "from_edges-bool-vertex",
        "Graph-vertex-above", "Graph-vertex-below", "closure-float", "closure-0",
        "enumerate_complexes-float", "enumerate_complexes-0"])
def test_node_set_refuses_for_every_caller(make, message):
    NodeSet.full(1), NodeSet.full(2), NodeSet.full(4)  # held sets an equal key would find
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_every_face_is_the_held_set():
    made = [closure([[1, 2, 3], [3, 4]], 4), closure([], 3)] + enumerate_complexes(4)
    for c in made:
        assert all(f is _node_set(c.n, f.bits) for f in c.faces), c
