"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero (equality of exact rationals / integers).  Each
criterion prints one pass/fail line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Stated time budgets are asserted.
"""

import functools
import json
import math
import time

import pytest

from ncomplex.cli import main
from ncomplex.complexes import (
    NodeSet,
    closure,
    complete_graph,
    cycle_graph,
    enumerate_complexes,
    path_graph,
    star_graph,
)
from ncomplex.free_algebra import (
    Poly,
    poly_text,
    substitute,
    u,
    z,
)
from ncomplex.presentations import (
    graph_presentation,
    identity_11_residual,
    qF_presentation,
    qn_presentation,
    rel_10,
    u_in_z,
    z_in_u,
)
from ncomplex.quotient_engine import TruncatedIdealBasis, graded_dimension
from ncomplex.verifier import (
    check_corollary,
    check_eq3_welldefined,
    check_proposition,
)
from test_quotient_engine import relabelled, reversed_key

GRAPH_FAMILY = [
    ("K2", complete_graph(2)),
    ("P3", path_graph(3)),
    ("K3", complete_graph(3)),
    ("P4", path_graph(4)),
    ("C4", cycle_graph(4)),
    ("K4", complete_graph(4)),
    ("S3", star_graph(4)),
]

COMPLEX_FAMILY = (
    list(enumerate_complexes(3))
    + [closure([{1, 2}, {2, 3}, {3, 4}], 4),            # path
       closure([{1, 2}, {1, 3}, {1, 4}], 4),            # star
       closure([{1, 2}, {1, 3}, {2, 3}], 4),            # triangle plus vertex
       closure([{1, 2}, {3, 4}], 4)]                    # two disjoint edges
)


def criterion(num, limit_s, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({desc}): FAIL")
                raise
            dt = time.perf_counter() - t0
            assert dt < limit_s, f"criterion {num} took {dt:.1f}s, budget {limit_s}s"
            print(f"[acceptance] criterion {num} ({desc}): PASS ({dt:.2f}s)")
        return wrapper
    return deco


def instances(n):
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in NodeSet.full(n).minus(i).minus(j).subsets():
                out.append((a, i, j))
    return out


@criterion(1, 10, "basis lemma dims 2^n - 1 in both forms, n <= 5")
def test_criterion_1_basis_lemma():
    for n in range(1, 6):
        expected = 2 ** n - 1
        assert graded_dimension(qn_presentation(n, "z"), 1) == [1, expected], n
        assert graded_dimension(qn_presentation(n, "u"), 1) == [1, expected], n


@criterion(2, 5, "z/u change of basis is an exact two-sided inverse, n <= 5")
def test_criterion_2_round_trip():
    for n in range(1, 6):
        for a in NodeSet.full(n).subsets():
            for i in range(1, n + 1):
                if i in a:
                    continue
                ui = {u(d.plus(i)): u_in_z(d.plus(i), i) for d in a.subsets()}
                assert substitute(z_in_u(a, i), ui) == Poly.from_symbol(z(a, i))
                zi = {z(d, i): z_in_u(d, i) for d in a.subsets()}
                b = a.plus(i)
                assert substitute(u_in_z(b, i), zi) == Poly.from_symbol(u(b))


@criterion(3, 10, "u expansion independent of the index choice, n <= 5")
def test_criterion_3_eq3_welldefined():
    for n in range(2, 6):
        r = check_eq3_welldefined(n)
        assert r.passed, r.witness["failures"]


@criterion(4, 30, "corollary substitutions and rel_5 = -rel_4, n <= 5")
def test_criterion_4_corollary():
    for n in range(2, 6):
        r = check_corollary(n)
        assert r.passed, r.witness["failures"]


@criterion(5, 10, "recursion identity (11) exact for all instances, n <= 5")
def test_criterion_5_identity_11():
    count = 0
    for n in range(3, 6):
        for a, i, j in instances(n):
            for k in a:
                assert identity_11_residual(a, i, j, k) == Poly.zero(), (n, a, i, j, k)
                count += 1
    assert count > 0


@criterion(6, 60, "0-dimensional quotient has commutative dimensions, n <= 4")
def test_criterion_6_commutative_case():
    for n in range(1, 5):
        dims = graded_dimension(qF_presentation(closure([], n)), 3)
        assert dims == [math.comb(n + e - 1, e) for e in range(4)], n
    assert graded_dimension(qF_presentation(closure([], 3)), 3) == [1, 3, 6, 10]


@criterion(7, 120, "commutator vanishing for qualifying face pairs")
def test_criterion_7_proposition():
    for c in COMPLEX_FAMILY:
        r = check_proposition(c)
        assert r.passed, (str(c), r.witness["failures"])
        for rec in r.witness["records"]:
            if rec["strong"]:
                assert rec["member"], (str(c), rec)


@criterion(8, 120, "graph relations (i)-(iii) hold in the quotient")
def test_criterion_8_theorem_relations():
    for name, g in GRAPH_FAMILY:
        basis = TruncatedIdealBasis(qF_presentation(g.as_complex()), 2)
        rels = graph_presentation(g).relations
        assert rels, name
        for r in rels:
            assert basis.contains(r), (name, poly_text(r))


@criterion(9, 120, "every truncated quadratic follows from the graph relations")
def test_criterion_9_induction_step():
    for name, g in GRAPH_FAMILY:
        basis = TruncatedIdealBasis(graph_presentation(g), 2)
        for a, i, j in instances(g.n):
            r = rel_10(a, i, j, graph=g)
            if r:
                assert basis.contains(r), (name, str(a), i, j)


@criterion(10, 600, "kill-ideal and graph presentations have equal dimensions")
def test_criterion_10_presentation_equivalence():
    for name, g in GRAPH_FAMILY:
        qf = graded_dimension(qF_presentation(g.as_complex()), 3)
        gp = graded_dimension(graph_presentation(g), 3)
        assert qf == gp, (name, qf, gp)


@criterion(11, 60, "order independence, determinism, monotonicity")
def test_criterion_11_engine_properties():
    presentations = [qn_presentation(3, "u"),
                     qF_presentation(closure([{1, 2}, {2, 3}], 3)),
                     graph_presentation(path_graph(3))]
    for pres in presentations:
        assert (graded_dimension(pres, 3)
                == graded_dimension(relabelled(pres, reversed_key), 3)), pres.label

    pres = qF_presentation(closure([{1, 2}, {2, 3}], 3))
    runs = []
    for _ in range(2):
        basis = TruncatedIdealBasis(pres, 3)
        q = pres.relations[0] * Poly.from_symbol(pres.alphabet[0])
        runs.append((json.dumps(basis.dimensions()),
                     repr(basis.quotient_basis(2)),
                     poly_text(basis.reduce(q))))
    assert runs[0] == runs[1]

    basis = TruncatedIdealBasis(pres, 3)
    for r in [x for x in pres.relations if x.degree() == 2][:6]:
        for s in pres.alphabet[:3]:
            gen = Poly.from_symbol(s)
            assert basis.contains(gen * r) and basis.contains(r * gen)


@criterion(12, 60, "documented CLI invocations byte-exact; errors exit 2")
def test_criterion_12_cli(tmp_path, capsys):
    edgeless3 = tmp_path / "edgeless3.json"
    edgeless3.write_text('{"n": 3, "facets": []}')

    code = main(["hilbert", "--complex", str(edgeless3), "--max-degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"schema":1,"label":"QF(n=3,faces={1},{2},{3})","dims":[1,3,6]}\n'
    assert json.loads(out)["dims"] == [1, 3, 6]

    code = main(["relations", "--family", "4", "--n", "2",
                 "--A", "", "--i", "1", "--j", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("-u({1})*u({2}) + u({2})*u({1})"
                   " + u({1,2})*u({1}) - u({1,2})*u({2})\n")

    code = main(["verify", "--n", "2", "--checks", "corollary"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS corollary n=2")
    assert lines[1] == "overall PASS (1/1 checks passed)"

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "facets": [[1, 4]]}')
    code = main(["closure", "--complex", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "vertex 4 exceeds n=3" in err

    bad.write_text("{not json")
    code = main(["hilbert", "--complex", str(bad), "--max-degree", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "malformed JSON" in err

    bad.write_text('{"n": 3, "facets": [], "huh": 0}')
    code = main(["closure", "--complex", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "unknown key 'huh'" in err
