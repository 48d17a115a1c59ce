"""Tests for the machine-check suite and its report plumbing."""

import json

import pytest

from ncomplex.complexes import (
    Graph,
    NodeSet,
    closure,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_complexes,
    is_face,
    path_graph,
    star_graph,
)
from ncomplex.free_algebra import Poly, u, z
from ncomplex.presentations import (
    Presentation,
    graph_presentation,
    qF_presentation,
    qn_presentation,
)
from ncomplex.quotient_engine import TruncatedIdealBasis, graded_dimension
from ncomplex.verifier import (
    CHECK_NAMES,
    CheckResult,
    VerificationReport,
    VerifyConfig,
    check_basis_lemma,
    check_commutative_case,
    check_corollary,
    check_eq3_welldefined,
    check_presentation_equivalence,
    check_proposition,
    check_theorem,
    default_config,
    run_all,
    strong_witnesses,
    weak_witnesses,
)


class TestRel4FamilyRefused:
    # basis_lemma asks for the u form before the z form, and it is refused
    @pytest.mark.parametrize("check,forms", [(check_basis_lemma, ["u"]),
                                             (check_corollary, [])])
    def test_refused_before_any_presentation_is_built(self, check, forms, monkeypatch):
        built = []
        monkeypatch.setattr("ncomplex.verifier.qn_presentation",
                            lambda n, form: built.append(form) or qn_presentation(n, form))
        with pytest.raises(ValueError, match="rel_4 family on n=9 nodes has 22500000"):
            check(9)
        assert built == forms


class TestBasisLemma:
    @pytest.mark.parametrize("n,dim", [(1, 1), (2, 3), (4, 15)])
    def test_passes(self, n, dim):
        r = check_basis_lemma(n)
        assert r.passed
        assert r.witness["z_dim"] == dim
        assert r.witness["independent_u"] == dim

    @pytest.mark.parametrize("image,independent", [
        (Poly.from_symbol(z(NodeSet.of((), 4), 1)), 1), (Poly.zero(), 0)],
        ids=["one-image", "zero"])
    def test_dependent_images_fail_without_raising(self, monkeypatch, image,
                                                   independent):
        # every u(A) sent to one image: at most one of them is independent
        monkeypatch.setattr("ncomplex.verifier.u_in_z", lambda a, i: image)
        r = check_basis_lemma(4)
        assert not r.passed
        assert r.witness["independent_u"] == independent
        assert r.witness["failures"][0] == (
            f"only {independent} of the 15 u elements are independent "
            f"modulo the additive relations")


class TestEq3:
    def test_vacuous_for_n_1(self):
        r = check_eq3_welldefined(1)
        assert r.passed and r.witness["instances"] == 0

    def test_n_4(self):
        r = check_eq3_welldefined(4)
        assert r.passed and r.witness["instances"] == 24


class TestCorollary:
    def test_n_4(self):
        r = check_corollary(4)
        assert r.passed and r.witness["instances"] == 48


class TestCommutativeCase:
    def test_examples(self):
        assert check_commutative_case(3).witness["dims"] == [1, 3, 6]
        assert check_commutative_case(2).witness["dims"] == [1, 2, 3]
        r = check_commutative_case(1)
        assert r.passed and r.witness["dims"] == [1, 1, 1]

    def test_equal_dims_without_commutators_fail(self, monkeypatch):
        # k<x1,x2>/(x1*x2) has the polynomial ring's dimensions in every
        # degree, but its degree-2 slice misses [x1,x2]
        x1, x2 = u(NodeSet.of((1,), 2)), u(NodeSet.of((2,), 2))
        monomial = Presentation("x1x2", (x1, x2),
                                (Poly.from_symbol(x1) * Poly.from_symbol(x2),))
        monkeypatch.setattr("ncomplex.verifier.qF_presentation", lambda c: monomial)
        r = check_commutative_case(2)
        assert not r.passed and r.witness["dims"] == [1, 2, 3]
        assert r.witness["failures"] == ["[u({1}),u({2})] not in the quotient ideal"]


class TestProposition:
    def test_witness_conditions_on_path(self):
        c = closure([{1, 2}, {2, 3}], 3)
        a, b = NodeSet.of((1, 2), 3), NodeSet.of((3,), 3)
        assert weak_witnesses(c, a, b) == [(1, 3)]
        assert strong_witnesses(c, a, b) == []  # {2,3} is a face, blocks (1,3)
        s, t = NodeSet.of((1,), 3), NodeSet.of((3,), 3)
        assert strong_witnesses(c, s, t) == [(1, 3)]

    def test_path_records_document_both_readings(self):
        # the weakly-qualifying pairs genuinely fail membership; the check
        # still passes because its verdict gates on the pairwise reading
        r = check_proposition(closure([{1, 2}, {2, 3}], 3))
        assert r.passed
        by_pair = {(rec["A"], rec["B"]): rec for rec in r.witness["records"]}
        assert by_pair[("{1}", "{3}")]["strong"] is True
        assert by_pair[("{1}", "{3}")]["member"] is True
        assert by_pair[("{1,2}", "{2,3}")]["strong"] is False
        assert by_pair[("{1,2}", "{2,3}")]["member"] is False
        assert by_pair[("{3}", "{1,2}")]["member"] is False

    def test_zero_dimensional_complex_all_pairs_commute(self):
        r = check_proposition(closure([], 3))
        assert r.passed
        assert all(rec["member"] for rec in r.witness["records"])
        assert all(rec["strong"] for rec in r.witness["records"])

    def test_disjoint_edges(self):
        r = check_proposition(closure([{1, 2}, {3, 4}], 4))
        assert r.passed
        rec = next(rec for rec in r.witness["records"]
                   if rec["A"] == "{1,2}" and rec["B"] == "{3,4}")
        assert rec["strong"] and rec["member"]

    def test_full_simplex_is_vacuous(self):
        r = check_proposition(closure([{1, 2, 3}], 3))
        assert r.passed and r.witness["records"] == []

    def test_weak_guard_formulations_coincide(self):
        # requiring {i,j} to be a non-face is the same as requiring every
        # E+{i,j}, E inside (A-i)+(B-j), to be one: downward closure kills
        # all supersets of a non-face at once
        for c in enumerate_complexes(3) + [closure([{1, 2}, {1, 3}, {2, 3}], 4)]:
            faces = c.sorted_faces()
            for a in faces:
                for b in faces:
                    for i in a:
                        for j in b:
                            if i == j:
                                continue
                            pair = NodeSet.of((i, j), c.n)
                            rest = (a.minus(i) | b.minus(j))
                            all_supersets_dead = all(
                                not is_face(c, e | pair) for e in rest.subsets())
                            assert (not is_face(c, pair)) == all_supersets_dead


class TestTheorem:
    @pytest.mark.parametrize("g", [complete_graph(2), path_graph(3),
                                   complete_graph(3), complete_graph(4),
                                   star_graph(4)],
                             ids=["K2", "P3", "K3", "K4", "S3"])
    def test_passes(self, g):
        r = check_theorem(g)
        assert r.passed, r.witness["failures"]
        assert r.witness["induction_instances"] > 0

    def test_witness_counts_k2(self):
        r = check_theorem(complete_graph(2))
        assert r.witness["relations"] == 1
        assert r.witness["identity11_instances"] == 0  # no room for A nonempty
        assert r.witness["induction_instances"] == 2   # (i,j) and (j,i), A empty

    @pytest.mark.parametrize("g,relations,rel12", [
        (path_graph(3), 6, 3), (cycle_graph(4), 20, 12), (complete_graph(4), 21, 12)],
        ids=["P3", "C4", "K4"])
    def test_witness_counts_what_the_presentation_lists(self, g, relations, rel12):
        # (ii) is listed over i < j and k outside {i,j}: C(n,2)(n-2) instances
        r = check_theorem(g)
        assert r.witness["relations"] == relations == len(graph_presentation(g).relations)
        assert r.witness["rel12_instances"] == rel12


class TestDegreeTwoDecides:
    """proposition and theorem test degree-2 elements only, which the degree-2
    slice decides exactly: bases built to degree 3 give the same witnesses."""

    def assert_same_at_degree_3(self, check, subject, monkeypatch):
        at_2 = check(subject)
        asked = []

        def build(pres, d):
            asked.append(d)
            return TruncatedIdealBasis(pres, 3)
        monkeypatch.setattr("ncomplex.verifier.TruncatedIdealBasis", build)
        at_3 = check(subject)
        assert asked and set(asked) == {2}
        assert at_3.params == at_2.params and at_2.params["d"] == 2
        assert at_2.passed and at_3.passed and at_3.witness == at_2.witness

    @pytest.mark.parametrize("c", [cycle_graph(4).as_complex(),
                                   closure([[1, 2, 3], [3, 4]], 4)], ids=["C4", "K3+edge"])
    def test_proposition(self, c, monkeypatch):
        self.assert_same_at_degree_3(check_proposition, c, monkeypatch)

    # the second graph is the 1-skeleton of the proposition's second complex
    @pytest.mark.parametrize("g", [cycle_graph(4),
                                   Graph.from_complex(closure([[1, 2], [1, 3], [2, 3],
                                                               [3, 4]], 4))],
                             ids=["C4", "paw"])
    def test_theorem(self, g, monkeypatch):
        self.assert_same_at_degree_3(check_theorem, g, monkeypatch)


class TestSubcomplexMonotonicity:
    def test_dims_never_grow_when_faces_are_removed(self):
        # the algebra of a subcomplex is a further quotient, so its slice
        # dimensions are bounded by the parent's
        all3 = enumerate_complexes(3)
        dims = {c: graded_dimension(qF_presentation(c), 2) for c in all3}
        for big in all3:
            for small in all3:
                if small.faces <= big.faces:
                    assert all(x <= y for x, y in zip(dims[small], dims[big]))


class TestPresentationEquivalence:
    def test_edgeless(self):
        r = check_presentation_equivalence(edgeless_graph(3))
        assert r.passed and r.witness["qF_dims"] == [1, 3, 6]

    def test_k2(self):
        r = check_presentation_equivalence(complete_graph(2))
        assert r.passed and r.witness["qF_dims"] == [1, 3, 8]

    def test_equal_dims_with_other_relations_fail(self, monkeypatch):
        # the squares of P3's five letters give the graph side Q_F's
        # dimensions [1, 5, 20], but no square lies in Q_F's degree-2 slice
        g = path_graph(3)
        letters = graph_presentation(g).alphabet
        squares = Presentation("squares", letters, tuple(
            Poly.from_symbol(s) * Poly.from_symbol(s) for s in letters))
        monkeypatch.setattr("ncomplex.verifier.graph_presentation", lambda g: squares)
        r = check_presentation_equivalence(g)
        assert not r.passed
        assert r.witness["qF_dims"] == r.witness["graph_dims"] == [1, 5, 20]
        assert len(r.witness["failures"]) == 5

    @pytest.mark.parametrize("g,dims", [
        (path_graph(3), [1, 5, 20, 76]),
        (complete_graph(4), [1, 10, 83, 667]),
        (cycle_graph(4), [1, 8, 48, 264]),
        (path_graph(4), [1, 7, 36, 168]),
        (star_graph(4), [1, 7, 37, 182]),
    ], ids=["P3", "K4", "C4", "P4", "S3"])
    def test_hilbert_goldens_degree_3(self, g, dims):
        # regression values; the two independent presentations agreeing on
        # them is itself the cross-check
        assert graded_dimension(qF_presentation(g.as_complex()), 3) == dims
        assert graded_dimension(graph_presentation(g), 3) == dims


class TestRunAll:
    def test_default_sweep_passes(self):
        report = run_all(default_config())
        assert report.overall
        assert len(report.entries) == 3 * 4 + 9 + 8 * 2  # n-checks, prop, graph pairs

    def test_single_check(self):
        report = run_all(VerifyConfig(checks=("corollary",), ns=(2,)))
        assert report.overall and len(report.entries) == 1

    def test_repeated_check_runs_once(self):
        # the first listing of each name sets the order
        report = run_all(VerifyConfig(checks=("corollary", "basis_lemma", "corollary"),
                                      ns=(2,)))
        assert [e.check for e in report.entries] == ["corollary", "basis_lemma"]

    def test_checks_are_looked_up_when_run(self, monkeypatch):
        # a check rebound on the module after import is the one run_all calls
        fake = CheckResult("corollary", {"n": 2}, True, {}, 0)
        monkeypatch.setattr("ncomplex.verifier.check_corollary", lambda n: fake)
        report = run_all(VerifyConfig(checks=("corollary",), ns=(2,)))
        assert report.entries == [fake]

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_all(VerifyConfig(checks=("bogus",), ns=(2,)))

    def test_no_checks(self):
        with pytest.raises(ValueError, match="no checks selected"):
            run_all(VerifyConfig(checks=(), ns=(2,)))

    def test_missing_inputs(self):
        with pytest.raises(ValueError, match="needs n"):
            run_all(VerifyConfig(checks=("corollary",)))
        with pytest.raises(ValueError, match="needs a complex"):
            run_all(VerifyConfig(checks=("proposition",), ns=(2,)))

    def test_graph_checks_need_low_dimension(self):
        with pytest.raises(ValueError, match="dimension <= 1"):
            run_all(VerifyConfig(checks=("theorem",),
                                 complexes=(closure([{1, 2, 3}], 3),)))

    def test_unnamed_checks_are_those_the_subjects_allow(self, monkeypatch):
        # stub every check: only which ones run_all picks is under test
        for name in CHECK_NAMES:
            monkeypatch.setattr(f"ncomplex.verifier.check_{name}",
                                lambda *args, name=name: CheckResult(name, {}, True, {}))
        n_checks = ["basis_lemma", "eq3_welldefined", "corollary", "commutative_case"]
        report = run_all(VerifyConfig(ns=(2,)))
        assert [e.check for e in report.entries] == n_checks
        simplex = closure([[1, 2, 3]], 3)
        report = run_all(VerifyConfig(ns=(3,), complexes=(simplex,)))
        assert [e.check for e in report.entries] == n_checks + ["proposition"]
        with pytest.raises(ValueError,
                           match="check 'theorem' needs a complex of dimension <= 1"):
            run_all(VerifyConfig(checks=("theorem",), ns=(3,), complexes=(simplex,)))
        with pytest.raises(ValueError, match="no checks selected"):
            run_all(VerifyConfig(checks=(), ns=(3,), complexes=(simplex,)))


class TestReport:
    def test_json_round_trip(self):
        report = run_all(VerifyConfig(checks=("corollary", "basis_lemma"), ns=(2,)))
        obj = report.to_json_obj()
        assert obj["schema"] == 1 and obj["overall"] is True
        again = json.loads(json.dumps(obj))
        assert again == obj
        assert {e["check"] for e in obj["entries"]} == {"corollary", "basis_lemma"}
        assert all(set(e) == {"check", "params", "pass", "witness", "millis"}
                   for e in obj["entries"])

    def test_entries_sorted(self):
        report = run_all(VerifyConfig(checks=("corollary", "basis_lemma"),
                                      ns=(3, 2)))
        names = [(e.check, e.params["n"]) for e in report.sorted_entries()]
        assert names == sorted(names)

    def test_text_format(self):
        report = run_all(VerifyConfig(checks=("corollary",), ns=(2,)))
        lines = report.to_text().splitlines()
        assert lines[0].startswith("PASS corollary n=2")
        assert lines[-1].startswith("overall PASS (1/1")

    def test_failure_is_data(self):
        report = VerificationReport([
            CheckResult("x", {}, True, {}, 0),
            CheckResult("y", {}, False, {"failures": ["boom"]}, 0),
        ])
        assert not report.overall
        assert "FAIL y" in report.to_text()
        assert "boom" in report.to_text()
