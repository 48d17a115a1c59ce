"""Named machine checks for every identity, lemma and theorem clause.

Each check is pure and returns a CheckResult whose witness is JSON-able and
reproducible; failure never raises, it is recorded in the result.  run_all
aggregates results into a VerificationReport.  Every verdict holds in all
degrees: basis_lemma, eq3_welldefined and corollary are degree-1 or
free-algebra facts, and the other four decide on degree-2 slices, as every
algebra they build is quadratic once its killed letters are dropped.

The commutator-vanishing check evaluates two candidate hypotheses.  The weak
one (some i in A, j in B with {i,j} not a face) is demonstrably insufficient:
on the path 1-2-3 the pair A={1,2}, B={3} satisfies it, yet [u(A),u(B)]
reduces to a nonzero normal form at degree 2.  The condition the induction
argument actually needs is pairwise: there are witnesses i in A, j in B such
that {i,j} and every {i,b}, b in B-j, and every {a,j}, a in A-i, all fail to
be faces.  check_proposition evaluates every face pair under BOTH readings,
records the outcomes, and gates its verdict on the pairwise reading.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from .complexes import (
    Complex,
    Graph,
    NodeSet,
    closure,
    dimension,
    enumerate_complexes,
    is_face,
)
from .free_algebra import Poly, commutator, substitute, u, z
from .presentations import (
    Presentation,
    _instances,
    _u,
    _u_form,
    all_z_symbols,
    graph_presentation,
    identity_11_residual,
    qF_presentation,
    qn_presentation,
    rel_5,
    rel_9,
    rel_10,
    rel_additive,
    rel_multiplicative,
    u_in_z,
    z_in_u,
)
from .quotient_engine import TruncatedIdealBasis, graded_dimension

@dataclass
class CheckResult:
    check: str
    params: dict
    passed: bool
    witness: object
    millis: int = 0

    def to_json_obj(self) -> dict:
        return {"check": self.check, "params": self.params, "pass": self.passed,
                "witness": self.witness, "millis": self.millis}


@dataclass
class VerificationReport:
    entries: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def sorted_entries(self) -> list[CheckResult]:
        return sorted(self.entries,
                      key=lambda e: (e.check, json.dumps(e.params, sort_keys=True)))

    def to_json_obj(self) -> dict:
        return {"schema": 1, "overall": self.overall,
                "entries": [e.to_json_obj() for e in self.sorted_entries()]}

    def to_text(self) -> str:
        lines = []
        for e in self.sorted_entries():
            params = " ".join(f"{k}={e.params[k]}" for k in sorted(e.params))
            lines.append(f"{'PASS' if e.passed else 'FAIL'} {e.check}"
                         f"{' ' + params if params else ''} ({e.millis} ms)")
            if not e.passed and isinstance(e.witness, dict):
                for f in e.witness.get("failures", [])[:20]:
                    lines.append(f"  failure: {f}")
        done = sum(e.passed for e in self.entries)
        lines.append(f"overall {'PASS' if self.overall else 'FAIL'}"
                     f" ({done}/{len(self.entries)} checks passed)")
        return "\n".join(lines)


def _timed(check: str, params: dict, body: Callable[[], tuple[bool, object]]) -> CheckResult:
    t0 = time.perf_counter()
    passed, witness = body()
    ms = int((time.perf_counter() - t0) * 1000)
    return CheckResult(check, params, passed, witness, ms)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_basis_lemma(n: int) -> CheckResult:
    """Degree-1 dimension is 2^n - 1 in both forms, the u elements are
    independent modulo the additive relations, and the z/u change of basis
    is an exact two-sided inverse."""
    def body():
        failures = []
        expected = 2 ** n - 1
        u_dim = graded_dimension(qn_presentation(n, "u"), 1)[1]
        zp = qn_presentation(n, "z")
        z_dim = graded_dimension(zp, 1)[1]
        if z_dim != expected:
            failures.append(f"z-form degree-1 dimension {z_dim} != {expected}")
        if u_dim != expected:
            failures.append(f"u-form degree-1 dimension {u_dim} != {expected}")

        # the u(A) are independent modulo the additive relations exactly when
        # adding their images as relations lowers the degree-1 dimension by
        # their number; a zero image counts as dependent
        images = [u_in_z(a, a.elements[0]) for a in NodeSet.full(n).subsets()
                  if not a.is_empty]
        with_u = Presentation(zp.label, zp.alphabet,
                              zp.relations + tuple(p for p in images if p))
        independent = z_dim - graded_dimension(with_u, 1)[1]
        if independent != expected:
            failures.append(f"only {independent} of the {expected} u elements are "
                            f"independent modulo the additive relations")

        # every z by its u expansion, and every u through each of its indices
        zi = {s: z_in_u(s.a, s.i) for s in all_z_symbols(n)}
        ui = {i: {u(b): u_in_z(b, i) for b in NodeSet.full(n).subsets() if i in b}
              for i in range(1, n + 1)}
        roundtrips = 0
        for a in NodeSet.full(n).subsets():
            for i in range(1, n + 1):
                if i in a:
                    continue
                s, t = z(a, i), u(a.plus(i))
                if substitute(zi[s], ui[i]) != Poly.from_symbol(s):
                    failures.append(f"u->z->u round trip failed at {s}")
                if substitute(ui[i][t], zi) != Poly.from_symbol(t):
                    failures.append(f"z->u->z round trip failed at {t}")
                roundtrips += 2
        witness = {"n": n, "expected_dim": expected, "z_dim": z_dim, "u_dim": u_dim,
                   "independent_u": independent, "roundtrips": roundtrips,
                   "failures": failures}
        return not failures, witness
    return _timed("basis_lemma", {"n": n}, body)


def check_eq3_welldefined(n: int) -> CheckResult:
    """The z expansion of u(A) is independent of the chosen index, modulo the
    span of the additive relations (the degree-1 slice of the z form)."""
    def body():
        basis = TruncatedIdealBasis(qn_presentation(n, "z"), 1)
        failures = []
        instances = 0
        for a in NodeSet.full(n).subsets():
            for x, y in combinations(a.elements, 2):
                instances += 1
                if not basis.contains(u_in_z(a, x) - u_in_z(a, y)):
                    failures.append(f"u({a}) via i={x} vs i={y} differs "
                                    f"outside the additive span")
        return not failures, {"n": n, "instances": instances, "failures": failures}
    return _timed("eq3_welldefined", {"n": n}, body)


def check_corollary(n: int) -> CheckResult:
    """Under z -> u substitution the additive relations vanish and the
    multiplicative relations become the u-form quadratics; the commutator
    form is their negative.  The u-form family is the one the presentations
    hand to the engine."""
    def body():
        family = _u_form(n)[1]
        images = {s: z_in_u(s.a, s.i) for s in all_z_symbols(n)}
        failures = []
        for (a, i, j), r4 in zip(_instances(n), family):
            if substitute(rel_additive(a, i, j), images):
                failures.append(f"additive ({a},{i},{j}) has nonzero u image")
            if substitute(rel_multiplicative(a, i, j), images) != r4:
                failures.append(f"multiplicative ({a},{i},{j}) image != rel_4")
            if rel_5(a, i, j) != -1 * r4:
                failures.append(f"rel_5 ({a},{i},{j}) != -rel_4")
        return not failures, {"n": n, "instances": len(family), "failures": failures}
    return _timed("corollary", {"n": n}, body)


def check_commutative_case(n: int) -> CheckResult:
    """The 0-dimensional quotient, quadratic on the n vertex letters, is the
    commutative polynomial ring: its degree-2 slice holds every [u(i),u(j)]
    and has their number C(n,2) as rank, so it is their span."""
    def body():
        basis = TruncatedIdealBasis(qF_presentation(closure([], n)), 2)
        dims = basis.dimensions()
        expected = [math.comb(n + e - 1, e) for e in range(3)]
        failures = ([] if dims == expected
                    else [f"dims {dims} != expected {expected}"])
        for i, j in combinations(range(1, n + 1), 2):
            x, y = _u(n, i), _u(n, j)
            if not basis.contains(commutator(x, y)):
                failures.append(f"[{x},{y}] not in the quotient ideal")
        return not failures, {"n": n, "d": 2, "dims": dims, "expected": expected,
                              "failures": failures}
    return _timed("commutative_case", {"n": n, "d": 2}, body)


def _pair_absent(c: Complex, x: int, y: int) -> bool:
    return x != y and not is_face(c, NodeSet.of((x, y), c.n))


def weak_witnesses(c: Complex, a: NodeSet, b: NodeSet) -> list[tuple[int, int]]:
    """(i, j) with i in A, j in B, i != j and {i,j} not a face."""
    return [(i, j) for i in a for j in b if _pair_absent(c, i, j)]


def strong_witnesses(c: Complex, a: NodeSet, b: NodeSet) -> list[tuple[int, int]]:
    """Weak witnesses whose non-adjacency extends pairwise across the two
    faces; this is what the induction argument needs."""
    return [(i, j) for i, j in weak_witnesses(c, a, b)
            if all(_pair_absent(c, i, y) for y in b if y != j)
            and all(_pair_absent(c, x, j) for x in a if x != i)]


def check_proposition(c: Complex) -> CheckResult:
    """Commutator vanishing for qualifying face pairs, plus the intermediate
    membership claims the induction rests on (see the module docstring for
    the two qualifying conditions).  Every element tested has degree 2, and
    the degree-2 slice decides its membership exactly, so the basis stops
    there."""
    def body():
        basis = TruncatedIdealBasis(qF_presentation(c), 2)
        faces = c.sorted_faces()
        records = []
        failures = []
        for x in range(len(faces)):
            for y in range(x + 1, len(faces)):
                a, b = faces[x], faces[y]
                weak = weak_witnesses(c, a, b)
                if not weak:
                    continue
                strong = strong_witnesses(c, a, b)
                member = basis.contains(
                    commutator(Poly.from_symbol(u(a)), Poly.from_symbol(u(b))))
                records.append({"A": str(a), "B": str(b), "weak": True,
                                "strong": bool(strong), "member": member})
                if strong and not member:
                    failures.append(f"[u({a}),u({b})] not in the ideal despite "
                                    f"pairwise witnesses {strong}")
                for i, j in strong:
                    for ap in a.minus(i).subsets():
                        for bp in b.minus(j).subsets():
                            r9 = rel_9(ap, bp, i, j)
                            if r9 and not basis.contains(r9):
                                failures.append(
                                    f"rel_9({ap},{bp},{i},{j}) not in the ideal")
                            sub = commutator(Poly.from_symbol(u(ap.plus(i))),
                                             Poly.from_symbol(u(bp.plus(j))))
                            if not basis.contains(sub):
                                failures.append(
                                    f"[u({ap.plus(i)}),u({bp.plus(j)})] not in the ideal")
        witness = {"complex": str(c), "n": c.n,
                   "weak_pairs": len(records),
                   "strong_pairs": sum(r["strong"] for r in records),
                   "records": records, "failures": failures}
        return not failures, witness
    return _timed("proposition", {"complex": str(c), "d": 2}, body)


def _graph_relations_in_quotient(
        g: Graph) -> tuple[TruncatedIdealBasis, Presentation, list[str]]:
    """Q_F's degree-2 slice, the graph presentation, and one failure per graph
    relation outside that slice."""
    basis = TruncatedIdealBasis(qF_presentation(g.as_complex()), 2)
    pres = graph_presentation(g)
    return basis, pres, [f"graph relation {r} not in the quotient ideal"
                         for r in pres.relations if not basis.contains(r)]


def check_theorem(g: Graph) -> CheckResult:
    """The graph relations hold in the quotient (this covers every nonzero
    triple relation instance, which the graph presentation holds up to sign),
    the recursion identity is an exact free-algebra identity, and every
    truncated quadratic follows from the graph relations alone.  Both kinds
    have degree 2, which the degree-2 slices decide exactly."""
    def body():
        n = g.n
        _, graph_pres, failures = _graph_relations_in_quotient(g)
        id11 = 0
        for a, i, j in _instances(n):
            for k in a:
                id11 += 1
                if identity_11_residual(a, i, j, k):
                    failures.append(f"identity (11) fails at A={a},i={i},j={j},k={k}")

        graph_basis = TruncatedIdealBasis(graph_pres, 2)
        induction = 0
        for a, i, j in _instances(n):
            induction += 1
            r = rel_10(a, i, j, graph=g)
            if r and not graph_basis.contains(r):
                failures.append(f"rel_10({a},{i},{j}) does not follow from "
                                f"the graph relations")
        witness = {"graph": str(g), "n": n, "relations": len(graph_pres.relations),
                   "identity11_instances": id11, "rel12_instances": math.comb(n, 2) * (n - 2),
                   "induction_instances": induction, "failures": failures}
        return not failures, witness
    return _timed("theorem", {"graph": str(g), "d": 2}, body)


def check_presentation_equivalence(g: Graph) -> CheckResult:
    """The kill-ideal quotient and the graph presentation, both quadratic on
    the vertex and edge letters, are one algebra: the graph relations lie in
    the quotient's degree-2 slice, and the two slices have equal rank."""
    def body():
        qf_basis, graph_pres, outside = _graph_relations_in_quotient(g)
        qf, gp = qf_basis.dimensions(), graded_dimension(graph_pres, 2)
        failures = ([] if qf == gp else [f"qF dims {qf} != graph dims {gp}"]) + outside
        return not failures, {"graph": str(g), "d": 2, "qF_dims": qf,
                              "graph_dims": gp, "failures": failures}
    return _timed("presentation_equivalence", {"graph": str(g), "d": 2}, body)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: every check in run order (reports sort by check name) and its subject: n,
#: a complex, or the graph of a complex of dimension <= 1.  run_all looks
#: check_<name> up when it runs, so rebinding one (as a profiler does) counts.
CHECKS = {"basis_lemma": "n", "eq3_welldefined": "n", "corollary": "n",
          "commutative_case": "n", "proposition": "complex", "theorem": "graph",
          "presentation_equivalence": "graph"}
CHECK_NAMES = tuple(CHECKS)

_NEEDS = {"n": "n (pass --n or a complex)", "complex": "a complex",
          "graph": "a complex of dimension <= 1"}


@dataclass(frozen=True)
class VerifyConfig:
    """``checks=None`` runs every check whose subject the config has: the
    n-checks on ``ns``, proposition on ``complexes``, the graph checks on
    those of dimension <= 1.  Naming a check without its subject is an error.
    No field is a degree: every check decides its claim in all degrees."""

    checks: tuple[str, ...] | None = None
    ns: tuple[int, ...] = ()
    complexes: tuple[Complex, ...] = ()


def default_config() -> VerifyConfig:
    """The full sweep at desk scale: n <= 3 and every complex on 3 nodes."""
    return VerifyConfig(ns=(1, 2, 3), complexes=tuple(enumerate_complexes(3)))


def run_all(config: VerifyConfig) -> VerificationReport:
    subjects = {"n": config.ns, "complex": config.complexes,
                "graph": [Graph.from_complex(c) for c in config.complexes
                          if dimension(c) <= 1]}
    checks = (config.checks if config.checks is not None
              else [name for name in CHECKS if subjects[CHECKS[name]]])
    if not checks:
        raise ValueError(f"no checks selected; known: {', '.join(CHECK_NAMES)}")
    report = VerificationReport()
    for name in dict.fromkeys(checks):  # a check named twice runs once
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
        subject = CHECKS[name]
        if not subjects[subject]:
            raise ValueError(f"check '{name}' needs {_NEEDS[subject]}")
        check = globals()[f"check_{name}"]
        report.entries.extend(check(s) for s in subjects[subject])
    return report
