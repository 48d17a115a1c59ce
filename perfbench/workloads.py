"""Seeded workloads, their correctness oracles and the closed-loop runner.

Every workload runs in one process with one client: the next task starts
only after the previous one returned.  A task is one CLI command (hilbert and
verify workloads, run in-process through ``ncomplex.cli.main``) or one query
(membership).  The package keeps no caches, so repeating tasks in one process
is representative.

Inputs come from the seed alone.  Task costs are kept alike across seeds
(relabellings of fixed graph shapes, every labelling where the labelling
moves the cost, one fixed complex whose relations the queries go round, named
anchor inputs) so that the figures of two seeds compare; the seed picks the
labellings, the task order and the queries.  Tasks are kept short (0.3 ms to 0.5 s) so that every
task of the list runs many times in one run: the end-to-end figures use each
task's mean time over many runs, in multiples of the reference computation
run between them (see ``reference.py``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import ncomplex as nc
from ncomplex import cli
from ncomplex.complexes import enumerate_complexes
from ncomplex.verifier import CHECK_NAMES

from reference import reference_work
from tracer import Tracer

#: unit id of the traced set-up (membership's basis build); tasks are >= 0
SETUP_UNIT = -2
#: unit id of the traced anchor task, run once after the traced loop
ANCHOR_UNIT = -3
#: share of the untraced loop's task time spent again on the reference
#: computation, run between tasks
REF_SHARE = 0.1


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    # returns an error message, or None when the output is right
    check: Callable[[object], str | None]
    # spans a traced run of the task must record: a missing one means the
    # tracer did not reach a name the package looks up
    spans: frozenset[str] = frozenset()
    # optional check on the engine counters of the task's traced builds
    trace_check: Callable[[list[dict]], str | None] | None = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def write_complex(workdir: Path, tag: str, n: int, facets) -> str:
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps({"n": n, "facets": [list(f) for f in facets]}),
                    encoding="utf-8")
    return str(path)


def relabelled(rng: random.Random, edges, n: int) -> nc.Graph:
    """The graph with the given edges under a seeded vertex permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return nc.Graph.from_edges([(perm[i - 1], perm[j - 1]) for i, j in edges], n)


def orbit(edges, n: int) -> list[nc.Graph]:
    """Every distinct labelling of the graph with the given edges."""
    seen: dict[tuple, nc.Graph] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        g = nc.Graph.from_edges([(perm[i - 1], perm[j - 1]) for i, j in edges], n)
        seen.setdefault(tuple(g.sorted_edges()), g)
    return [seen[k] for k in sorted(seen)]


def qn_series(n: int, d: int) -> list[int]:
    """Coefficients of (1-t)/(1-t(2-t)^n) up to t^d (Gelfand-Retakh-Wilson)."""
    # f = t(2-t)^n; the series h satisfies h(1 - f) = 1 - t
    f = [0] + [(-1) ** j * 2 ** (n - j) * math.comb(n, j) for j in range(n + 1)]
    f += [0] * d
    h: list[int] = []
    for m in range(d + 1):
        h.append((m == 0) - (m == 1) + sum(f[j] * h[m - j] for j in range(1, m + 1)))
    return h


def quadratic_rank(relations) -> int:
    """Rank of degree-2 relations as vectors over words, by plain dense
    Gaussian elimination (independent of the package's sparse echelon)."""
    cols: dict = {}
    rows = []
    for r in relations:
        row: dict[int, Fraction] = {}
        for w, c in r.terms.items():
            row[cols.setdefault(w, len(cols))] = c
        rows.append(row)
    dense = [[row.get(j, Fraction(0)) for j in range(len(cols))] for row in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(dense)) if dense[i][j]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        top = dense[rank]
        for i in range(rank + 1, len(dense)):
            if dense[i][j]:
                f = dense[i][j] / top[j]
                dense[i] = [a - f * b for a, b in zip(dense[i], top)]
        rank += 1
    return rank


def _check_dims(expect: list[int]):
    """CLI hilbert output against dims for the first len(expect) degrees."""
    def check(out) -> str | None:
        rc, text, err = out
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        dims = json.loads(text)["dims"]
        return None if dims[:len(expect)] == expect else f"dims {dims} != expected {expect}"
    return check


def _check_rows(degree: int, rows: int, rank: int):
    def check(builds: list[dict]) -> str | None:
        got = [(b["rows_by_degree"][degree], b["rank_by_degree"][degree])
               for b in builds]
        return (None if got == [(rows, rank)]
                else f"degree-{degree} (rows, rank) {got} != {[(rows, rank)]}")
    return check


BUILD_SPANS = frozenset({"presentations.build", "quotient_engine.build",
                         "quotient_engine.insert"})


class Workload:
    """Base: ``setup`` is the timed set-up; ``tasks`` builds the oracles
    (untimed) and the task list."""

    name = ""
    # spans the traced set-up must record
    setup_spans: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.listing: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def tasks(self) -> list[Task]:
        raise NotImplementedError

    def traced_setup(self) -> None:
        """The part of set-up that runs package code, replayed under the
        tracer; nothing for the CLI workloads."""

    def anchor(self) -> Task | None:
        """A task run once at the end of a traced run, outside the layer
        metrics, for a check too slow to repeat in the timed loop."""
        return None


class HilbertQF(Workload):
    name = "hilbert-qf"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n, self.d = (3, 2) if self.tiny else (4, 3)
        # P_n first, then seeded relabellings of the path and the star on n
        # nodes (in the qF presentation the labelling barely moves the
        # cost); at n=4, d=3 the alphabet has k=15 letters, ~0.3 s a task
        path, star = nc.path_graph(n).sorted_edges(), nc.star_graph(n).sorted_edges()
        graphs = [nc.path_graph(n)] + [relabelled(rng, (path, star, path)[i % 3], n)
                                       for i in range(6)]
        self.items = [(g, write_complex(self.workdir, f"qf{i}", n, g.sorted_edges()))
                      for i, g in enumerate(graphs)]
        self.listing = [f"hilbert qF d={self.d} graph {g}" for g, _ in self.items]

    def tasks(self) -> list[Task]:
        out = []
        for k, (g, path) in enumerate(self.items):
            expect = nc.graded_dimension(nc.graph_presentation(g), self.d)
            argv = ["hilbert", "--complex", path, "--max-degree", str(self.d)]
            out.append(Task(self.listing[k], lambda a=argv: run_cli(a),
                            _check_dims(expect), BUILD_SPANS | {"cli"}))
        return out

    def anchor(self) -> Task | None:
        """qF of P5 at d=3 (k=31, ~4 s): its degree-3 slice must generate
        73,346 rows for rank 29,487, and its dims must be the graph side's."""
        if self.tiny:
            return None
        path = write_complex(self.workdir, "qf-p5", 5, nc.path_graph(5).sorted_edges())
        argv = ["hilbert", "--complex", path, "--max-degree", "3"]
        return Task("hilbert qF d=3 graph P5", lambda: run_cli(argv),
                    _check_dims([1, 9, 56, 304]), BUILD_SPANS | {"cli"},
                    _check_rows(3, 73346, 29487))


class HilbertDeep(Workload):
    name = "hilbert-deep"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        if self.tiny:
            n, d, full = 3, 3, [(2, 3)]
            shapes = [([(1, 2), (2, 3)], None)]
        else:
            # Q_3 to d=4 and Q_2 to d=6 (the full simplices, checked against
            # the closed form), and the 4-cycle and the star K_{1,3} in the
            # graph presentation at d=4, with dims recorded from the seed
            # engine; 0.15-0.5 s a task
            n, d, full = 4, 4, [(3, 4), (2, 6)]
            shapes = [([(1, 2), (2, 3), (3, 4), (1, 4)], [1, 8, 48, 264, 1407]),
                      ([(1, 2), (1, 3), (1, 4)], [1, 7, 37, 182, 878])]
        # In the graph presentation the cost of a graph depends on its
        # labelling (up to 1.6 times between two labellings of the paw), so
        # every labelling of each shape is in the list, 3 of C4 and 4 of the
        # star, and the seed picks the order in which the tasks run
        graphs = [*full] + [(g, dims) for edges, dims in shapes for g in orbit(edges, n)]
        rng.shuffle(graphs)
        self.items = []
        for i, item in enumerate(graphs):
            if isinstance(item[0], int):
                qn, qd = item
                path = write_complex(self.workdir, f"deep{i}", qn, [range(1, qn + 1)])
                self.items.append((f"hilbert qF d={qd} Q_{qn}", path, qd, None,
                                   qn_series(qn, qd)))
            else:
                g, dims = item
                path = write_complex(self.workdir, f"deep{i}", g.n, g.sorted_edges())
                self.items.append((f"hilbert graph d={d} graph {g}", path, d, g, dims))
        self.listing = [label for label, *_ in self.items]

    def tasks(self) -> list[Task]:
        out = []
        for label, path, d, g, dims in self.items:
            argv = ["hilbert", "--complex", path, "--max-degree", str(d)]
            if g is None:
                check = _check_dims(dims)
            else:
                argv += ["--presentation", "graph"]
                pres = nc.graph_presentation(g)
                k = len(pres.alphabet)
                prefix = [1, k, k * k - quadratic_rank(pres.relations)]
                if dims is not None and dims[:3] != prefix:
                    raise RuntimeError(f"golden {dims} disagrees with independent {prefix}")
                check = _check_dims(dims or prefix)
            out.append(Task(label, lambda a=argv: run_cli(a), check, BUILD_SPANS | {"cli"}))
        return out


class Verify(Workload):
    name = "verify"
    # what each check reaches through names the verifier binds at import
    CHECK_SPANS = {
        "basis_lemma": BUILD_SPANS | {"free_algebra.substitute"},
        "eq3_welldefined": frozenset({"quotient_engine.insert"}),
        "corollary": frozenset({"free_algebra.substitute"}),
        "commutative_case": BUILD_SPANS,
        "proposition": BUILD_SPANS | {"quotient_engine.query"},
        "theorem": BUILD_SPANS | {"quotient_engine.query"},
        "presentation_equivalence": BUILD_SPANS,
    }

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n = 3 if self.tiny else 4
        # seeded relabellings of two 4-edge shapes, the cycle C4 and the paw
        # (a triangle with a pendant edge); check costs depend on the shape
        shapes = ([[(1, 2), (2, 3)]] * 2 if self.tiny else
                  [nc.cycle_graph(4).sorted_edges(), [(1, 2), (2, 3), (1, 3), (3, 4)]])
        graphs = [relabelled(rng, shape, n) for shape in shapes]
        self.paths = [write_complex(self.workdir, f"verify{i}", n, g.sorted_edges())
                      for i, g in enumerate(graphs)]
        # one command per check, every check at n=4 on each graph: 15-250 ms
        # a task, so each of the 14 tasks runs many times in one run
        self.items = [(p, check) for p in self.paths for check in CHECK_NAMES]
        self.listing = [f"verify --complex graph {g} --checks {check}"
                        for g in graphs for check in CHECK_NAMES]

    def tasks(self) -> list[Task]:
        def check(out) -> str | None:
            rc, text, err = out
            lines = text.strip().splitlines()
            if (rc != 0 or len(lines) != 2 or not lines[0].startswith("PASS ")
                    or lines[1] != "overall PASS (1/1 checks passed)"):
                return f"exit {rc}: {(lines or [err.strip()])[0]}"
            return None
        return [Task(label, lambda a=["verify", "--complex", p, "--checks", c]: run_cli(a),
                     check, self.CHECK_SPANS[c] | {"cli", f"verifier.{c}"})
                for (p, c), label in zip(self.items, self.listing)]


COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
          Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 7)]


def membership_query(basis, text: str, n: int) -> str:
    """The CLI membership path without its per-call basis build: parse, reduce
    each graded component, print the remainder.  Looks the package functions
    up at call time, so a traced run sees them."""
    p = nc.parse_poly(text, n)
    rem = nc.Poly.zero()
    for d in p.degrees():
        rem = rem + basis.reduce(p.graded_component(d))
    return nc.poly_text(rem)


class Membership(Workload):
    name = "membership"
    setup_spans = BUILD_SPANS

    def setup(self) -> None:
        rng = random.Random(self.seed)
        if self.tiny:
            n, self.d, groups = 3, 2, 10
            pool = [c for c in enumerate_complexes(n)
                    if nc.dimension(c) == 1 and len(c.faces) == 5]
        else:
            n, self.d, groups = 4, 3, 300
            # the full graph K4 with the triangle {1,2,3} filled in, and the
            # seed picks the queries: the cost of a query mix moves by ~10%
            # with the complex, and even with which triangle is filled in
            edges = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            pool = [nc.closure([[1, 2, 3]] + edges, n)]
        self.complex = c = rng.choice(pool)
        self.traced_setup()
        self.queries = self._queries(rng, groups)
        self.listing = [f"membership d={self.d} complex {c}"] + [q for q, _ in self.queries]

    def traced_setup(self) -> None:
        self.presentation = nc.qF_presentation(self.complex)
        self.basis = nc.TruncatedIdealBasis(self.presentation, self.d)

    def _queries(self, rng: random.Random, groups: int) -> list[tuple[str, object]]:
        """Groups of five: a member sum c*m1*g*m2, a face commutator, a random
        q, then q + member and commutator + member, which must reduce like q
        and like the commutator.  The relations, the number of them in a
        member sum and the number of terms of q go round in turn, so the
        cost of the whole mix hardly depends on the seed."""
        d = self.d
        letters = sorted(self.presentation.alphabet, key=nc.symbol_key)
        small = [g for g in self.presentation.relations if len(g.terms) <= 16]
        rng.shuffle(small)
        relations = itertools.cycle(small)
        faces = self.complex.sorted_faces()

        def word(k):
            return tuple(rng.choice(letters) for _ in range(k))

        def member(k: int):
            out = nc.Poly.zero()
            while not out:
                for _ in range(1 + k % 2):
                    g = next(relations)
                    free = rng.randint(0, d - g.degree())
                    a = rng.randint(0, free)
                    out = out + (nc.Poly.term(rng.choice(COEFFS), word(a)) * g
                                 * nc.Poly.term(1, word(free - a)))
            return out

        def random_poly(k: int):
            out = nc.Poly.zero()
            while not out:
                for _ in range(1 + k % 4):
                    out = out + nc.Poly.term(rng.choice(COEFFS), word(rng.randint(1, d)))
            return out

        def commutator():
            a, b = rng.sample(faces, 2)
            text = f"[u({a}),u({b})]"
            if d >= 3 and rng.random() < 0.5:
                text = f"u({rng.choice(faces)})*{text}"
            return text

        out: list[tuple[str, object]] = []
        for k in range(groups):
            base = len(out)
            m, q, com = member(k), random_poly(k), commutator()
            m_text = nc.poly_text(m)
            out += [(m_text, "member"), (com, None), (nc.poly_text(q), None),
                    (nc.poly_text(q + m), base + 2), (f"{com} + ({m_text})", base + 1)]
        return out

    def tasks(self) -> list[Task]:
        seen: dict[int, str] = {}
        n, basis = self.complex.n, self.basis

        def make(i: int, text: str, expect):
            def check(rem: str) -> str | None:
                if i in seen and seen[i] != rem:
                    return f"remainder changed on repeat: {rem!r} != {seen[i]!r}"
                seen[i] = rem
                if expect == "member" and rem != "0":
                    return f"member sum left remainder {rem!r}"
                if isinstance(expect, int) and seen.get(expect) != rem:
                    return f"remainder {rem!r} != {seen.get(expect)!r} of query {expect}"
                return None
            return Task(text, lambda: membership_query(basis, text, n), check,
                        frozenset({"cli", "parsing.parse", "quotient_engine.query",
                                   "free_algebra.poly_text"}))

        return [make(i, t, e) for i, (t, e) in enumerate(self.queries)]


WORKLOADS = {w.name: w for w in (HilbertQF, HilbertDeep, Verify, Membership)}


@dataclass
class Result:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # wrong answers
    check_errors: list[str] = field(default_factory=list)  # benchmark self-checks
    latencies: list[float] = field(default_factory=list)
    # index in the task list of each latency
    task_index: list[int] = field(default_factory=list)
    n_tasks: int = 0
    ref_times: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    setup_times: list[float] = field(default_factory=list)
    listing: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    span_report: dict[str, list[float]] = field(default_factory=dict)
    traced_latencies: list[float] = field(default_factory=list)


def _attempt(task: Task, result: Result, index: int) -> float:
    """Run one task untraced; record its latency and any wrong answer."""
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception:  # a crash is a failed task, reported with its traceback
        out, err = None, traceback.format_exc(limit=3)
    else:
        err = None
    dt = perf_counter() - t0
    result.attempted += 1
    msg = err or task.check(out)
    if msg:
        result.failures.append(f"task {index} ({task.label}): {msg}")
    return dt


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 tiny: bool = False, spans_path: Path | None = None) -> Result:
    """Set up several times (the median is setup_s), then run the task list
    round robin in a closed loop until the next task would likely end past
    ``seconds``.  Untraced, the reference computation runs between tasks
    whenever its total time is below REF_SHARE of the tasks' total."""
    wl = WORKLOADS[name](seed, workdir, tiny)
    result = Result()
    # membership's set-up builds a basis (~0.5 s); the others write a few files
    repeats = 1 if tiny else 5
    for _ in range(repeats):
        t0 = perf_counter()
        wl.setup()
        result.setup_times.append(perf_counter() - t0)
    result.listing = wl.listing
    tasks = wl.tasks()
    result.n_tasks = len(tasks)
    if trace:
        _traced_loop(wl, tasks, seconds, result, spans_path)
    else:
        start = perf_counter()
        i = 0
        task_total = ref_total = 0.0
        while True:
            dt = _attempt(tasks[i % len(tasks)], result, i)
            result.latencies.append(dt)
            result.task_index.append(i % len(tasks))
            task_total += dt
            i += 1
            while ref_total < REF_SHARE * task_total:
                t0 = perf_counter()
                reference_work()
                result.ref_times.append(perf_counter() - t0)
                ref_total += result.ref_times[-1]
            elapsed = perf_counter() - start
            if elapsed + elapsed / i > seconds:
                break
        result.elapsed = elapsed
    return result


def _traced_loop(wl: Workload, tasks: list[Task], seconds: float, result: Result,
                 spans_path: Path | None) -> None:
    """Whole passes over the task list run untraced, then are replayed under
    the tracer; the ratio of the two is the tracing overhead.  Layer metrics
    are means over whole passes, so their counts repeat exactly."""
    tracer = Tracer()
    counts: dict[str, int] = {}
    setup_counts: dict[str, int] = {}
    roots: dict[int, int] = {}  # unit -> index of its root span

    def traced(unit: int, root: str, fn):
        tracer.current_unit = unit
        before = tracer.count_snapshot()
        tracer.install()
        try:
            roots[unit] = idx = tracer.open(root)
            try:
                return fn()
            finally:
                tracer.close(idx)
        finally:
            tracer.remove()
            after = tracer.count_snapshot()
            target = setup_counts if unit == SETUP_UNIT else counts
            for k, v in after.items():
                target[k] = target.get(k, 0) + v - before.get(k, 0)

    def run_traced(unit: int, task: Task, what: str) -> float:
        """Run one task traced, check it; return its traced time."""
        try:
            out = traced(unit, "cli", task.run)
        except Exception:  # reported as a failed task
            out, err = None, traceback.format_exc(limit=3)
        else:
            err = None
        result.attempted += 1
        msg = err or task.check(out)
        if msg is None and task.trace_check is not None:
            msg = task.trace_check(tracer.builds.get(unit, []))
        if msg:
            result.failures.append(f"{what} ({task.label}): {msg}")
        return tracer.end[roots[unit]] - tracer.start[roots[unit]]

    traced(SETUP_UNIT, "setup", wl.traced_setup)
    start = perf_counter()
    i = 0
    untraced = traced_total = 0.0
    while True:
        block = range(i, i + len(tasks))
        for j in block:
            untraced += _attempt(tasks[j % len(tasks)], result, j)
        i += len(tasks)
        for j in block:
            result.traced_latencies.append(
                run_traced(j, tasks[j % len(tasks)], f"traced task {j}"))
        traced_total += sum(result.traced_latencies[-len(tasks):])
        elapsed = perf_counter() - start
        if elapsed + elapsed / i * len(tasks) > seconds:
            break
    result.elapsed = elapsed
    anchor = wl.anchor()
    if anchor is not None:
        run_traced(ANCHOR_UNIT, anchor, "anchor")
    if spans_path is not None:
        tracer.write(spans_path)
    _layer_metrics(wl, tasks, tracer, result, counts, setup_counts, traced_total / untraced - 1)


def _layer_metrics(wl: Workload, tasks: list[Task], tracer: Tracer, result: Result,
                   counts: dict[str, int], setup_counts: dict[str, int],
                   overhead: float) -> None:
    spans = tracer.self_times()
    task_units = [u for u in spans if u >= 0]
    n = len(task_units)
    setup = spans.get(SETUP_UNIT, {})

    def span(name: str, field_: int = 0) -> float:
        """Per-task mean, or the set-up total for a layer only set-up runs."""
        total = sum(spans[u][name][field_] for u in task_units if name in spans[u])
        return total / n if total else setup.get(name, (0.0, 0, 0.0))[field_]

    def count(key: str) -> float:
        return counts.get(key, 0) / n if counts.get(key) else setup_counts.get(key, 0)

    task_builds = [b for u in task_units for b in tracer.builds.get(u, [])]
    builds, per = (task_builds, n) if task_builds else (tracer.builds.get(SETUP_UNIT, []), 1)

    def engine(key: str) -> float:
        return sum(b[key] for b in builds) / per

    rels = [tracer.presentation_relations.get(u, 0) for u in task_units]
    rows = sum(b["rows"] for b in builds)
    m = {
        "cli.self_s": span("cli"),
        "parsing.parse_s": span("parsing.parse"),
        "free_algebra.poly_text_s": span("free_algebra.poly_text"),
        "free_algebra.substitute_s": span("free_algebra.substitute"),
        "free_algebra.poly_new": count("free_algebra.poly_new"),
        "free_algebra.poly_ops": count("free_algebra.poly_ops"),
        "presentations.build_s": span("presentations.build"),
        "presentations.calls": span("presentations.build", 1),
        "presentations.relations": (sum(rels) / n if any(rels) else
                                    tracer.presentation_relations.get(SETUP_UNIT, 0)),
        "quotient_engine.build_s": span("quotient_engine.build", 2),
        "quotient_engine.insert_s": span("quotient_engine.insert"),
        "quotient_engine.rowgen_s": span("quotient_engine.build"),
        "quotient_engine.query_s": span("quotient_engine.query"),
        "quotient_engine.rows": engine("rows"),
        "quotient_engine.rank": engine("rank"),
        "quotient_engine.useful_row_ratio": (sum(b["rank"] for b in builds) / rows
                                             if rows else 0.0),
        "quotient_engine.stored_nnz": engine("stored_nnz"),
        "quotient_engine.nonint_entries": engine("nonint_entries"),
        "quotient_engine.max_coeff_bits": max((b["max_coeff_bits"] for b in builds),
                                              default=0),
    }
    for check in CHECK_NAMES:
        m[f"verifier.{check}_s"] = span(f"verifier.{check}")
    task_time = sum(result.traced_latencies)
    self_total = sum(row[0] for u in task_units for row in spans[u].values())
    m["trace.tasks"] = n
    m["trace.coverage"] = self_total / task_time
    m["trace.overhead_ratio"] = overhead
    result.layers = m

    merged: dict[str, list[float]] = {}
    for u in task_units:
        for name, (self_s, calls, _) in spans[u].items():
            row = merged.setdefault(name, [0.0, 0])
            row[0] += self_s
            row[1] += calls
    result.span_report = merged
    required = wl.setup_spans.union(*(tasks[u % len(tasks)].spans for u in task_units))
    for missing in sorted(required - set(merged) - set(setup)):
        result.check_errors.append(f"span {missing} recorded no calls")
