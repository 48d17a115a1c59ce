"""In-memory span tracer for the ncomplex layers.

The tracer wraps public calls of the package while it is installed and
restores them when it is removed.  Functions that other modules bind by name
at import (``from .presentations import qF_presentation`` in ``cli`` and
``verifier``) are replaced in every ``ncomplex`` module that holds them, so a
call is seen whichever module it is looked up in.

Each span records its name, start, end, parent span and the unit of work
(task) it belongs to.  Spans are kept in parallel arrays and written out at
the end.  A span's self time is its duration minus the time its direct
children cover; summed over a task, self times add up to the task's time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

from spec import CHECKS

# (module, attribute, span name).  "A.b" patches method b of class A.
SPANS = [
    ("ncomplex.parsing", "parse_poly", "parsing.parse"),
    ("ncomplex.free_algebra", "poly_text", "free_algebra.poly_text"),
    ("ncomplex.free_algebra", "substitute", "free_algebra.substitute"),
    ("ncomplex.presentations", "qF_presentation", "presentations.build"),
    ("ncomplex.presentations", "graph_presentation", "presentations.build"),
    ("ncomplex.presentations", "qn_presentation", "presentations.build"),
    ("ncomplex.quotient_engine", "TruncatedIdealBasis.__init__", "quotient_engine.build"),
    ("ncomplex.quotient_engine", "Echelon.insert", "quotient_engine.insert"),
    ("ncomplex.quotient_engine", "TruncatedIdealBasis.reduce", "quotient_engine.query"),
    ("ncomplex.quotient_engine", "TruncatedIdealBasis.contains", "quotient_engine.query"),
] + [("ncomplex.verifier", f"check_{check}", f"verifier.{check}") for check in CHECKS]

# (module, attribute, counter name): calls counted without a span
COUNTED = [
    ("ncomplex.free_algebra", "Poly.__init__", "free_algebra.poly_new"),
] + [
    ("ncomplex.free_algebra", f"Poly.{op}", "free_algebra.poly_ops")
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale")
]

#: span that holds the tracer's own bookkeeping (counter scans)
TRACER_SPAN = "tracer"


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self._stack: list[int] = []
        self.current_unit = -1
        self.counts: dict[str, list[int]] = {}
        # unit -> engine counters of each basis built in it
        self.builds: dict[int, list[dict]] = {}
        self.presentation_relations: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- patching ------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` wherever an ncomplex module
        binds it by name."""
        for modname, mod in list(sys.modules.items()):
            if modname != "ncomplex" and not modname.startswith("ncomplex."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch(self, module: str, attr: str, make) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        replacement = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, name, original))
            setattr(owner, name, replacement)
        else:
            self._replace(original, replacement)

    def _span_wrapper(self, name: str, after=None):
        open_, close = self.open, self.close

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if after is not None:
                    idx = open_(TRACER_SPAN)
                    try:
                        after(args, result)
                    finally:
                        close(idx)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _count_wrapper(self, counter: str):
        cell = self.counts.setdefault(counter, [0])

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "presentations.build": self._after_presentation,
            "quotient_engine.build": self._after_build,
        }
        try:
            for module, attr, span in SPANS:
                self._patch(module, attr, self._span_wrapper(span, after.get(span)))
            for module, attr, counter in COUNTED:
                self._patch(module, attr, self._count_wrapper(counter))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- counters read from public state -------------------------------------

    def _after_presentation(self, args, pres) -> None:
        u = self.current_unit
        self.presentation_relations[u] = (self.presentation_relations.get(u, 0)
                                          + len(pres.relations))

    def _after_build(self, args, _result) -> None:
        self.builds.setdefault(self.current_unit, []).append(engine_counters(args[0]))

    # -- results -------------------------------------------------------------

    def count_snapshot(self) -> dict[str, int]:
        return {k: v[0] for k, v in self.counts.items()}

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """unit -> span name -> [self time, calls, inclusive time]."""
        n = len(self.name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[int, dict[str, list[float]]] = {}
        names, unit, name = self.names, self.unit, self.name
        for i in range(n):
            dur = end[i] - start[i]
            row = out.setdefault(unit[i], {}).setdefault(names[name[i]], [0.0, 0, 0.0])
            row[0] += dur - child[i]
            row[1] += 1
            row[2] += dur
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tunit\tname\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.unit[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.parent[i]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")


def engine_counters(basis) -> dict[str, int]:
    """Exact counts read from a built TruncatedIdealBasis."""
    nnz = nonint = bits = 0
    for ech in basis.slices:
        for row in ech.pivots.values():
            nnz += len(row)
            for x in row.values():
                if x.denominator != 1:
                    nonint += 1
                b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
    return {
        "rows": sum(s.rows_generated for s in basis.stats),
        "rank": sum(s.rank for s in basis.stats),
        "rows_by_degree": [s.rows_generated for s in basis.stats],
        "rank_by_degree": [s.rank for s in basis.stats],
        "stored_nnz": nnz,
        "nonint_entries": nonint,
        "max_coeff_bits": bits,
    }
