"""Command-line front end.

Subcommands: closure, relations, hilbert, membership, verify.  Exit status 0
means success (all checks passed / the polynomial is a member), 1 means a
verification failure or non-membership, 2 means a usage or input error or
running out of memory.  All output is deterministic except the millis timing
field of verify reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import Complex, Graph, NodeSet, closure, dimension
from .free_algebra import Poly, poly_text
from .parsing import parse_poly
from .presentations import (
    graph_presentation,
    qF_presentation,
    rel_4,
    rel_5,
    rel_9,
    rel_10,
    rel_additive,
    rel_multiplicative,
)
from .quotient_engine import TruncatedIdealBasis, graded_dimension
from .verifier import CHECK_NAMES, VerifyConfig, run_all


def parse_complex_file(path: str) -> Complex:
    """Load a complex from the JSON schema {"n": int, "facets": [[int,...]]}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    try:  # not UTF-8, bad syntax, too many digits or too deep nesting
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be an object")
    unknown = set(obj) - {"n", "facets", "schema"}
    if unknown:
        raise ValueError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    if "schema" in obj and obj["schema"] != 1:
        raise ValueError(f"{path}: unsupported schema {obj['schema']!r}")
    if "n" not in obj or "facets" not in obj:
        raise ValueError(f"{path}: required keys 'n' and 'facets'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{path}: 'n' must be an integer")
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ValueError(f"{path}: 'facets' must be a list of vertex lists")
    try:
        return closure(facets, n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_node_set(flag: str, text: str, n: int) -> NodeSet:
    try:
        members = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of vertices, "
                         f"got {text!r}") from None
    return NodeSet.of(members, n)


def _cmd_closure(args) -> int:
    c = parse_complex_file(args.complex)
    lines = [f"n={c.n} dim={dimension(c)} faces={len(c.faces)}"]
    lines += [str(f) for f in c.sorted_faces()]
    print("\n".join(lines))
    return 0


def _require(args, family: str, names: list[str]) -> None:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_"), None) is None:
            raise ValueError(f"relations --family {family} requires {name}")


def _cmd_relations(args) -> int:
    fam = args.family
    if fam == "theorem":
        _require(args, fam, ["--complex"])
        g = Graph.from_complex(parse_complex_file(args.complex))
        polys = graph_presentation(g).relations
    else:
        _require(args, fam, ["--n", "--i", "--j", "--A"])
        n, i, j = args.n, args.i, args.j
        a = _parse_node_set("--A", args.A, n)
        if fam == "9":
            _require(args, fam, ["--B"])
            polys = [rel_9(a, _parse_node_set("--B", args.B, n), i, j)]
        else:
            builder = {"1": rel_additive, "2": rel_multiplicative,
                       "4": rel_4, "5": rel_5, "10": rel_10}[fam]
            polys = [builder(a, i, j)]
    print("".join(poly_text(p) + "\n" for p in polys), end="")
    return 0


def _cmd_hilbert(args) -> int:
    c = parse_complex_file(args.complex)
    if args.presentation == "graph":
        pres = graph_presentation(Graph.from_complex(c))
    else:
        pres = qF_presentation(c)
    dims = graded_dimension(pres, args.max_degree)
    print(json.dumps({"schema": 1, "label": pres.label, "dims": dims},
                     separators=(",", ":")))
    return 0


def _cmd_membership(args) -> int:
    c = parse_complex_file(args.complex)
    p = parse_poly(args.poly, c.n, max_degree=args.max_degree)
    basis = TruncatedIdealBasis(qF_presentation(c), args.max_degree)
    remainder = Poly.zero()
    for d in p.degrees():
        remainder = remainder + basis.reduce(p.graded_component(d))
    member = not remainder
    print("member" if member else "non-member")
    print(f"remainder: {poly_text(remainder)}")
    return 0 if member else 1


def _cmd_verify(args) -> int:
    if (args.complex is None) == (args.n is None):
        raise ValueError("verify needs exactly one of --complex or --n")
    complexes = () if args.complex is None else (parse_complex_file(args.complex),)
    ns = (complexes[0].n,) if complexes else (args.n,)
    # no --checks (or an empty one) leaves the choice to run_all
    checks = (tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
              if args.checks else None)
    report = run_all(VerifyConfig(checks=checks, ns=ns, complexes=complexes))
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), separators=(",", ":")))
    else:
        print(report.to_text())
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncomplex",
        description="workbench for the noncommutative algebras attached to "
                    "simplicial complexes and graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="print all faces of a complex file")
    p.add_argument("--complex", required=True, metavar="PATH")

    p = sub.add_parser("relations", help="print a relation family instance")
    p.add_argument("--family", required=True,
                   choices=["1", "2", "4", "5", "9", "10", "theorem"])
    p.add_argument("--n", type=int)
    p.add_argument("--A", metavar="LIST", help="comma-separated vertices, '' for empty")
    p.add_argument("--B", metavar="LIST", help="second set (family 9 only)")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--complex", metavar="PATH", help="graph file (family theorem)")

    p = sub.add_parser("hilbert", help="print the graded dimension table")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--presentation", choices=["qF", "graph"], default="qF")

    p = sub.add_parser("membership", help="test degree-truncated ideal membership")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--poly", required=True, metavar="EXPR")
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("verify", help="run the machine-check suite")
    p.add_argument("--complex", metavar="PATH")
    p.add_argument("--n", type=int)
    p.add_argument("--checks", metavar="LIST",
                   help=f"comma-separated subset of: {','.join(CHECK_NAMES)}")
    p.add_argument("--format", choices=["text", "json"], default="text")

    return ap


_HANDLERS = {
    "closure": _cmd_closure,
    "relations": _cmd_relations,
    "hilbert": _cmd_hilbert,
    "membership": _cmd_membership,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise ValueError("--max-degree must be >= 0")
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
