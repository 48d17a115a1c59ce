"""Self-tests of the benchmark: seeded inputs, tiny runs, oracles, names."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import ncomplex  # noqa: E402
import reference  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _listing(name: str, seed: int, workdir: Path) -> list[str]:
    tiny = name == "membership"  # the full query pool takes ~0.5 s to build
    wl = workloads.WORKLOADS[name](seed, workdir, tiny=tiny)
    wl.setup()
    return wl.listing


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    first = _listing(name, 7, tmp_path)
    assert first == _listing(name, 7, tmp_path)
    assert first != _listing(name, 8, tmp_path)


def _namespaces() -> dict[str, dict]:
    """Every name the tracer may patch: module globals and class methods."""
    out = {m: dict(vars(mod)) for m, mod in sys.modules.items()
           if m == "ncomplex" or m.startswith("ncomplex.")}
    for cls in (ncomplex.Poly, ncomplex.TruncatedIdealBasis,
                ncomplex.quotient_engine.Echelon):
        out[cls.__qualname__] = dict(vars(cls))
    return out


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_has_no_failures(name, trace, tmp_path):
    before = _namespaces()
    result = workloads.run_workload(name, 3, 0.2, trace, tmp_path, tiny=True)
    assert result.attempted >= 1
    assert result.failures == []
    assert result.check_errors == []
    if trace:
        assert set(result.layers) == {n for n, *_ in spec.PER_LAYER}
        assert result.layers["trace.coverage"] == pytest.approx(1.0)
    else:
        assert len(result.latencies) == len(result.task_index) == result.attempted
        assert result.ref_times, "the reference computation never ran"
    assert _namespaces() == before, "the tracer left a patched name behind"


def test_tracer_patches_names_bound_at_import():
    t = tracer.Tracer()
    originals = (ncomplex.cli.qF_presentation, ncomplex.verifier.substitute,
                 ncomplex.cli.parse_poly, ncomplex.verifier.graph_presentation)
    t.install()
    try:
        patched = (ncomplex.cli.qF_presentation, ncomplex.verifier.substitute,
                   ncomplex.cli.parse_poly, ncomplex.verifier.graph_presentation)
        assert all(a is not b for a, b in zip(originals, patched))
        assert ncomplex.cli.qF_presentation is ncomplex.presentations.qF_presentation
    finally:
        t.remove()
    assert ncomplex.cli.qF_presentation is originals[0]


def test_oracles_reject_wrong_answers():
    assert workloads.qn_series(3, 5) == [1, 7, 44, 274, 1705, 10609]
    assert workloads.qn_series(4, 3) == [1, 15, 208, 2872]
    check = workloads._check_dims([1, 9, 56, 304])
    assert check((0, '{"dims":[1,9,56,304]}', "")) is None
    assert check((0, '{"dims":[1,9,56,305]}', "")) is not None
    assert check((2, "", "error: x")) is not None
    g = ncomplex.complete_graph(3)
    pres = ncomplex.graph_presentation(g)
    k = len(pres.alphabet)
    dims = ncomplex.graded_dimension(pres, 2)
    assert dims == [1, k, k * k - workloads.quadratic_rank(pres.relations)]
    rows = workloads._check_rows(3, 73346, 29487)
    assert rows([{"rows_by_degree": [0, 22, 1524, 73346],
                  "rank_by_degree": [0, 22, 1524, 29487]}]) is None
    assert rows([{"rows_by_degree": [0, 22, 1524, 73000],
                  "rank_by_degree": [0, 22, 1524, 29487]}]) is not None


def test_orbit_lists_every_labelling_once():
    cycle = workloads.orbit([(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    labelled = [tuple(g.sorted_edges()) for g in cycle]
    assert len(labelled) == len(set(labelled)) == 3
    assert len(workloads.orbit([(1, 2), (1, 3), (1, 4)], 4)) == 4


def test_reference_is_independent_of_the_package():
    source = (HERE / "reference.py").read_text()
    assert not re.search(r"^\s*(import|from)\s+\.?ncomplex", source, re.M)
    assert reference.reference_work() == reference.reference_work()


def test_membership_oracle_catches_a_wrong_remainder(tmp_path):
    wl = workloads.Membership(3, tmp_path, tiny=True)
    wl.setup()
    tasks = wl.tasks()
    member = next(i for i, (_, e) in enumerate(wl.queries) if e == "member")
    assert tasks[member].check("0") is None
    assert tasks[member].check("u({1})") is not None
    pair = next(i for i, (_, e) in enumerate(wl.queries) if isinstance(e, int))
    assert tasks[pair - 1].check("u({1})") is None  # the q the pair refers to
    assert tasks[pair].check("u({2})") is not None


def test_metric_names_and_benchmark_json():
    names = [n for n, *_ in spec.END_TO_END] + [n for n, *_ in spec.PER_LAYER]
    names += list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [u for _, u, *_ in spec.END_TO_END] + [u for _, u, *_ in spec.PER_LAYER]
    assert all(UNIT.match(u) for u in units)
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert spec.CHECKS == ncomplex.verifier.CHECK_NAMES


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "membership", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "ncomplex" in proc.stderr
