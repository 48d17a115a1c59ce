"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root repeats the names, units and
directions declared here (a self-test keeps the two in step).  It has no
field for the workload a layer metric should move, so that mapping lives
only here, in ``PER_LAYER``.
"""

from __future__ import annotations

WORKLOADS = {
    "hilbert-qf": "CLI hilbert, qF presentation, 4-node graphs at d=3 (k=15): "
                  "row generation and rel_4 building dominate, not Echelon.insert",
    "hilbert-deep": "CLI hilbert at d=4..6 on small alphabets (Q_3, Q_2, every "
                    "labelling of C4 and K_1,3): Fraction arithmetic in Echelon.insert dominates",
    "verify": "CLI verify --complex --checks X on 4-node graphs, each of the seven "
              "checks in turn: Poly construction, substitute and presentation building",
    "membership": "query session on one qF basis of a 4-node 2-complex at d=3: "
                  "parse, reduce and print with non-integer coefficients; tail latency",
}

# (name, unit, better, bound).  The two task metrics are in multiples of the
# reference computation's mean time in the same run (unit "ref", see
# reference.py): tasks completed per reference time, and the geometric mean
# over the task list of each task's mean latency.  On a shared 2-vCPU host
# the speed swings by up to twice within seconds, and seconds follow it;
# set-up time is a median of seconds, so it keeps the widest bound, and
# memory barely moves.
END_TO_END = [
    ("throughput_ref", "1/ref", "higher", 0.25),
    ("latency_geomean_ref", "ref", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

# Also printed, but not in BENCHMARK.json: the plain wall-clock
# throughput_per_s and latency_p50_ms over every run, which follow the host's
# speed; latency_p90_ms, which needs at least 100 samples, which only
# membership has; and failed_ratio, which is 0 on a good run (the result's
# "failed" and "attempted" fields carry it).

# ncomplex.verifier.CHECK_NAMES (a self-test keeps them equal)
CHECKS = ("basis_lemma", "eq3_welldefined", "corollary", "commutative_case",
          "proposition", "theorem", "presentation_equivalence")

# (name, unit, better, what it should move).  Times are self times per
# traced task, except quotient_engine.build_s, which is inclusive.  A layer
# that runs only during set-up (the basis build on membership) reports its
# set-up total instead of a per-task mean.
PER_LAYER = [
    ("cli.self_s", "s", "lower",
     "catch-all on every workload: argparse, file read, JSON output, glue"),
    ("parsing.parse_s", "s", "lower", "throughput_ref on membership"),
    ("free_algebra.poly_text_s", "s", "lower", "throughput_ref on membership"),
    ("free_algebra.substitute_s", "s", "lower", "latency_geomean_ref on verify"),
    ("free_algebra.poly_new", "count", "lower", "latency_geomean_ref on verify"),
    ("free_algebra.poly_ops", "count", "lower", "latency_geomean_ref on verify"),
    ("presentations.build_s", "s", "lower",
     "latency_geomean_ref on verify and hilbert-qf"),
    ("presentations.calls", "count", "lower", "latency_geomean_ref on verify"),
    ("presentations.relations", "count", "lower",
     "latency_geomean_ref on hilbert-qf and verify"),
    ("quotient_engine.build_s", "s", "lower",
     "latency_geomean_ref on hilbert-qf and hilbert-deep; setup_s on membership"),
    ("quotient_engine.insert_s", "s", "lower", "latency_geomean_ref on hilbert-deep"),
    ("quotient_engine.rowgen_s", "s", "lower", "latency_geomean_ref on hilbert-qf"),
    ("quotient_engine.query_s", "s", "lower",
     "throughput_ref and latency_p90_ms on membership"),
    ("quotient_engine.rows", "count", "lower", "latency_geomean_ref on hilbert-qf"),
    ("quotient_engine.rank", "count", "lower", "latency_geomean_ref on hilbert-deep"),
    ("quotient_engine.useful_row_ratio", "ratio", "higher",
     "latency_geomean_ref on hilbert-qf"),
    ("quotient_engine.stored_nnz", "count", "lower", "peak_rss_mb on every workload"),
    ("quotient_engine.nonint_entries", "count", "lower",
     "latency_geomean_ref on hilbert-deep; throughput_ref on membership"),
    ("quotient_engine.max_coeff_bits", "bits", "lower",
     "latency_geomean_ref on hilbert-deep; throughput_ref on membership"),
] + [
    (f"verifier.{check}_s", "s", "lower", "latency_geomean_ref on verify")
    for check in CHECKS
] + [
    ("trace.tasks", "count", "higher", "none: number of traced tasks"),
    ("trace.coverage", "ratio", "higher",
     "none: layer self times over traced task time, 1 when spans nest"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced time of the same tasks, minus 1"),
]


#: seconds one run measures
RUN_SECONDS = 25


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }

