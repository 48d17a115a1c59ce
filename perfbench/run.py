"""Closed-loop benchmark of the ncomplex workbench.

Run one workload for a number of seconds and print its metrics:

    python3 perfbench/run.py --workload hilbert-qf --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics are measured (tracing off); with
``--trace 1`` whole passes over the task list run untraced and are then
replayed under the span tracer, and the per-layer metrics plus the tracing
overhead are reported.

The end-to-end task figures are in multiples of a fixed reference
computation run between the tasks (unit ``ref``, see ``reference.py``): on
a shared host whose speed swings by up to twice within seconds and drifts
over minutes, seconds mostly measure how busy the neighbours were.  The task
list runs round robin, so every task runs many times spread over the run.
The plain wall-clock figures are printed as well.
``--workload all`` runs every workload, each in a fresh process, and exits
non-zero if any answer was wrong.

The package is imported from ``src/`` beside this directory and nowhere else.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every answer was right, 1 when one was wrong and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_package(repeats: int = 5) -> float:
    """Import ncomplex from SRC several times; return the median seconds an
    import took (the package's modules are dropped before each repeat)."""
    if not (SRC / "ncomplex" / "__init__.py").is_file():
        raise ImportError(f"no ncomplex package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "ncomplex" or m.startswith("ncomplex.")]:
            del sys.modules[name]
        t0 = perf_counter()
        package = importlib.import_module("ncomplex")
        times.append(perf_counter() - t0)
    if Path(package.__file__).resolve().parent != SRC / "ncomplex":
        raise ImportError(f"ncomplex was imported from {package.__file__}, not {SRC}")
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, listing: list[str]) -> dict:
    digest = hashlib.sha256("\n".join(listing).encode()).hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": len(listing),
        "task_digest": digest,
        "task_list": listing if len(listing) <= 12 else listing[:4] + ["..."],
    }


def end_to_end(result, import_s: float) -> tuple[dict, list[str]]:
    lat = result.latencies
    n = len(lat)
    ref = statistics.fmean(result.ref_times)
    by_task: list[list[float]] = [[] for _ in range(result.n_tasks)]
    for k, x in zip(result.task_index, lat):
        by_task[k].append(x)
    means = [statistics.fmean(xs) for xs in by_task if xs]
    runs = [len(xs) for xs in by_task]
    values = {
        "throughput_ref": n / sum(lat) * ref,
        "latency_geomean_ref": math.exp(statistics.fmean(math.log(m / ref) for m in means)),
        "setup_s": import_s + statistics.median(result.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    in_refs = (f"reference mean {ref * 1e3:.4f} ms over {len(result.ref_times)} runs")
    notes = {
        "throughput_ref": f"{n} tasks in {sum(lat):.3f} s of task time; {in_refs}",
        "latency_geomean_ref": f"mean of {min(runs)}-{max(runs)} runs of each of "
                               f"{len(means)}/{result.n_tasks} tasks, geometric mean",
        "setup_s": f"median import {import_s:.4f} s + median of "
                   f"{len(result.setup_times)} input set-ups",
        "peak_rss_mb": "ru_maxrss",
    }
    lines = [f"{name:<24} {values[name]:>14.4f} {unit:<6} ({notes[name]})"
             for name, unit, _, _ in spec.END_TO_END]
    # plain wall-clock figures over every run, not in the result line
    lines.append(f"{'throughput_per_s':<24} {n / result.elapsed:>14.4f} {'1/s':<6} "
                 f"({n} tasks in {result.elapsed:.3f} s)")
    lines.append(f"{'latency_p50_ms':<24} {statistics.median(lat) * 1e3:>14.4f} "
                 f"{'ms':<6} (n={n})")
    if n >= 100:
        p90 = statistics.quantiles(lat, n=10)[8] * 1e3
        lines.append(f"{'latency_p90_ms':<24} {p90:>14.4f} {'ms':<6} (n={n})")
    else:
        lines.append(f"{'latency_p90_ms':<24} {'-':>14} {'ms':<6} (n={n} < 100, not reported)")
    ratio = len(result.failures) / result.attempted
    lines.append(f"{'failed_ratio':<24} {ratio:>14.4f} {'ratio':<6} "
                 f"({len(result.failures)}/{result.attempted})")
    return values, lines


def per_layer(result) -> list[str]:
    lines = [f"{name:<36} {result.layers[name]:>16.6f} {unit}"
             for name, unit, _, _ in spec.PER_LAYER]
    lines.append("self time by span over traced tasks (s, calls):")
    for name, (self_s, calls) in sorted(result.span_report.items(),
                                        key=lambda kv: -kv[1][0]):
        lines.append(f"  {name:<34} {self_s:>12.6f} {int(calls):>10}")
    return lines


def run_one(args) -> int:
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        spans_path = (state / f"spans-{args.workload}-seed{args.seed}.tsv"
                      if args.trace else None)
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir,
                                        spans_path=spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(args, result.listing)}))
    if args.trace:
        metrics = {name: {"value": result.layers[name], "unit": unit}
                   for name, unit, _, _ in spec.PER_LAYER}
        lines = per_layer(result) + [f"spans written to {spans_path}"]
    else:
        values, lines = end_to_end(result, import_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in spec.END_TO_END}
    print("\n".join(lines))
    for failure in result.failures[:20] + result.check_errors:
        print(f"FAILED {failure}")
    correct = not result.failures and not result.check_errors
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": len(result.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = max(status, proc.returncode)
        total["correct"] = total["correct"] and last["correct"] and proc.returncode == 0
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
