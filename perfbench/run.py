#!/usr/bin/env python3
"""qfhe benchmark: closed-loop workloads, end-to-end job metrics, traced per-module breakdown.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload eval_pure_n8 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

One client in one process sends each job as soon as the previous one has
finished and been checked. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` is a separate run that alternates traced and
untraced jobs and reports the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object. Spans, exact
counts and a full result record are written under ``perfbench/out/``.
"""
from __future__ import annotations

import os

# One client on tiny matrices: a second BLAS thread only adds scheduling noise.
# Pinned before numpy loads, and at most the number of cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import COUNTS, ROOT, Tracer, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
#: set-ups per run; setup_s is their median
SETUP_REPS = 5
#: tracebacks printed per run; later failures are only counted
MAX_TRACEBACKS = 3

END_TO_END = {
    "job_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
#: printed and recorded, but not in BENCHMARK.json: on a host with slow spells
#: lasting seconds to minutes, the tail tracks the host, and its spread across
#: seeds (up to 0.40) exceeds any bound the benchmark may set
REPORTED_ONLY = {"job_p90_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units.update({
        "job.self_ms": "ms",
        "job.self_share": "ratio",
        "trace.traced_p50_ms": "ms",
        "trace.untraced_p50_ms": "ms",
        "trace.overhead_ms": "ms",
        "check.worst_distance": "1",
        "check.count_mismatches": "count",
    })
    return units


def check_benchmark_json() -> None:
    """The metrics this script emits must be exactly those BENCHMARK.json declares."""
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in doc[key]}
        if declared != units:
            diff = sorted(set(declared.items()) ^ set(units.items()))
            raise SystemExit(f"BENCHMARK.json {key} does not match perfbench/run.py: {diff}")
    if set(WORKLOADS) != {w["name"] for w in doc["workloads"]}:
        raise SystemExit("BENCHMARK.json workloads do not match perfbench/workloads.py")


def import_qfhe():
    """A fresh import of qfhe from this checkout's src/, so set-up time includes it."""
    for name in [n for n in sys.modules if n == "qfhe" or n.startswith("qfhe.")]:
        del sys.modules[name]
    q = importlib.import_module("qfhe")
    importlib.import_module("qfhe.cli")
    if Path(q.__file__).resolve().parent != SRC / "qfhe":
        raise SystemExit(f"qfhe was imported from {q.__file__}, not from {SRC}")
    return q


def environment(loadavg) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(loadavg),
    }


class Runner:
    """Runs and checks jobs; counts attempts, failures and the worst residual."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_distance = 0.0
        self.tracebacks = 0

    def attempt(self, workload, job, span=contextlib.nullcontext()) -> float | None:
        """Milliseconds the job took, or None if it raised or failed its check."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            with span:
                out = workload.run(job)
        except Exception:  # a failing job is counted, never fatal
            self._failure()
            return None
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        try:
            ok, dist = workload.check(job, out)
        except Exception:
            self._failure()
            return None
        if math.isfinite(dist):
            self.worst_distance = max(self.worst_distance, dist)
        if not ok:
            self.failed += 1
            return None
        return elapsed_ms

    def _failure(self) -> None:
        self.failed += 1
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            traceback.print_exc(file=sys.stderr)


def set_up(cls, seed: int, workdir: str, runner: Runner):
    """Import, generate inputs, write files and warm up, SETUP_REPS times; the last set-up is kept.

    The warm-up jobs are attempted and checked like any other.
    """
    memo, times = {}, []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload = cls(import_qfhe(), seed, workdir, memo)
        runner.attempt(workload, workload.jobs[0])
        times.append(time.perf_counter() - t0)
    return workload, times


def nearest_rank(sorted_values: list[float], fraction: float) -> float:
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def measure(runner: Runner, workload, seconds: float):
    """Closed loop over the job pool until the time is up; returns successful job times in ms."""
    jobs = workload.jobs
    latencies = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        ms = runner.attempt(workload, jobs[i % len(jobs)])
        i += 1
        if ms is not None:
            latencies.append(ms)
        if time.perf_counter() >= deadline:
            return latencies


def end_to_end_metrics(runner: Runner, latencies: list[float], setup_times: list[float]):
    ordered = sorted(latencies) or [math.nan]
    p90 = nearest_rank(ordered, 0.9)
    values = {
        "job_p50_ms": statistics.median(ordered),
        "job_p90_ms": p90,
        "jobs_per_s": len(latencies) / (sum(latencies) / 1e3) if latencies else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    beyond = sum(1 for v in latencies if v > p90)
    notes = {
        "job_p50_ms": f"n={len(latencies)}",
        "job_p90_ms": f"n={len(latencies)}, {beyond} beyond (not gated)",
        "jobs_per_s": f"n={len(latencies)} jobs in {sum(latencies) / 1e3:.2f} s of job time",
        "setup_s": f"median of n={len(setup_times)} set-ups",
        "peak_rss_mb": "n=1, whole process",
        "ok_frac": f"failed_frac={runner.failed / runner.attempted:g} ({runner.failed}/{runner.attempted})",
    }
    return values, notes


def measure_traced(runner: Runner, workload, seconds: float, tracer: Tracer, tag: str):
    """Pairs of one traced and one untraced run of each job, alternating which goes first.

    Exact counts and spans come from the first traced pass over the job pool,
    so they repeat exactly for a seed; self times are means over all traced jobs.
    """
    jobs = workload.jobs
    traced_ms, untraced_ms = [], []
    first_pass_counts, first_pass_spans = None, []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < len(jobs) or time.perf_counter() < deadline:
        job = jobs[pair % len(jobs)]
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            if not traced:
                ms = runner.attempt(workload, job)
                if ms is not None:
                    untraced_ms.append(ms)
                continue
            tracer.install()
            try:
                ms = runner.attempt(workload, job, tracer.job(pair))
            finally:
                tracer.uninstall()
            if ms is not None:
                traced_ms.append(ms)
            if pair == len(jobs) - 1:
                first_pass_counts = tracer.exact_counts()
                first_pass_spans = tracer.take_spans()
            elif pair >= len(jobs):
                tracer.take_spans()  # later jobs add to the totals only
        pair += 1

    n_traced = tracer.calls[tracer.ids[ROOT]]
    self_ms = tracer.self_ms()
    values = {}
    for name in span_names():
        values[f"{name}.calls"] = first_pass_counts[f"{name}.calls"]
        values[f"{name}.self_ms"] = self_ms[name] / n_traced
    values.update({name: first_pass_counts[name] for name in COUNTS})
    traced_p50 = statistics.median(traced_ms) if traced_ms else math.nan
    untraced_p50 = statistics.median(untraced_ms) if untraced_ms else math.nan
    values.update({
        "job.self_ms": self_ms[ROOT] / n_traced,
        "job.self_share": self_ms[ROOT] / sum(traced_ms) if traced_ms else math.nan,
        "trace.traced_p50_ms": traced_p50,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "check.worst_distance": runner.worst_distance,
    })
    values["check.count_mismatches"] = compare_counts(first_pass_counts, OUT / f"counts-{tag}.json")
    notes = {name: f"total over one pass of {len(jobs)} jobs" for name in first_pass_counts}
    notes.update({f"{name}.self_ms": f"mean per traced job, n={n_traced}" for name in span_names()})
    notes["trace.overhead_ms"] = f"traced n={len(traced_ms)} minus untraced n={len(untraced_ms)}"
    spans_doc = {"names": tracer.names, "pool": len(jobs),
                 "fields": ["name", "start_ns", "end_ns", "parent", "job"], "spans": first_pass_spans}
    (OUT / f"spans-{tag}.json").write_text(json.dumps(spans_doc))
    if tracer.missing:
        print(f"# not traced (missing in qfhe): {', '.join(tracer.missing)}")
    return values, notes


def compare_counts(counts: dict, path: Path) -> int:
    """Exact-count check against the first run with this workload and seed in this checkout."""
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        print(f"# exact counts: first run for this seed, saved to {path.relative_to(REPO)}")
        return 0
    previous = json.loads(path.read_text())
    mismatched = sorted(k for k in set(previous) | set(counts) if previous.get(k) != counts.get(k))
    for name in mismatched:
        print(f"# exact-count MISMATCH {name}: previous {previous.get(name)} now {counts.get(name)}")
    print(f"# exact counts: {len(counts) - len(mismatched)}/{len(counts)} match {path.relative_to(REPO)}")
    return len(mismatched)


def run_one(args) -> int:
    loadavg = os.getloadavg()
    check_benchmark_json()
    if not (SRC / "qfhe" / "__init__.py").is_file():
        print(f"error: no qfhe package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        runner = Runner()
        workload, setup_times = set_up(WORKLOADS[args.workload], args.seed, workdir, runner)
        gc.collect()
        gc.freeze()  # inputs made in set-up stay out of the collector's scans
        latencies = []
        if args.trace:
            values, notes = measure_traced(runner, workload, args.seconds, Tracer(), tag)
            units = per_layer_units()
        else:
            latencies = measure(runner, workload, args.seconds)
            values, notes = end_to_end_metrics(runner, latencies, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(loadavg)
    mode = "traced per-layer" if args.trace else "end-to-end"
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} ({mode})")
    print(f"# env {json.dumps(env)}")
    for name, unit in {**units, **({} if args.trace else REPORTED_ONLY)}.items():
        note = notes.get(name, "")
        print(f"{name:<44} {values[name]:>14.6g} {unit:<6} {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, reported_only={k: values[k] for k in REPORTED_ONLY if k in values},
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, notes=notes, setup_times_s=setup_times,
                  job_ms=latencies)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
