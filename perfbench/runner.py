"""One workload in one process: the timed run, the traced run, the set-up probe.

A run prints every metric with its unit and ends its standard output with
the one-line result object ``BENCHMARK.json`` describes. Beside it, a
self-describing document (environment, seed, scale, plan and output
digests, exact counts, wall time) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import repro

from perfbench import probes
from perfbench.layers import profile_layers
from perfbench.refclock import RefClock
from perfbench.spans import OFF, Recorder
from perfbench.spec import (
    EXACT_NAMES,
    OUT_DIR,
    PER_LAYER_NAMES,
    REF_SECONDS,
    ROOT,
    SETUP_PROBES,
    SHARE_LAYERS,
    TRACE_OPS_SHARE,
    UNITS,
    ops_for,
)
from perfbench.stats import percentile, tail_percentile
from perfbench.workloads import WORKLOAD_CLASSES

RESULT_SCHEMA = "perfbench.result/1"
MS = 1e3
_BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkout is not a repository and reads ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "git_commit": git_commit(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in _BLAS_ENV},
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name: str, seed: int, quick: bool, t0: float) -> dict:
    """In a fresh process: from ``t0`` (taken before ``import repro``) to
    the end of the first op, whose digest the parent checks."""
    workload = WORKLOAD_CLASSES[name](seed, quick)
    workload.prepare()
    digest = workload.first_op()
    return {"setup_s": time.perf_counter() - t0, "digest": digest}


def measure_setup(name: str, seed: int, quick: bool, count: int, clock) -> list:
    """``count`` fresh subprocesses, one at a time; their probe records.
    ``clock`` samples the machine-speed reference around each of them."""
    command = [sys.executable, "-m", "perfbench", "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    records = []
    clock.sample(3)
    for _ in range(count):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            records.append({"setup_s": None, "digest": None, "error": done.stderr[-400:]})
        else:
            records.append(json.loads(done.stdout.strip().splitlines()[-1]))
        clock.sample(3)
    return records


def _document(name, seed, seconds, quick, trace, ops, wall_s, workload, result, **more):
    doc = {
        "schema": RESULT_SCHEMA,
        "workload": name,
        "trace": int(trace),
        "seed": seed,
        "seconds": seconds,
        "scale": seconds / REF_SECONDS,
        "quick": quick,
        "ops": ops,
        "wall_s": wall_s,
        "environment": environment(),
        "plan_digests": workload.plan_digests(),
        "output_digests": dict(workload.digests),
        "result": result,
    }
    doc.update(more)
    return doc


def _result(attempted: int, failed: int, values: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]} for name in values
        },
    }


def run_untraced(name: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    start = time.perf_counter()
    ops = ops_for(name, seconds, quick)
    workload = WORKLOAD_CLASSES[name](seed, quick)
    workload.prepare()
    first_digest = workload.first_op()
    workload.digests["first_op"] = first_digest

    gc.collect()
    clock = RefClock()
    outcome = workload.run(ops, clock=clock)
    rss_mb = peak_rss_mb()  # before the oracle runs: the measured path only
    checked, check_failed = workload.check(outcome)

    probes_run = 1 if quick else SETUP_PROBES
    setup_clock = RefClock()
    setups = measure_setup(name, seed, quick, probes_run, setup_clock)
    good = [r["setup_s"] for r in setups if r["digest"] == first_digest]
    setup_failed = len(setups) - len(good)
    if not good:
        raise RuntimeError(f"no set-up probe of {name} succeeded: {setups}")

    # Times are divided by how much slower than nominal the machine ran the
    # reference kernel while they were taken (see refclock).
    factor, setup_factor = clock.speed_factor(), setup_clock.speed_factor()
    raw = {
        "work_per_s": outcome.units / outcome.busy_s,
        "call_p50_ms": statistics.median(outcome.call_s) * MS,
        "setup_s": statistics.median(good),
    }
    values = {
        "work_per_s": raw["work_per_s"] * factor,
        "call_p50_ms": raw["call_p50_ms"] / factor,
        "setup_s": raw["setup_s"] / setup_factor,
        "peak_rss_mb": rss_mb,
    }
    result = _result(
        attempted=ops + checked + probes_run,
        failed=outcome.failed + check_failed + setup_failed,
        values=values,
    )
    return _document(
        name, seed, seconds, quick, False, ops, time.perf_counter() - start,
        workload, result,
        exact=outcome.exact,
        detail={
            "raw": raw,
            "speed_factor": factor,
            "setup_speed_factor": setup_factor,
            "reference_samples": len(clock.samples),
            "timed_calls": len(outcome.call_s),
            "work_units": outcome.units,
            "busy_s": outcome.busy_s,
            "setup_samples_s": [r["setup_s"] for r in setups],
            "checks": checked,
        },
    )


def run_traced(name: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The per-layer metrics: every probe, then the workload's traced passes."""
    start = time.perf_counter()
    recorder = Recorder()
    values = probes.run_all(recorder, seed, seconds / REF_SECONDS, quick)
    doc = trace_workload(name, seed, seconds, quick, recorder, values)
    doc["wall_s"] = time.perf_counter() - start
    return doc


def trace_workload(name: str, seed: int, seconds: float, quick: bool,
                   recorder: Recorder, values: dict) -> dict:
    """The workload three times on the same inputs — untraced, under
    driver-boundary spans, and under cProfile — at a third of the op
    count; ``values`` holds the probe metrics and gains the workload's."""
    start = time.perf_counter()
    ops = ops_for(name, seconds * TRACE_OPS_SHARE, quick)
    cls = WORKLOAD_CLASSES[name]

    def fresh(rec=OFF):
        workload = cls(seed, quick)
        workload.prepare(rec)
        workload.digests["first_op"] = workload.first_op(rec)
        return workload

    plain_load = fresh()
    gc.collect()
    collections = sum(s["collections"] for s in gc.get_stats())
    cpu0, wall0 = time.process_time(), time.perf_counter()
    clock = RefClock()
    plain = plain_load.run(ops, clock=clock)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    values["host.cpu_s_per_wall_s"] = cpu_s / wall_s
    values["host.speed_factor"] = clock.speed_factor()
    values["host.gc_collections"] = (
        sum(s["collections"] for s in gc.get_stats()) - collections
    )
    q = tail_percentile(len(plain.call_s))
    values["call_tail_ms"] = percentile(plain.call_s, q) * MS

    spanned = fresh(recorder).run(ops, recorder)
    values["host.trace_overhead_ratio"] = spanned.busy_s / plain.busy_s

    profiled_load = fresh()
    profile = profile_layers(lambda: profiled_load.run(ops))
    profiled = profile["value"]
    values["host.profile_residual_share"] = profile["residual_share"]
    for layer in SHARE_LAYERS:
        values[f"{layer}.self_share"] = profile["shares"][layer]
        values[f"{layer}.self_ms_per_op"] = profile["self_s"][layer] / ops * MS

    # The three passes ran the same inputs: their exact counts must agree,
    # and the determinism-backed invariants must hold.
    invariants = {
        "passes_agree": plain.exact == spanned.exact == profiled.exact
        and plain.units == spanned.units == profiled.units,
        "max_residual_ns_is_0": values["obs.analyze.max_residual_ns"] == 0,
        "steady_cache_hit_rate_is_1": values["program.cache_hit_rate_steady"] == 1.0,
    }
    failed = plain.failed + spanned.failed + profiled.failed
    failed += sum(1 for ok in invariants.values() if not ok)

    trace_path = OUT_DIR / f"trace_{name}.json"
    recorder.write(trace_path, f"perfbench {name} seed={seed}")
    result = _result(
        attempted=3 * ops + len(invariants),
        failed=failed,
        values={k: values[k] for k in PER_LAYER_NAMES},
    )
    return _document(
        name, seed, seconds, quick, True, ops, time.perf_counter() - start,
        plain_load, result,
        exact={k: values[k] for k in EXACT_NAMES},
        detail={
            "call_tail_percentile": q,
            "timed_calls": len(plain.call_s),
            "invariants": invariants,
            "profile_wall_s": profile["wall_s"],
            "profile_self_s": profile["self_s"],
            "span_self_s": recorder.self_seconds(),
            "spans": len(recorder.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
        },
    )


def print_run(doc: dict) -> None:
    """Every metric with its unit, then the result object as the last line."""
    result = doc["result"]
    kind = "traced" if doc["trace"] else "untraced"
    print(f"# perfbench {doc['workload']} {kind} seed={doc['seed']} "
          f"seconds={doc['seconds']} scale={doc['scale']:.4f} ops={doc['ops']} "
          f"wall={doc['wall_s']:.1f}s")
    for name, row in result["metrics"].items():
        print(f"{name:36s} {row['value']:>16.6g} {row['unit']}")
    if doc["trace"]:
        print(f"# layer shares sum to 1; bucketed self time is within "
              f"{result['metrics']['host.profile_residual_share']['value']:.4%} "
              f"of the profiled wall time")
    print(json.dumps(result))


def write_document(doc: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result_{doc['workload']}_trace{doc['trace']}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
