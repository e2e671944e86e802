"""Every workload, each run in its own fresh subprocess, one at a time.

A fresh process per run means the process-global ``PlanCache``, the heap
and ``ru_maxrss`` belong to that run alone. ``--sets 2 --runs 10`` is the
calibration: two back-to-back sets of ten seeds per workload, from which
the regression bounds in ``BENCHMARK.json`` are derived and against which
they are checked.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from perfbench.spec import (
    BENCHMARK_JSON,
    BETTER,
    CALIBRATION_JSON,
    E2E_NAMES,
    OUT_DIR,
    REF_SECONDS,
    ROOT,
    WORKLOAD_NAMES,
    benchmark_json,
    stored_bounds,
    validate_result,
)
from perfbench.stats import summarize

RESULTS_SCHEMA = "perfbench.results/1"
MIN_BOUND = 0.05
MAX_BOUND = 0.25  # the contract's ceiling


def run_once(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One run in a fresh subprocess; its self-describing document."""
    command = [sys.executable, "-m", "perfbench", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{name} seed={seed} trace={trace} exited {done.returncode}")
    doc = json.loads((OUT_DIR / f"result_{name}_trace{trace}.json").read_text())
    problems = validate_result(json.loads(done.stdout.strip().splitlines()[-1]), bool(trace))
    if problems:
        raise RuntimeError(f"{name}: malformed result: {problems}")
    return doc


def metric_values(untraced_docs: list, metric: str) -> list:
    return [doc["result"]["metrics"][metric]["value"] for doc in untraced_docs]


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def calibrate(sets: list) -> dict:
    """Spreads per set, gaps between the first two sets, derived bounds."""
    summary, spreads, gaps = {}, {m: 0.0 for m in E2E_NAMES}, {m: 0.0 for m in E2E_NAMES}
    worse = {}
    for name in WORKLOAD_NAMES:
        summary[name] = {}
        for metric in E2E_NAMES:
            rows = [summarize(metric_values(s[name]["untraced"], metric)) for s in sets]
            summary[name][metric] = rows
            spreads[metric] = max([spreads[metric]] + [row["spread"] for row in rows])
            first, second = rows[0]["median"], rows[1]["median"]
            gaps[metric] = max(gaps[metric], abs(second - first) / first)
            worse[f"{name}.{metric}"] = worse_by(first, second, BETTER[metric])
    bounds = {}
    for metric in E2E_NAMES:
        # A spread below a third of the bound, a set-to-set gap below half.
        wanted = max(MIN_BOUND, 3 * spreads[metric], 2 * gaps[metric])
        bounds[metric] = min(MAX_BOUND, math.ceil(wanted * 100) / 100)
    bounds["setup_s"] = max(bounds.values())  # set-up gets the largest bound
    return {"summary": summary, "spreads": spreads, "gaps": gaps,
            "worse_by": worse, "bounds": bounds}


def _identical_between_sets(sets: list) -> list:
    """Names of exact counts and digests that differ between sets (same seeds)."""
    differing = []
    first = sets[0]
    for other in sets[1:]:
        for name in WORKLOAD_NAMES:
            pairs = list(zip(first[name]["untraced"], other[name]["untraced"]))
            pairs.append((first[name]["traced"], other[name]["traced"]))
            for a, b in pairs:
                for key in ("exact", "output_digests", "plan_digests"):
                    if a[key] != b[key]:
                        differing.append(f"{name}.seed{a['seed']}.trace{a['trace']}.{key}")
    return differing


def _print_summary(sets: list, bounds: dict) -> None:
    print("\n# end-to-end summary: median [q1, q3] spread, per set")
    for name in WORKLOAD_NAMES:
        for metric in E2E_NAMES:
            cells = []
            for one in sets:
                row = summarize(metric_values(one[name]["untraced"], metric))
                cells.append(f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] "
                             f"{row['spread']:.2%} n={row['n']}")
            unit = sets[0][name]["untraced"][0]["result"]["metrics"][metric]["unit"]
            print(f"{name:16s} {metric:12s} {unit:4s} bound {bounds[metric]:.2f} | "
                  + " | ".join(cells))


def run_suite(seed: int, seconds: float, quick: bool, sets: int, runs: int,
              out: str | None) -> int:
    started = time.perf_counter()
    collected = []
    for _ in range(sets):
        one = {}
        for name in WORKLOAD_NAMES:
            one[name] = {
                "untraced": [run_once(name, seed + r, seconds, 0, quick) for r in range(runs)],
                "traced": run_once(name, seed, seconds, 1, quick),
            }
        collected.append(one)

    bounds = stored_bounds()
    problems = [
        f"{name} seed={doc['seed']} trace={doc['trace']}: "
        f"{doc['result']['failed']} of {doc['result']['attempted']} failed"
        for one in collected for name in WORKLOAD_NAMES
        for doc in one[name]["untraced"] + [one[name]["traced"]]
        if not doc["result"]["correct"]
    ]
    document = {
        "schema": RESULTS_SCHEMA,
        "environment": collected[0][WORKLOAD_NAMES[0]]["traced"]["environment"],
        "seed": seed, "seconds": seconds, "scale": seconds / REF_SECONDS,
        "runs": runs, "quick": quick, "sets": collected,
    }
    if sets >= 2:
        calibration = calibrate(collected)
        bounds = calibration["bounds"]
        differing = _identical_between_sets(collected)
        problems += [f"differs between sets: {key}" for key in differing]
        for metric in E2E_NAMES:
            if calibration["spreads"][metric] > bounds[metric]:
                problems.append(f"{metric}: spread {calibration['spreads'][metric]:.3f} "
                                f"exceeds its bound {bounds[metric]}")
        for key, share in calibration["worse_by"].items():
            if share > bounds[key.split(".", 1)[1]]:
                problems.append(f"{key}: second set worse than the first by {share:.3f}")
        if not quick:
            CALIBRATION_JSON.write_text(json.dumps({
                "environment": document["environment"], "seed": seed,
                "seconds": seconds, "scale": document["scale"], "runs": runs,
                **calibration, "differing_between_sets": differing,
            }, indent=1, sort_keys=True) + "\n")
            BENCHMARK_JSON.write_text(json.dumps(benchmark_json(bounds), indent=2) + "\n")
    document["bounds"] = bounds
    document["wall_s"] = time.perf_counter() - started

    path = Path(out) if out else OUT_DIR / "results.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    _print_summary(collected, bounds)
    print(f"# {sets} set(s) x {runs} run(s) in {document['wall_s']:.0f}s -> {path}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0
