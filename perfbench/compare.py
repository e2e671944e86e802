"""``python -m perfbench.compare A.json B.json``: did B change anything?

A and B are combined result files of ``python -m perfbench`` (A is the
base: every ratio is B over A). One row per workload and end-to-end
metric reads improved, unchanged, regressed or unresolved; changed output
digests and changed exact counts are flagged beside them.

``--pairs N PARENT_DIR CHANGE_DIR --workload W`` instead runs the
benchmark in two checkouts, alternating which side goes first, and
applies the nine-tenths-of-pairs rule to each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from perfbench.spec import BETTER, E2E_NAMES, RUN_SECONDS, WORKLOAD_NAMES
from perfbench.stats import quartiles, spread
from perfbench.suite import metric_values


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(base: list, change: list, better: str, bound: float) -> dict:
    """One row: the change's runs against the base's, under ``bound``.

    Unresolved means the run-to-run spread is wider than the bound and
    neither side reads better on every run; within the bound is unchanged.
    """
    base_median, change_median = statistics.median(base), statistics.median(change)
    ratio = change_median / base_median
    widest = max(spread(base), spread(change))
    wider = widest > bound
    change_sweeps = all(_beats(c, b, better) for c in change for b in base)
    base_sweeps = all(_beats(b, c, better) for c in change for b in base)
    if wider and not (change_sweeps or base_sweeps):
        word = "unresolved"
    elif abs(ratio - 1.0) <= bound and not wider:
        word = "unchanged"
    else:
        word = "improved" if _beats(change_median, base_median, better) else "regressed"
    return {"verdict": word, "ratio": ratio, "base_median": base_median,
            "change_median": change_median, "spread": widest}


def pair_verdict(base: list, change: list, better: str) -> dict:
    """Pairs rule: a gain when the change wins at least nine tenths of the
    pairs (ties count for neither) and the medians differ by more than the
    distance between the base's quartiles."""
    wins = sum(_beats(c, b, better) for b, c in zip(base, change))
    losses = sum(_beats(b, c, better) for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    beyond_noise = abs(change_median - base_median) > (q3 - q1)
    if wins >= 0.9 * len(base) and beyond_noise:
        word = "gain"
    elif losses >= 0.9 * len(base) and beyond_noise:
        word = "loss"
    else:
        word = "no claim"
    return {"verdict": word, "wins": wins, "losses": losses, "pairs": len(base),
            "ratio": change_median / base_median, "base_median": base_median,
            "change_median": change_median, "base_iqr": q3 - q1}


def _runs(results: dict, workload: str) -> tuple:
    untraced, traced = [], []
    for one in results["sets"]:
        untraced += one[workload]["untraced"]
        traced.append(one[workload]["traced"])
    return untraced, traced


def compare_results(base: dict, change: dict) -> dict:
    """Rows per workload and metric, plus every changed digest and count."""
    rows, changed = [], []
    bounds = base["bounds"]
    for workload in WORKLOAD_NAMES:
        base_runs, base_traced = _runs(base, workload)
        change_runs, change_traced = _runs(change, workload)
        for metric in E2E_NAMES:
            row = verdict(
                metric_values(base_runs, metric), metric_values(change_runs, metric),
                BETTER[metric], bounds[metric],
            )
            rows.append({"workload": workload, "metric": metric,
                         "bound": bounds[metric], **row})
        # Same seed and mode: outputs and exact counts must not move.
        theirs = {(d["seed"], d["trace"]): d for d in change_runs + change_traced}
        for doc in base_runs + base_traced:
            other = theirs.get((doc["seed"], doc["trace"]))
            if other is None or doc["ops"] != other["ops"]:
                continue
            for key in ("output_digests", "plan_digests", "exact"):
                for name in sorted(set(doc[key]) | set(other[key])):
                    if doc[key].get(name) != other[key].get(name):
                        changed.append(
                            f"{workload} seed={doc['seed']} trace={doc['trace']} "
                            f"{key}.{name}: {doc[key].get(name)} -> {other[key].get(name)}")
    return {"rows": rows, "changed": sorted(set(changed))}


def print_comparison(comparison: dict) -> None:
    print(f"{'workload':16s} {'metric':12s} {'verdict':10s} {'B/A':>7s} "
          f"{'A median':>12s} {'B median':>12s} {'spread':>7s} {'bound':>6s}")
    for row in comparison["rows"]:
        print(f"{row['workload']:16s} {row['metric']:12s} {row['verdict']:10s} "
              f"{row['ratio']:7.3f} {row['base_median']:12.6g} "
              f"{row['change_median']:12.6g} {row['spread']:7.2%} {row['bound']:6.2f}")
    for line in comparison["changed"]:
        print(f"CHANGED {line}")


def _run_in(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def run_pairs(parent: str, change: str, workload: str, pairs: int, seed: int,
              seconds: float) -> list:
    base, new = [], []
    for index in range(pairs):
        order = (parent, change) if index % 2 == 0 else (change, parent)
        got = {side: _run_in(side, workload, seed + index, seconds) for side in order}
        base.append(got[parent])
        new.append(got[change])
    return [
        {"workload": workload, "metric": metric,
         **pair_verdict([m[metric]["value"] for m in base],
                        [m[metric]["value"] for m in new], BETTER[metric])}
        for metric in E2E_NAMES
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.compare", description=__doc__)
    parser.add_argument("base", help="results JSON, or the parent checkout with --pairs")
    parser.add_argument("change", help="results JSON, or the changed checkout with --pairs")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    args = parser.parse_args(argv)
    if args.pairs:
        if args.workload is None:
            parser.error("--pairs needs --workload")
        rows = run_pairs(args.base, args.change, args.workload, args.pairs,
                         args.seed, args.seconds)
        for row in rows:
            print(f"{row['workload']:16s} {row['metric']:12s} {row['verdict']:9s} "
                  f"change won {row['wins']} and lost {row['losses']} of {row['pairs']} pairs; "
                  f"change/parent {row['ratio']:.3f} (parent median {row['base_median']:.6g}, "
                  f"parent IQR {row['base_iqr']:.3g})")
        return 0
    with open(args.base) as a, open(args.change) as b:
        comparison = compare_results(json.load(a), json.load(b))
    print_comparison(comparison)
    bad = comparison["changed"] or any(r["verdict"] == "regressed" for r in comparison["rows"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
