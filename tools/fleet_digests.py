#!/usr/bin/env python
"""Byte-identity grid of the fleet simulator: one sha256 per artefact.

Run at two commits and diff the output: an unchanged line is a
byte-identical artefact. Cells run in drain and in continuous mode.
``--src DIR`` imports another checkout (``BatchingPolicy`` commits too)::

    python tools/fleet_digests.py > change.txt
    python tools/fleet_digests.py --src /path/to/parent/src > parent.txt
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--src", default=Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(parser.parse_args().src))

from repro import serve  # noqa: E402
from repro.cluster import (  # noqa: E402
    MMPPProcess, PoissonProcess, SLOPolicy, build_replicas, make_router,
    simulate_cluster, synthesize_trace,
)
from repro.obs import Observer, chrome_trace_json, run_trace_scenario  # noqa: E402
from repro.obs.analyze import analyze_tracer  # noqa: E402


def drain_policy(**knobs):
    if hasattr(serve, "BatchingPolicy"):  # commits before the server collapse
        return serve.BatchingPolicy(**knobs)
    return serve.ContinuousPolicy(drain=True, **knobs)


def emit(cell: str, text: str) -> None:
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {cell}")


def emit_observed(cell: str, tracer) -> None:
    emit(f"{cell}/trace", chrome_trace_json(tracer))
    emit(f"{cell}/analysis", analyze_tracer(tracer).to_json())


def fleet(name, trace, continuous, replicas, router="jsq", slo=None,
          policy=None, observer=None):
    cell = f"{name}/{'continuous' if continuous else 'drain'}"
    members = build_replicas(replicas, accelerator="exion24", policy=policy,
                             continuous=continuous)
    report = simulate_cluster(trace, members, make_router(router), slo=slo,
                              observer=observer)
    emit(f"{cell}/report", report.to_json())
    if observer is not None:
        emit_observed(cell, observer.tracer)


def main() -> None:
    poisson = synthesize_trace(PoissonProcess(300.0), 240, rng=1)
    bursty = synthesize_trace(MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 240,
                              rng=2, deadline_s=2.0)
    for continuous in (False, True):
        fleet("poisson300-jsq4", poisson, continuous, 4)
        fleet("poisson300-affinity2", poisson, continuous, 2, "cache_affinity")
        for replicas in (4, 2):  # 2 replicas: deadline drops in both modes
            fleet(f"mmpp-deadline2s-jsq{replicas}", bursty, continuous,
                  replicas, slo=SLOPolicy(latency_target_s=2.0))
        fleet("poisson300-slo-1", poisson, continuous, 1,
              slo=SLOPolicy(timeout_s=1.0, max_queue_depth=16))
        fleet("poisson300-observed-jsq2", poisson, continuous, 2, observer=Observer())
    fleet("poisson300-maxwait50ms-jsq4", poisson, False, 4,
          policy=drain_policy(max_batch_size=8, max_wait_s=0.05))
    observer = Observer()
    summary = run_trace_scenario(continuous=True, iterations=12, observer=observer)
    emit("scenario/continuous/summary", json.dumps(summary, sort_keys=True))
    emit_observed("scenario/continuous", observer.tracer)


if __name__ == "__main__":
    main()
