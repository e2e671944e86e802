#!/usr/bin/env python
"""Byte-identity grid of the fleet simulator: one sha256 per artefact.

An unchanged line is a byte-identical artefact. Cells run in drain and
in continuous mode. The expected output is committed next to this file
(``fleet_digests.txt``); a PR that means to change an artefact shows the
changed hash in its diff. ``--src DIR`` imports another checkout::

    python tools/fleet_digests.py                  # print the lines
    python tools/fleet_digests.py --check          # ... and diff, exit 1
    python tools/fleet_digests.py --update         # rewrite the file
    python tools/fleet_digests.py --src /path/to/parent/src > parent.txt
"""

import argparse
import difflib
import functools
import hashlib
import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).with_suffix(".txt")

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--src", default=Path(__file__).resolve().parents[1] / "src")
parser.add_argument("--check", action="store_true",
                    help=f"diff against {EXPECTED.name}; exit 1 on any difference")
parser.add_argument("--update", action="store_true",
                    help=f"rewrite {EXPECTED.name} with this run's output")
ARGS = parser.parse_args()
sys.path.insert(0, str(ARGS.src))

from repro import serve  # noqa: E402
from repro.cluster import (  # noqa: E402
    MMPPProcess, PoissonProcess, ServiceTimeModel, SimClock, SLOPolicy,
    build_replicas, make_router, simulate_cluster, synthesize_trace,
)
from repro.obs import Observer, chrome_trace_json, run_trace_scenario, scenario  # noqa: E402
from repro.obs.analyze import analyze_tracer  # noqa: E402

LINES: list = []


def emit(cell: str, text: str) -> None:
    LINES.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {cell}")
    print(LINES[-1])


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


def trace_scenario(cell, **knobs):
    observer = Observer()
    summary = run_trace_scenario(iterations=12, observer=observer, **knobs)
    emit(f"{cell}/summary", json.dumps(summary, sort_keys=True))
    emit_observed(cell, observer.tracer)


def simulated_server(continuous):
    """A dry server on a simulated clock, driven as ``serve --simulate``
    drives it: every request queued at t=0, then drained tick by tick."""
    clock = SimClock()
    server = serve.ContinuousServer(
        "dit",
        policy=serve.ContinuousPolicy(max_batch_size=4, drain=not continuous),
        tenant_weights={"alice": 2.0, "bob": 1.0}, total_iterations=12,
        clock=clock, dry_run=True,
        price=functools.partial(ServiceTimeModel("exion24", iterations=12).price,
                                "dit", "all"),
    )
    for i in range(10):
        server.submit(seed=i, tenant=("alice", "bob")[i % 2])
    rows = [(r.request_id, r.batch_size, r.wait_s, r.service_s)
            for r in scenario.drain_simulated(server, clock)]
    report = server.report()
    emit(f"serve-simulate/{'continuous' if continuous else 'drain'}/rows",
         json.dumps([rows, server.events, report.busy_s, report.queue_wait_s,
                     report.latency_quantiles, clock.now], sort_keys=True))


def main() -> int:
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
    # The one observed cell whose requests carry deadlines: its trace pins
    # the `slo:deadline` event timestamps.
    for continuous in (False, True):
        fleet("mmpp-deadline2s-observed-jsq2", bursty, continuous, 2,
              slo=SLOPolicy(latency_target_s=2.0), observer=Observer())
    fleet("poisson300-maxwait50ms-jsq4", poisson, False, 4,
          policy=serve.ContinuousPolicy(drain=True, max_batch_size=8, max_wait_s=0.05))
    trace_scenario("scenario/continuous", continuous=True)
    # The pricing seam's other users: the drain scenario, the scenario's
    # cold surcharge, and a serve --simulate style server.
    trace_scenario("scenario/drain", continuous=False)
    trace_scenario("scenario/continuous+cold_start", continuous=True, cold_start=True)
    for continuous in (False, True):
        simulated_server(continuous)

    text = "".join(line + "\n" for line in LINES)
    if ARGS.update:
        EXPECTED.write_text(text)
    elif ARGS.check:
        diff = list(difflib.unified_diff(
            EXPECTED.read_text().splitlines(True), text.splitlines(True),
            EXPECTED.name, "this run"))
        sys.stderr.writelines(diff)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
