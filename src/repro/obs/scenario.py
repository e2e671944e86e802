"""Deterministic simulated serving scenarios for the trace tooling.

``python -m repro trace`` needs a run that is *interesting* (joins,
preemptions, evictions, dense/sparse cadence) yet **byte-deterministic**
— so everything here runs in simulated time: servers read a
:class:`~repro.cluster.replica.SimClock`, every step is priced by
:meth:`~repro.cluster.replica.ServiceTimeModel.price` (the hw model),
and request arrivals are laid out on a fixed grid derived from those
prices. No wall clock enters anywhere, which is why the exported trace
and metrics are identical across same-seed runs.

One driver, :func:`drain_simulated`, moves every such server: it
submits each arrival once the clock reaches it and advances the clock
through the server's own reported step durations. The scenario feeds
it the grid; ``python -m repro serve --simulate`` installs the same
clock and price hook on a real (executing) server and drains it.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.cluster.replica import ServiceTimeModel, SimClock, make_accelerator
from repro.core.config import ExionConfig
from repro.obs.observer import Observer
from repro.serve.continuous import ContinuousPolicy, ContinuousServer
from repro.workloads.specs import get_spec

#: Priority cycle applied to scenario requests (STANDARD, STANDARD,
#: INTERACTIVE, BATCH): the interactive arrival lands on a full batch
#: and exercises boundary preemption.
_PRIORITY_CYCLE = (1, 1, 2, 0)
#: Tenants cycled through by scenario requests (weighted 2:1).
SCENARIO_TENANTS = {"alpha": 2.0, "beta": 1.0}
#: Minimum clock advance when a step served nothing (expiry-only
#: rebalances); keeps the drive loop live without distorting timing.
_IDLE_ADVANCE_S = 1e-6


def drain_simulated(server: ContinuousServer, clock: SimClock,
                    arrivals=(), submit=None) -> list:
    """Drive a simulated-time server until every arrival is submitted
    and the server is drained; results come back ordered by request id.

    ``submit(i)`` runs once ``clock.now >= arrivals[i]`` (ascending
    instants); an idle server jumps the clock to the next arrival. After
    each step the clock moves past it: by its reported duration, or —
    nothing ran — past the max-wait window of a pending batch.
    """
    results = []
    due = 0
    while due < len(arrivals) or server.has_work:
        while due < len(arrivals) and arrivals[due] <= clock.now:
            submit(due)
            due += 1
        if not server.has_work:
            clock.now = arrivals[due]
            continue
        results.extend(server.step(now=clock.now))
        clock.now += server.last_tick_s or max(
            server.policy.max_wait_s, _IDLE_ADVANCE_S
        )
    return sorted(results, key=lambda r: r.request_id)


def run_trace_scenario(
    model: str = "dit",
    ablation: str = "all",
    accelerator: str = "exion24",
    continuous: bool = True,
    requests: int = 8,
    iterations: Optional[int] = None,
    batch_size: int = 2,
    seed: int = 0,
    observer: Optional[Observer] = None,
    cold_start: bool = False,
) -> dict:
    """Run one deterministic dry-run serving scenario under an observer.

    Requests arrive on a grid spaced by the hw tick price, cycling
    tenants, priorities and (every fifth request) a tight deadline — so
    a short run still produces joins, preemptions, expiries and both
    phase colors. Returns a key-sorted summary dict; the trace and
    metrics accumulate on ``observer``.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    if observer is None:
        observer = Observer()
    clock = SimClock()
    service_model = ServiceTimeModel(accelerator, iterations=iterations)
    config = ExionConfig.for_model(model).ablation(ablation)
    drain = not continuous

    server = ContinuousServer(
        model,
        config=config,
        policy=ContinuousPolicy(max_batch_size=batch_size, drain=drain),
        tenant_weights=SCENARIO_TENANTS,
        total_iterations=iterations,
        clock=clock,
        price=functools.partial(service_model.price, model, ablation),
        cold_start_s=(
            service_model.price(model, ablation, 1, "cold").seconds
            if cold_start
            else None
        ),
        dry_run=True,
        observer=observer,
    )
    if drain:
        gap = 0.25 * service_model.latency_s(model, ablation, 1)
    else:
        gap = 2.0 * service_model.price(model, ablation, 1, "dense").seconds

    tenants = sorted(SCENARIO_TENANTS)

    def submit(i: int) -> None:
        server.submit(
            seed=seed + i,
            tenant=tenants[i % len(tenants)],
            priority=_PRIORITY_CYCLE[i % len(_PRIORITY_CYCLE)],
            deadline_s=(
                clock.now + 3.0 * gap if continuous and i % 5 == 4 else None
            ),
        )

    drain_simulated(server, clock, [i * gap for i in range(requests)], submit)

    # The hardware timeline of one generation rides along as its own
    # track: the per-iteration dense/sparse phase segments the paper's
    # figures are drawn from.
    from repro.hw.timeline import simulate_timeline

    timeline = simulate_timeline(
        make_accelerator(accelerator),
        get_spec(model),
        config=config,
        iterations=iterations,
    )
    observer.observe_timeline(timeline)

    report = server.report()
    summary = {
        "accelerator": accelerator,
        "ablation": ablation,
        "continuous": continuous,
        "horizon_s": clock.now,
        "model": model,
        "requests": requests,
        "requests_served": report.requests_served,
        "requests_expired": report.requests_expired,
        "busy_s": report.busy_s,
        "spans": len(observer.tracer.spans),
        "events": len(observer.tracer.events),
        "tracks": observer.tracer.tracks(),
    }
    if continuous:
        summary.update(
            ticks=report.ticks,
            joins=report.joins,
            preemptions=report.preemptions,
            deadline_evictions=report.deadline_evictions,
            mean_occupancy=report.mean_occupancy,
        )
    else:
        summary.update(
            batches_served=report.ticks,
            mean_batch_size=report.mean_batch_size,
        )
    return dict(sorted(summary.items()))


__all__ = [
    "SCENARIO_TENANTS",
    "drain_simulated",
    "run_trace_scenario",
]
