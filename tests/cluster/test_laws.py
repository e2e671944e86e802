"""Queueing laws the fleet simulator must satisfy exactly.

Checked on the ``mmpp-deadline2s-observed-jsq2`` cells of
``tools/fleet_digests.py``: 240 bursty requests with 2 s deadlines on two
observed replicas, in drain and in continuous mode. Times are compared
exactly: seconds as the simulator sums them, or integer ns as the trace
analysis reads them.
"""

from collections import Counter

import pytest

from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.cluster.replica import ServiceTimeModel
from repro.obs import Observer
from repro.obs.analyze import TraceRecords, analyze_records, to_ns


@pytest.fixture(scope="module")
def cells():
    trace = synthesize_trace(MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 240,
                             rng=2, deadline_s=2.0)
    out = {}
    for continuous in (False, True):
        observer = Observer()
        replicas = build_replicas(2, accelerator="exion24",
                                  continuous=continuous)
        report = simulate_cluster(
            trace, replicas, make_router("jsq"),
            slo=SLOPolicy(latency_target_s=2.0), observer=observer,
        )
        out[continuous] = report, observer.tracer, replicas, observer.metrics
    return out


#: Every family the fold registers, and those a fleet run feeds.
FAMILIES = {
    "repro_batch_fill", "repro_batch_seconds", "repro_batches_total",
    "repro_cache_lookups_total", "repro_dispatches_total",
    "repro_membership_events_total", "repro_phase_seconds_total",
    "repro_queue_depth", "repro_replica_utilization", "repro_requests_total",
    "repro_slo_events_total", "repro_tick_seconds", "repro_ticks_total",
}
FLEET_FAMILIES = {
    "repro_batch_fill", "repro_dispatches_total", "repro_queue_depth",
    "repro_replica_utilization", "repro_requests_total",
    "repro_slo_events_total",
}


def _dispatch_spans(tracer, replica):
    return [
        span for span in tracer.spans
        if span.name.startswith("dispatch[")
        and span.track == f"replica/{replica.name}"
    ]


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_every_request_is_served_or_dropped(cells, continuous):
    report, *_ = cells[continuous]
    assert report.submitted == 240
    assert report.timeout_drops > 0  # the law is not vacuous here
    assert report.submitted == (
        report.served + report.admission_drops + report.timeout_drops
    )


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_one_slo_event_per_drop(cells, continuous):
    report, tracer, *_ = cells[continuous]
    slo_events = [e for e in tracer.events if e.name.startswith("slo:")]
    assert len(slo_events) == report.admission_drops + report.timeout_drops


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_busy_time_is_the_sum_of_dispatched_prices(cells, continuous):
    """The utilisation law: a replica is busy for exactly the priced
    seconds (plus cold-start surcharges) of the steps it dispatched."""
    _, tracer, replicas, _ = cells[continuous]
    prices = ServiceTimeModel("exion24")
    spans = 0
    for replica in replicas:
        busy_s = 0.0
        for span in _dispatch_spans(tracer, replica):
            args = span.args
            busy_s += prices.price(
                args["model"], args["ablation"], len(args["request_ids"]),
                args["phase"],
            ).seconds + args["cold_s"]
            spans += 1
        assert busy_s == replica.busy_s
    assert spans > 0


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_metrics_agree_with_the_trace(cells, continuous):
    """Every metric family is a count, sum or last value of the trace:
    the fleet fills six of the thirteen, the serving and hw ones stay
    empty."""
    report, tracer, replicas, metrics = cells[continuous]
    assert [f["name"] for f in metrics.snapshot()["families"]] == sorted(
        FAMILIES)
    for name in FAMILIES - FLEET_FAMILIES:
        assert metrics.series[name] == {}
    dispatched = metrics.series["repro_dispatches_total"]
    for replica in replicas:
        assert dispatched[(replica.name,)] == len(
            _dispatch_spans(tracer, replica))
    spans = [s for s in tracer.spans if s.name.startswith("dispatch[")]
    assert len(spans) == sum(dispatched.values()) > 0
    ((_, fill),) = metrics.series["repro_batch_fill"].items()
    assert fill.count == len(spans)
    assert fill.sum == sum(span.args["batch_size"] for span in spans)
    stages = Counter(e.name for e in tracer.events
                     if e.track == "cluster/requests")
    assert metrics.series["repro_requests_total"] == {
        (stage,): count for stage, count in stages.items()}
    reasons = Counter(e.name.removeprefix("slo:") for e in tracer.events
                      if e.name.startswith("slo:"))
    assert metrics.series["repro_slo_events_total"] == {
        (reason,): count for reason, count in reasons.items()}
    assert metrics.series["repro_replica_utilization"] == {
        (row["name"],): row["utilization"] for row in report.replicas}
    depths = {e.name: e.args["depth"] for e in tracer.events
              if e.track == "queue/depth"}
    assert set(depths) == {replica.name for replica in replicas}
    assert metrics.series["repro_queue_depth"] == {
        (component,): depth for component, depth in depths.items()}


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_span_batch_size_is_the_executing_batch(cells, continuous):
    _, tracer, replicas, _ = cells[continuous]
    for replica in replicas:
        for span in _dispatch_spans(tracer, replica):
            assert span.args["batch_size"] == len(span.args["request_ids"])


#: Sum of sojourns minus the integral of N(t), in ns: 0, since the
#: analysis reads each served request's arrival from its ``queued``
#: event and its departure from its ``served`` event, and the drop
#: sojourns are exact.
LITTLE_RESIDUAL_NS = {False: 0, True: 0}


@pytest.mark.parametrize("continuous", (False, True), ids=("drain", "continuous"))
def test_littles_law_on_integer_ns(cells, continuous):
    """Little's law: the sojourns the analysis reports add up to the
    integral of N(t), the requests in the system, built from the arrival
    (``queued``) and departure (``served``, or the ``slo:*`` drop)
    stamps. N(t) never goes negative and ends at 0."""
    _, tracer, *_ = cells[continuous]
    records = TraceRecords.from_tracer(tracer)
    steps, drop_sojourns = [], []
    for _, name, track, ts_ns, args in records.events:
        if track == "cluster/requests" and name == "queued":
            steps.append((ts_ns, 1))
        elif track == "cluster/requests" and name == "served":
            steps.append((ts_ns, -1))
        elif name.startswith("slo:"):
            steps.append((ts_ns, -1))
            drop_sojourns.append(to_ns(args["waited_s"]))
    assert drop_sojourns  # the law covers drops here

    in_system = area_ns = 0
    previous = None
    for ts_ns, step in sorted(steps, key=lambda s: (s[0], -s[1])):
        if previous is not None:
            area_ns += in_system * (ts_ns - previous)
        in_system += step
        previous = ts_ns
        assert in_system >= 0
    assert in_system == 0

    served = [r.latency_ns for r in analyze_records(records).requests
              if r.outcome == "served"]
    assert len(served) + len(drop_sojourns) == 240
    sojourns_ns = sum(served) + sum(drop_sojourns)
    assert sojourns_ns - area_ns == LITTLE_RESIDUAL_NS[continuous]
