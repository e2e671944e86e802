"""Queueing laws the fleet simulator must satisfy exactly.

Checked on the ``mmpp-deadline2s-observed-jsq2`` cells of
``tools/fleet_digests.py``: 240 bursty requests with 2 s deadlines on two
observed replicas, in drain and in continuous mode.
"""

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

CONTINUOUS_DROPS_UNOBSERVED = pytest.mark.xfail(
    strict=True,
    reason="Replica.try_dispatch discards what self._collect_drops(now) "
           "returns (cluster/replica.py:494), so deadline drops inside a "
           "continuous server step emit no slo:deadline event",
)
CONTINUOUS_BATCH_SIZE_IS_SERVED = pytest.mark.xfail(
    strict=True,
    reason="cluster/replica.py Dispatch.batch_size is len(self.served), the "
           "requests finishing on the tick, not the batch that executed",
)


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
        out[continuous] = report, observer.tracer, replicas
    return out


def _dispatch_spans(tracer, replica):
    return [
        span for span in tracer.spans
        if span.name.startswith("dispatch[")
        and span.track == f"replica/{replica.name}"
    ]


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_every_request_is_served_or_dropped(cells, continuous):
    report, _, _ = cells[continuous]
    assert report.submitted == 240
    assert report.timeout_drops > 0  # the law is not vacuous here
    assert report.submitted == (
        report.served + report.admission_drops + report.timeout_drops
    )


@pytest.mark.parametrize("continuous", (
    False, pytest.param(True, marks=CONTINUOUS_DROPS_UNOBSERVED),
), ids=("drain", "continuous"))
def test_one_slo_event_per_drop(cells, continuous):
    report, tracer, _ = cells[continuous]
    slo_events = [e for e in tracer.events if e.name.startswith("slo:")]
    assert len(slo_events) == report.admission_drops + report.timeout_drops


@pytest.mark.parametrize("continuous", (False, True),
                         ids=("drain", "continuous"))
def test_busy_time_is_the_sum_of_dispatched_prices(cells, continuous):
    """The utilisation law: a replica is busy for exactly the priced
    seconds (plus cold-start surcharges) of the steps it dispatched."""
    _, tracer, replicas = cells[continuous]
    prices = ServiceTimeModel("exion24")
    spans = 0
    for replica in replicas:
        busy_s = 0.0
        for span in _dispatch_spans(tracer, replica):
            args = span.args
            busy_s += prices.price(
                args["model"], args["ablation"], len(args["tenants"]),
                args["phase"],
            ).seconds + args["cold_s"]
            spans += 1
        assert busy_s == replica.busy_s
    assert spans > 0


@pytest.mark.parametrize("continuous", (
    False, pytest.param(True, marks=CONTINUOUS_BATCH_SIZE_IS_SERVED),
), ids=("drain", "continuous"))
def test_span_batch_size_is_the_executing_batch(cells, continuous):
    _, tracer, replicas = cells[continuous]
    for replica in replicas:
        for span in _dispatch_spans(tracer, replica):
            assert span.args["batch_size"] == len(span.args["tenants"])
