"""Fleet attribution against the membership edits the servers made.

A fleet trace records no membership events: each dispatch lists the
fleet ordinals of its members, and the analysis rebuilds every request's
membership intervals from the dispatches listing it. The oracle here is
what the servers did: observed fleet cells run while every
``ContinuousServer._edit`` call is recorded, and ``Replica.enqueue``
calls map each server's request ids to fleet ordinals (the n-th enqueue
is ordinal n). Each request's intervals and outcome must equal its
server's edits, and its components must sum to its latency.

The analysis sees ticks, not edits, so two readings are part of the
expectation: a leave and a rejoin at one instant are one interval, and
a request that expires after it was a member (preempted, requeued, then
swept) is ``dropped``, as a member evicted at its deadline is.
"""

from dataclasses import replace

import pytest

from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.cluster.replica import Replica
from repro.obs import Observer
from repro.obs.analyze import analyze_tracer, to_ns
from repro.serve.continuous import ContinuousServer

CELLS = {  # name -> (continuous, priorities, replicas, max_queue_depth)
    # one replica behind a queue bound: expiries and rejections
    "drain": (False, False, 1, 24),
    "continuous": (True, False, 2, None),
    # three priority classes on one replica: urgent arrivals preempt
    "continuous-priorities": (True, True, 1, None),
}


def _run(continuous: bool, priorities: bool, replicas: int,
         max_queue_depth) -> tuple:
    """An observed cell, its analysis and each ordinal's server edits."""
    trace = synthesize_trace(
        MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 160,
        WorkloadMix(("dit", "mld")), rng=2, deadline_s=2.0,
    )
    if priorities:
        trace = [replace(r, priority=i % 3) for i, r in enumerate(trace)]
    enqueued, edits = [], []
    enqueue, edit = Replica.enqueue, ContinuousServer._edit

    def recording_enqueue(replica, request, now, max_queue_depth=None):
        server_id = enqueue(replica, request, now, max_queue_depth)
        enqueued.append((replica, request.model, server_id))
        return server_id

    def recording_edit(server, kind, now, request_id, members=None, **fields):
        edits.append((server, kind, now, request_id, fields))
        edit(server, kind, now, request_id, members, **fields)

    observer = Observer()
    fleet = build_replicas(replicas, continuous=continuous)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Replica, "enqueue", recording_enqueue)
        patch.setattr(ContinuousServer, "_edit", recording_edit)
        report = simulate_cluster(trace, fleet, make_router("jsq"),
                                  slo=SLOPolicy(latency_target_s=2.0,
                                                max_queue_depth=max_queue_depth),
                                  observer=observer)
    ordinal = {
        (replica.servers[model, "all"], server_id): n
        for n, (replica, model, server_id) in enumerate(enqueued)
        if server_id is not None
    }
    by_ordinal = {n: [] for n in range(len(trace))}
    for server, kind, now, request_id, fields in edits:
        by_ordinal[ordinal[server, request_id]].append((kind, to_ns(now), fields))
    return report, analyze_tracer(observer.tracer).attribution, by_ordinal


def _expected(edits: list) -> tuple:
    """``(intervals, outcome)`` from one request's server edits."""
    intervals, outcome, joined = [], "rejected", False
    for kind, now, fields in edits:
        if kind == "join":
            if intervals and intervals[-1][1] == now:
                intervals[-1] = (intervals[-1][0], None)  # no gap to see
            else:
                intervals.append((now, None))
            joined, outcome = True, "open"
        elif kind in ("evict", "complete"):
            intervals[-1] = (intervals[-1][0], now)
            if kind == "complete":
                outcome = "served"
            elif fields["reason"] == "deadline":
                outcome = "dropped"
        else:  # expire
            outcome = "dropped" if joined else "expired"
    return intervals, outcome


@pytest.fixture(scope="module", params=sorted(CELLS))
def cell(request):
    return request.param, _run(*CELLS[request.param])


class TestFleetMembershipOracle:
    def test_every_queued_ordinal_is_one_request(self, cell):
        _, (report, attribution, _) = cell
        assert [r.request_id for r in attribution.requests] == list(
            range(report.submitted))
        served = sum(r.outcome == "served" for r in attribution.requests)
        assert served == report.served

    def test_intervals_and_outcomes_are_the_servers_edits(self, cell):
        _, (_, attribution, by_ordinal) = cell
        for request in attribution.requests:
            expected = _expected(by_ordinal[request.request_id])
            assert (request.intervals, request.outcome) == expected, (
                request.request_id)

    def test_components_sum_to_latency(self, cell):
        _, (_, attribution, _) = cell
        assert attribution.max_request_residual_ns() == 0
        assert attribution.tenant_residual_ns() == 0
        assert all(r.latency_ns >= 0 for r in attribution.requests)

    def test_the_cells_raise_every_outcome_and_a_preemption(self, cell):
        name, (_, attribution, by_ordinal) = cell
        outcomes = set(attribution.outcomes())
        assert {"served", "expired"} <= outcomes
        if name == "drain":
            assert "rejected" in outcomes
        if name == "continuous-priorities":
            assert "dropped" in outcomes
            assert any(fields.get("reason") == "preempt"
                       for edits in by_ordinal.values()
                       for _, _, fields in edits)
            assert any(r.components["preempt_ns"] > 0
                       for r in attribution.requests)
