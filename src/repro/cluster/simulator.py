"""The deterministic discrete-event loop tying traffic to the fleet.

:class:`ClusterSimulator` advances simulated time through a binary heap
of ``(time, sequence)``-ordered events: request **arrivals** (routed to
a replica by the configured policy, subject to admission control) and
replica **checks** (dispatch a due micro-batch, or wake again when one
becomes due). Replicas serve one batch at a time — an accelerator runs
one kernel schedule — and their service times come from the hardware
latency model, so the whole run is a pure function of the trace, the
seed, and the fleet configuration: no wall clock anywhere.

Progress is guaranteed: every event either serves requests, drops
expired ones, or schedules a strictly later wake-up (a one-nanosecond
floor guards against floating-point fixpoints in max-wait expiry
arithmetic). At most one check is pending per ``(replica, instant)``:
an arrival or a check that asks for a wake-up already on the heap adds
nothing, so a run pops a number of checks linear in its arrivals, drops
and dispatches, however deep the backlog.
"""

from __future__ import annotations

from heapq import heappop, heappush
import math
from dataclasses import replace
from itertools import count
from typing import Optional

from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport
from repro.cluster.router import Router
from repro.cluster.slo import LatencyAccumulator, SLOPolicy
from repro.serve.continuous import ContinuousPolicy

#: Minimum forward step when rescheduling a check at a non-advancing
#: instant (floating-point guard; far below any modeled latency).
_TIME_EPS = 1e-9

_ARRIVAL = 0
_CHECK = 1


class ClusterSimulator:
    """Drives one open-loop trace through a replica fleet."""

    def __init__(
        self,
        replicas: list,
        router: Router,
        slo: Optional[SLOPolicy] = None,
        observer=None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = list(replicas)
        self.router = router
        self.slo = slo if slo is not None else SLOPolicy()
        # Nil-by-default observability: request lifecycles, dispatch
        # spans and SLO drops are recorded only when an observer is
        # installed; every timestamp is simulated time, so traces are
        # byte-deterministic per (trace, seed, fleet).
        self.observer = observer

    # ------------------------------------------------------------------
    def run(self, requests: list, scenario: Optional[dict] = None) -> ClusterReport:
        """Simulate every request to completion (served or dropped)."""
        observer = self.observer
        events: list = []
        seq = count()
        # Arrivals go on first, in arrival order, so an arrival's sequence
        # number (0..n-1) is its request id: the n-th request the servers
        # see, even when the trace lists one request object n times.
        for request in sorted(requests, key=lambda r: r.arrival_s):
            heappush(
                events, (request.arrival_s, next(seq), _ARRIVAL, request)
            )
        # The (replica, instant) of every check on the heap. A second
        # check of one replica at one instant can only pop right after the
        # first (arrivals at that instant carry smaller sequence numbers and
        # other replicas' checks do not touch this one), so it finds nothing
        # new to expire, finds the replica busy (a step takes simulated
        # time) or still not due, and derives the same next wake-up. Not
        # pushing it changes no outcome and no timestamp.
        pending: set = set()
        ordinals: dict = {}  # observed: (replica, model, ablation, server id) -> ordinal
        listed: dict = {}  # observed: replica -> (last batch, its ordinals)

        accumulator = LatencyAccumulator(self.slo)
        timeout_s = self.slo.timeout_s
        horizon = 0.0

        # The horizon (makespan) advances only on events that *happen* —
        # arrivals, drops, batch completions. Wake-up checks can outlive
        # the work they were guarding (a max-wait check for a batch that
        # filled early); counting their pop times would inflate the
        # makespan and deflate throughput/utilization.
        while events:
            t, ordinal, kind, payload = heappop(events)
            if kind == _ARRIVAL:
                horizon = max(horizon, t)
                # Sweep expired waiters fleet-wide first, so routing loads
                # and admission depths count live requests only (a stale
                # queue must produce timeout drops, not admission drops).
                for member in self.replicas:
                    self._observe_drops(member, member.expire(t, timeout_s),
                                        t, ordinals)
                replica = self.router.choose(payload, self.replicas, t)
                server_id = replica.enqueue(
                    payload, t, max_queue_depth=self.slo.max_queue_depth
                )
                if observer is not None:
                    observer.on_request_stage(
                        "queued", t, ordinal, model=payload.model,
                        replica=replica.name,
                        tenant=payload.tenant,
                        priority=int(payload.priority),
                        deadline_s=payload.deadline_s,
                    )
                    if server_id is None:
                        observer.on_request_stage(
                            "rejected", t, ordinal, model=payload.model,
                            replica=replica.name,
                        )
                    else:
                        ordinals[replica, payload.model, payload.ablation, server_id] = ordinal
                    observer.on_queue_depth(
                        replica.name, replica.queue_depth(), t
                    )
                if server_id is not None:
                    self._schedule(events, seq, pending, replica, t, False)
            else:
                replica = payload
                pending.discard((replica, t))
                swept = replica.expire(t, timeout_s)
                outcome, dropped = replica.try_dispatch(t)
                swept += dropped
                if swept:
                    horizon = max(horizon, t)
                    self._observe_drops(replica, swept, t, ordinals)
                if outcome is not None:
                    completion_s = outcome.completion_s
                    horizon = max(horizon, completion_s)
                    if observer is not None:  # translated when members change
                        batch = (replica, outcome.model, outcome.ablation, outcome.members)
                        if listed.get(replica, (None,))[0] != batch:
                            listed[replica] = batch, [
                                ordinals[(*batch[:3], m)] for m in outcome.members]
                        observer.on_dispatch(outcome, listed[replica][1])
                    for record in outcome.served:
                        accumulator.record(record.wait_s, record.service_s)
                        if observer is not None:
                            key = (replica, outcome.model, outcome.ablation, record.request_id)
                            observer.on_request_stage(
                                "served", completion_s, ordinals.pop(key), replica=replica.name,
                            )
                self._schedule(events, seq, pending, replica, t, True)

        return self._report(requests, accumulator, horizon, scenario)

    def _observe_drops(self, replica: Replica, dropped: list, now: float,
                       ordinals: dict) -> None:
        """Record ``replica``'s swept requests as SLO events stamped with
        their fleet ordinals, popped from ``ordinals`` (observer installed
        only)."""
        if self.observer is None:
            return
        for drop in dropped:
            key = (replica, drop.model, drop.ablation, drop.request_id)
            self.observer.on_slo_event(
                drop.reason, now, request_id=ordinals.pop(key),
                model=drop.model, waited_s=drop.waited_s,
            )

    # ------------------------------------------------------------------
    def _schedule(
        self, events: list, seq, pending: set, replica: Replica, now: float,
        bump: bool,
    ) -> None:
        """Queue the replica's next wake-up, unless it is already queued."""
        when = replica.next_event_time(now, self.slo.timeout_s)
        if when is None:
            return
        if when < now:
            when = now
        if bump and when <= now:
            # A dispatch was just attempted at `now`; re-attempting at the
            # same instant cannot make progress, so step forward minutely.
            # nextafter guarantees an advance even at timestamps so large
            # that `now + _TIME_EPS == now` (e.g. epoch-scale traces).
            when = max(now + _TIME_EPS, math.nextafter(now, math.inf))
        wake = (replica, when)
        if wake not in pending:
            pending.add(wake)
            heappush(events, (when, next(seq), _CHECK, replica))

    # ------------------------------------------------------------------
    def _report(
        self,
        requests: list,
        accumulator: LatencyAccumulator,
        horizon: float,
        scenario: Optional[dict],
    ) -> ClusterReport:
        usage = [r.usage(horizon) for r in self.replicas]
        admission_drops = sum(row["admission_drops"] for row in usage)
        timeout_drops = sum(row["timeout_drops"] for row in usage)
        dropped = admission_drops + timeout_drops
        served = sum(row["requests_served"] for row in usage)
        leftover = sum(r.queue_depth() for r in self.replicas)
        if leftover:  # pragma: no cover - progress guarantee above
            raise RuntimeError(
                f"event loop drained with {leftover} requests still queued"
            )

        accelerators = sorted({r.accelerator_name for r in self.replicas})
        models = sorted({r.model for r in requests})
        doc = {
            "replicas": len(self.replicas),
            "accelerator": (
                accelerators[0] if len(accelerators) == 1 else accelerators
            ),
            "models": models,
            "policy": self.replicas[0].policy_doc(),
            "slo": self.slo.describe(),
            **self.router.describe(),
            **(scenario or {}),
        }
        if self.observer is not None:
            for row in usage:
                self.observer.on_replica_utilization(
                    row["name"], row["utilization"], horizon
                )
        return ClusterReport(
            # Key-sorted at construction so the in-memory scenario/stats
            # blocks iterate identically across runs, not only after the
            # canonical to_json() pass re-sorts them.
            scenario=dict(sorted(doc.items())),
            submitted=len(requests),
            served=served,
            admission_drops=admission_drops,
            timeout_drops=timeout_drops,
            makespan_s=horizon,
            latency=accumulator.summary(),
            slo_attainment=accumulator.attainment(dropped=dropped),
            replicas=[dict(sorted(row.items())) for row in usage],
            executed=any(r.execute for r in self.replicas),
        )


def build_replicas(
    count_: int,
    accelerator: str = "exion24",
    policy=None,
    service_model=None,
    execute: bool = False,
    continuous: bool = False,
    tenant_weights=None,
    **service_kwargs,
) -> list:
    """A homogeneous fleet sharing one memoized service-time model.

    Remaining keyword arguments configure the shared
    :class:`~repro.cluster.replica.ServiceTimeModel` (``iterations``,
    ``profile_seed``). ``continuous`` picks the
    scheduling mode of ``policy`` (a
    :class:`~repro.serve.continuous.ContinuousPolicy`): iteration-level
    continuous batching when true — ``tenant_weights`` then configures
    per-tenant fair-queuing weights — else drain-and-refill.
    ``execute=True`` runs the numerics of the schedule that is priced.
    """
    from repro.cluster.replica import ServiceTimeModel

    if count_ < 1:
        raise ValueError("need at least one replica")
    if tenant_weights is not None and not continuous:
        raise ValueError("tenant_weights requires continuous=True")
    if service_model is None:
        service_model = ServiceTimeModel(accelerator, **service_kwargs)
    policy = replace(
        policy if policy is not None else ContinuousPolicy(),
        drain=not continuous,
    )
    return [
        Replica(
            index=i,
            policy=policy,
            service_model=service_model,
            tenant_weights=tenant_weights,
            execute=execute,
        )
        for i in range(count_)
    ]


def simulate_cluster(
    requests: list,
    replicas: list,
    router: Router,
    slo: Optional[SLOPolicy] = None,
    scenario: Optional[dict] = None,
    observer=None,
) -> ClusterReport:
    """One-call convenience wrapper around :class:`ClusterSimulator`."""
    return ClusterSimulator(replicas, router, slo, observer=observer).run(
        requests, scenario=scenario
    )


__all__ = ["ClusterSimulator", "build_replicas", "simulate_cluster"]
