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

import heapq
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
        self._checks = 0

    @property
    def checks(self) -> int:
        """Replica checks the last :meth:`run` popped off its heap."""
        return self._checks

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
            heapq.heappush(
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
        checks = 0

        accumulator = LatencyAccumulator(self.slo)
        horizon = 0.0

        # The horizon (makespan) advances only on events that *happen* —
        # arrivals, drops, batch completions. Wake-up checks can outlive
        # the work they were guarding (a max-wait check for a batch that
        # filled early); counting their pop times would inflate the
        # makespan and deflate throughput/utilization.
        while events:
            t, ordinal, kind, payload = heapq.heappop(events)
            if kind == _ARRIVAL:
                horizon = max(horizon, t)
                # Sweep expired waiters fleet-wide first, so routing loads
                # and admission depths count live requests only (a stale
                # queue must produce timeout drops, not admission drops).
                for member in self.replicas:
                    self._observe_drops(
                        member.expire(t, self.slo.timeout_s), t
                    )
                replica = self.router.choose(payload, self.replicas, t)
                accepted = replica.enqueue(
                    payload, t, max_queue_depth=self.slo.max_queue_depth
                )
                if observer is not None:
                    observer.on_request_stage(
                        "queued", t, ordinal, model=payload.model,
                        replica=replica.name,
                        tenant=getattr(payload, "tenant", "default"),
                        priority=int(getattr(payload, "priority", 1) or 1),
                    )
                    if not accepted:
                        observer.on_request_stage(
                            "rejected", t, ordinal, model=payload.model,
                            replica=replica.name,
                        )
                    observer.on_queue_depth(
                        replica.name, replica.queue_depth()
                    )
                if accepted:
                    self._schedule(events, seq, pending, replica, t, bump=False)
            else:
                replica = payload
                pending.discard((replica, t))
                checks += 1
                swept = replica.expire(t, self.slo.timeout_s)
                if swept:
                    horizon = max(horizon, t)
                    self._observe_drops(swept, t)
                outcome = replica.try_dispatch(t)
                if outcome is not None:
                    horizon = max(horizon, outcome.completion_s)
                    for record in outcome.served:
                        accumulator.record(record.wait_s, record.service_s)
                    if observer is not None:
                        observer.on_dispatch(
                            replica.name, t, outcome.completion_s,
                            outcome.batch_size, outcome.model,
                            ablation=outcome.ablation,
                            phase=outcome.phase,
                            cold_s=outcome.cold_s,
                            energy_j=outcome.energy_j,
                            tenants=[m[1] for m in outcome.members],
                            priorities=[m[2] for m in outcome.members],
                        )
                        for record in outcome.served:
                            observer.on_request_stage(
                                "served", outcome.completion_s,
                                record.request_id, replica=replica.name,
                                wait_s=record.wait_s,
                                service_s=record.service_s,
                                tenant=record.request.tenant,
                                priority=int(record.request.priority),
                                model=outcome.model,
                            )
                self._schedule(events, seq, pending, replica, t, bump=True)

        self._checks = checks
        return self._report(requests, accumulator, horizon, scenario)

    def _observe_drops(self, dropped: list, now: float) -> None:
        """Record swept requests as SLO events (observer installed only)."""
        if self.observer is None:
            return
        for drop in dropped:
            self.observer.on_slo_event(
                drop.reason, now, model=drop.model,
                waited_s=drop.waited_s,
            )

    # ------------------------------------------------------------------
    def _schedule(
        self, events: list, seq, pending: set, replica: Replica, now: float,
        bump: bool,
    ) -> None:
        """Queue the replica's next wake-up, unless it is already queued."""
        when = replica.next_event_time(now, timeout_s=self.slo.timeout_s)
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
            heapq.heappush(events, (when, next(seq), _CHECK, replica))

    # ------------------------------------------------------------------
    def _report(
        self,
        requests: list,
        accumulator: LatencyAccumulator,
        horizon: float,
        scenario: Optional[dict],
    ) -> ClusterReport:
        admission_drops = sum(r.admission_drops for r in self.replicas)
        timeout_drops = sum(r.timeout_drops for r in self.replicas)
        dropped = admission_drops + timeout_drops
        served = sum(r.requests_served for r in self.replicas)
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
        usage = [r.usage(horizon) for r in self.replicas]
        if self.observer is not None:
            for row in usage:
                self.observer.on_replica_utilization(
                    row["name"], row["utilization"]
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
    execute_iterations: Optional[int] = None,
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
            execute_iterations=execute_iterations,
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
