"""The nil-by-default Observer: one object writing one trace.

Every instrumented layer takes ``observer=None`` and guards each hook
with ``if self.observer is not None``: disabled observability is a
single predictable branch per site — no allocation, no formatting, no
dict churn — which is what makes the "byte-identical when off" gate in
``benchmarks/bench_obs_overhead.py`` hold trivially.

When enabled, an :class:`Observer` owns a :class:`~repro.obs.trace.Tracer`
and exposes **named hooks** — one per instrumentation site — so the hot
layers never touch track names directly (a server step, live-batch iteration
or drained batch, is :meth:`Observer.on_step`). Each hook writes exactly one
span or event row, and that row is the only record: :attr:`Observer.metrics`
is :func:`~repro.obs.metrics.metrics_from_trace` of the tracer, so the trace
and the metrics cannot disagree. Hook timestamps always come from the owning
layer's clock (``SimClock``, simulated tick accumulators, priced hw
seconds); for layers with no clock of their own
(:class:`~repro.exec.continuous.ContinuousExecutor`,
:class:`~repro.serve.cache.ThresholdCache`), the owner stamps
:attr:`Observer.now` before delegating.

An enabled hook costs the column appends of its one ``Tracer`` call,
whose keywords become the stored span or event args as they are; a
cluster dispatch reuses the row entry of an equal earlier dispatch of
the same live batch (:meth:`Observer.on_dispatch`), so recorded args
are read-only.
"""

from __future__ import annotations

from math import copysign

from repro.obs.metrics import metrics_from_trace
from repro.obs.trace import Tracer


class Observer:
    """Concrete sink for every instrumentation hook in the repo.

    Subclass and override individual ``on_*`` methods to customize;
    the default implementation records spans/events on well-known
    tracks, and :attr:`metrics` folds them into a fixed metric
    vocabulary (all names prefixed ``repro_``).
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Timestamp stamped by the owning layer before delegating to a
        #: clock-less layer (the continuous executor, the cache).
        self.now = 0.0
        #: Row entries of each replica's live batch: replica -> (request
        #: ids, {(phase, price, model, ablation): index into spans.rows}).
        self._live_rows: dict = {}

    @property
    def metrics(self):
        """The ``repro_*`` metrics folded from the trace recorded so far."""
        return metrics_from_trace(self.tracer)

    # ------------------------------------------------------------------
    # serving (ContinuousServer / ContinuousExecutor / ThresholdCache)
    # ------------------------------------------------------------------
    def on_step(
        self,
        start_s: float,
        end_s: float,
        phase: str,
        batch_size: int,
        **args,
    ) -> None:
        """One server step: a ``tick[dense|sparse]`` iteration of the live
        batch, which also records its ``phase``, or under ``policy.drain``
        one whole micro-batch (``batch``). Extra keyword args ride into the
        span, so analysis is reproducible from the artifact alone."""
        name = "batch"
        if phase != "batch":
            name, args["phase"] = f"tick[{phase}]", phase
        self.tracer.span(name, "serve/batch", start_s, end_s,
                         batch_size=batch_size, **args)

    def on_membership(
        self,
        kind: str,
        ts_s: float,
        request_id: int,
        **args,
    ) -> None:
        """A join/complete/evict/expire edit of the live index set."""
        self.tracer.event(
            kind, "serve/membership", ts_s, request_id=request_id, **args,
        )

    def on_index_set_edit(
        self, size_before: int, size_after: int, rebuilt: bool
    ) -> None:
        """The executor absorbed a membership change (index-set edit).

        Timestamped from :attr:`now` — the executor has no clock; the
        owning server stamps it before delegating to ``run_tick``.
        """
        self.tracer.event(
            "index_set_edit", "exec/index_set", self.now,
            size_before=size_before, size_after=size_after,
            rebuilt=rebuilt,
        )

    def on_queue_depth(self, component: str, depth: int, ts_s: float) -> None:
        """A scheduler queue's depth, stamped by its owner's clock."""
        self.tracer.event(component, "queue/depth", ts_s, depth=depth)

    def on_cache_lookup(self, level: str, hit: bool) -> None:
        """A memo lookup; timestamped from :attr:`now` (no clock)."""
        self.tracer.event(
            "hit" if hit else "miss", "serve/cache", self.now, level=level,
        )

    # ------------------------------------------------------------------
    # cluster simulation
    # ------------------------------------------------------------------
    def on_request_stage(
        self,
        stage: str,
        ts_s: float,
        request_id: int,
        **args,
    ) -> None:
        """A request lifecycle transition (queued/admitted/served/...)."""
        self.tracer.event(
            stage, "cluster/requests", ts_s, request_id=request_id, **args,
        )

    def on_dispatch(self, dispatch, request_ids: list) -> None:
        """One priced batch executing on a cluster replica.

        Takes the replica's :class:`~repro.cluster.replica.Dispatch` and
        the fleet ordinals of its members, in member order, and writes
        one span row, which lists them as ``request_ids``. A live batch
        repeats its row tick after tick, so each replica keeps the row
        entries of its current members: the first dispatch with a given
        phase, price, model and ablation builds the span's name, track
        and args dict, and every later one records the same entry index
        with its own stamps. A change of members drops the replica's
        entries, so a drain-mode micro-batch (always new members) keeps
        nothing extra. Floats key by exact value: the sign rides along,
        so ``-0.0`` and ``0.0`` never share a row.
        """
        replica = dispatch.replica
        live = self._live_rows.get(replica)
        if live is None or live[0] != request_ids:
            live = self._live_rows[replica] = (request_ids, {})
        cold_s, energy_j = dispatch.cold_s, dispatch.energy_j
        key = (
            dispatch.phase, cold_s, copysign(1.0, cold_s), energy_j,
            copysign(1.0, energy_j), dispatch.model, dispatch.ablation,
        )
        row = live[1].get(key)
        if row is not None:
            self.tracer.record_row(row, dispatch.started_s,
                                   dispatch.completion_s)
            return
        span_id = self.tracer.record_span(
            f"dispatch[{dispatch.model}]", f"replica/{replica}",
            dispatch.started_s, dispatch.completion_s,
            {
                "batch_size": len(request_ids), "model": dispatch.model,
                "ablation": dispatch.ablation, "phase": dispatch.phase,
                "cold_s": cold_s, "energy_j": energy_j,
                "request_ids": request_ids,
            },
        )
        live[1][key] = self.tracer.spans.columns.row[span_id]

    def on_replica_utilization(
        self, replica: str, busy_frac: float, ts_s: float
    ) -> None:
        """A replica's busy fraction over the run, stamped at its end."""
        self.tracer.event(
            replica, "cluster/utilization", ts_s, utilization=busy_frac,
        )

    def on_slo_event(self, reason: str, ts_s: float, **args) -> None:
        """A drop/deadline miss the SLO accounting will charge."""
        self.tracer.event(f"slo:{reason}", "cluster/slo", ts_s, **args)

    # ------------------------------------------------------------------
    # hw timeline
    # ------------------------------------------------------------------
    def on_phase_segment(
        self,
        start_s: float,
        end_s: float,
        phase: str,
        bound: str,
        index: int,
        **args,
    ) -> None:
        """One priced iteration segment of the hw timeline."""
        self.tracer.span(
            f"iter[{phase}]", "hw/timeline", start_s, end_s,
            phase=phase, bound=bound, index=index, **args,
        )

    def observe_timeline(self, timeline) -> None:
        """Record every iteration of a priced hw Timeline as spans."""
        from repro.hw.timeline import phase_segments

        for segment in phase_segments(timeline):
            self.on_phase_segment(**segment)


__all__ = ["Observer"]
