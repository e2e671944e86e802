"""The nil-by-default Observer: one object carrying metrics + tracer.

Every instrumented layer takes ``observer=None`` and guards each hook
with ``if self.observer is not None``: disabled observability is a
single predictable branch per site — no allocation, no formatting, no
dict churn — which is what makes the "byte-identical when off" gate in
``benchmarks/bench_obs_overhead.py`` hold trivially.

When enabled, an :class:`Observer` owns a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer` and exposes **named hooks** — one per
instrumentation site — so the hot layers never touch metric families or
track names directly. Hook timestamps always come from the owning
layer's clock (``SimClock``, simulated tick accumulators, priced hw
seconds); for layers with no clock of their own
(:class:`~repro.exec.continuous.ContinuousExecutor`), the owner stamps
:attr:`Observer.now` before delegating.

An enabled hook costs a few list appends and one update per metric: it
binds each metric series the first time it sees its label value
(:meth:`~repro.obs.metrics.MetricFamily.labels`) and updates the bound
series from then on, and the keywords of its one ``Tracer`` call become
the stored span or event args as they are.
"""

from __future__ import annotations

from functools import cached_property

from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.trace import Tracer

#: Histogram buckets for second-valued durations (ticks, batches).
TIME_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class _Bound(dict):
    """A one-label family's series by label value, bound on first use."""

    def __init__(self, family: MetricFamily) -> None:
        super().__init__()
        self.family = family

    def __missing__(self, value):
        (label,) = self.family.label_names
        child = self[value] = self.family.labels(**{label: value})
        return child


class Observer:
    """Concrete sink for every instrumentation hook in the repo.

    Subclass and override individual ``on_*`` methods to customize;
    the default implementation records spans/events on well-known
    tracks and updates a fixed metric vocabulary (all names prefixed
    ``repro_``).
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        #: Timestamp stamped by the owning layer before delegating to a
        #: clock-less layer (the continuous executor).
        self.now = 0.0
        m = self.metrics
        self._ticks = _Bound(m.counter(
            "repro_ticks_total",
            "Batched kernel dispatches (one per denoising iteration)",
            labels=("phase",),
        ))
        self._tick_seconds = m.histogram(
            "repro_tick_seconds",
            "Latency of one continuous-batch tick",
            buckets=TIME_BUCKETS,
        )
        self._batch_fill = m.histogram(
            "repro_batch_fill",
            "Requests sharing one tick or micro-batch",
        )
        self._membership = _Bound(m.counter(
            "repro_membership_events_total",
            "Continuous-batch membership edits by kind",
            labels=("kind",),
        ))
        self._queue_depth = _Bound(m.gauge(
            "repro_queue_depth",
            "Requests waiting in a scheduler queue",
            labels=("component",),
        ))
        self._batches = m.counter(
            "repro_batches_total",
            "Micro-batches dispatched by the drain-mode server",
        )
        self._batch_seconds = m.histogram(
            "repro_batch_seconds",
            "Service latency of one micro-batch",
            buckets=TIME_BUCKETS,
        )
        self._cache = m.counter(
            "repro_cache_lookups_total",
            "ThresholdCache lookups by memo level and outcome",
            labels=("level", "outcome"),
        )
        self._requests = _Bound(m.counter(
            "repro_requests_total",
            "Cluster request lifecycle transitions",
            labels=("stage",),
        ))
        self._dispatches = _Bound(m.counter(
            "repro_dispatches_total",
            "Batches dispatched per replica",
            labels=("replica",),
        ))
        self._replica_util = m.gauge(
            "repro_replica_utilization",
            "Busy fraction per replica at end of simulation",
            labels=("replica",),
        )
        self._slo = _Bound(m.counter(
            "repro_slo_events_total",
            "SLO-relevant outcomes (drops, deadline misses) by reason",
            labels=("reason",),
        ))
        self._phase_seconds = m.counter(
            "repro_phase_seconds_total",
            "Priced hw-timeline seconds by phase and bound resource",
            labels=("phase", "bound"),
        )

    # The unlabelled series, bound on first use: an unused family keeps
    # an empty snapshot.
    @cached_property
    def _fill(self):
        return self._batch_fill.labels()

    @cached_property
    def _tick_latency(self):
        return self._tick_seconds.labels()

    # ------------------------------------------------------------------
    # continuous serving (ContinuousServer / ContinuousExecutor)
    # ------------------------------------------------------------------
    def on_tick(
        self,
        start_s: float,
        end_s: float,
        batch_size: int,
        is_dense: bool,
        cursor: int,
        **args,
    ) -> None:
        """One denoising iteration of the live continuous batch.

        Extra keyword args (``boundary``, ``energy_j``, ``cold_s``,
        tenancy enrichments) ride into the span so downstream analysis
        is reproducible from the artifact alone.
        """
        phase = "dense" if is_dense else "sparse"
        self._ticks[phase].inc()
        self._tick_latency.observe(end_s - start_s)
        self._fill.observe(batch_size)
        self.tracer.span(
            f"tick[{phase}]", "serve/batch", start_s, end_s,
            batch_size=batch_size, cursor=cursor, phase=phase, **args,
        )

    def on_membership(
        self,
        kind: str,
        ts_s: float,
        request_id: int,
        **args,
    ) -> None:
        """A join/complete/evict/expire edit of the live index set."""
        self._membership[kind].inc()
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
        self._membership["index_set_edit"].inc()
        self.tracer.event(
            "index_set_edit", "exec/index_set", self.now,
            size_before=size_before, size_after=size_after,
            rebuilt=rebuilt,
        )

    def on_queue_depth(self, component: str, depth: int) -> None:
        self._queue_depth[component].set(depth)

    # ------------------------------------------------------------------
    # drain-mode serving (ContinuousServer under policy.drain)
    # ------------------------------------------------------------------
    def on_batch(
        self,
        start_s: float,
        end_s: float,
        batch_size: int,
        **args,
    ) -> None:
        """One micro-batch served end-to-end by the drain-mode server."""
        self._batches.inc()
        self._batch_seconds.observe(end_s - start_s)
        self._fill.observe(batch_size)
        self.tracer.span(
            "batch", "serve/batch", start_s, end_s, batch_size=batch_size,
            **args,
        )

    def on_cache_lookup(self, level: str, hit: bool) -> None:
        self._cache.inc(level=level, outcome="hit" if hit else "miss")

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
        self._requests[stage].inc()
        self.tracer.event(
            stage, "cluster/requests", ts_s, request_id=request_id, **args,
        )

    def on_dispatch(self, dispatch) -> None:
        """One priced batch executing on a cluster replica.

        Takes the replica's :class:`~repro.cluster.replica.Dispatch` and
        writes one span row from it; the span's args are the one dict
        the ``Tracer.span`` call builds.
        """
        _, tenants, priorities = (
            zip(*dispatch.members) if dispatch.members else ((), (), ())
        )
        batch_size = len(tenants)
        self._dispatches[dispatch.replica].inc()
        self._fill.observe(batch_size)
        self.tracer.span(
            f"dispatch[{dispatch.model}]", f"replica/{dispatch.replica}",
            dispatch.started_s, dispatch.completion_s,
            batch_size=batch_size, model=dispatch.model,
            ablation=dispatch.ablation, phase=dispatch.phase,
            cold_s=dispatch.cold_s, energy_j=dispatch.energy_j,
            tenants=list(tenants), priorities=list(priorities),
        )

    def on_replica_utilization(self, replica: str, busy_frac: float) -> None:
        self._replica_util.set(busy_frac, replica=replica)

    def on_slo_event(self, reason: str, ts_s: float, **args) -> None:
        """A drop/deadline miss the SLO accounting will charge."""
        self._slo[reason].inc()
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
        self._phase_seconds.inc(end_s - start_s, phase=phase, bound=bound)
        self.tracer.span(
            f"iter[{phase}]", "hw/timeline", start_s, end_s,
            phase=phase, bound=bound, index=index, **args,
        )

    def observe_timeline(self, timeline) -> None:
        """Record every iteration of a priced hw Timeline as spans."""
        from repro.hw.timeline import phase_segments

        for segment in phase_segments(timeline):
            self.on_phase_segment(**segment)


__all__ = ["Observer", "TIME_BUCKETS"]
