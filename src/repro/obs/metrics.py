"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the numeric view of :mod:`repro.obs`: **counters**
(monotone totals: ticks served, cache hits), **gauges** (point-in-time
levels: queue depth, utilization) and **histograms** (distributions:
batch fill, tick latency) are named metric *families*, each of which
fans out into children by label values — the Prometheus data model, with
none of the dependency. An :class:`~repro.obs.observer.Observer` keeps
only its trace; :func:`metrics_from_trace` folds the rows, in emission
order, into the fixed ``repro_*`` vocabulary, so the two cannot disagree.

Everything is deterministic by construction:

- snapshots iterate families by name and children by label-value tuple,
  both sorted, so two runs that performed the same updates serialize the
  same bytes;
- there are **no timestamps** anywhere — time belongs to the tracing
  half (:mod:`repro.obs.trace`), where the owning layer supplies its own
  simulated clock;
- exposition is canonical key-sorted JSON (:meth:`MetricsRegistry.
  to_json`), byte-stable for a given update history — every update
  refuses a NaN or infinity with a :class:`ValueError` naming the
  metric, so none can reach the JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional, Sequence

from repro.canon import canonical_json

#: Default histogram buckets: powers of two covering batch sizes and
#: small-count distributions. Callers with latency-like values pass
#: their own buckets.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Histogram buckets for second-valued durations (ticks, batches).
TIME_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def histogram_quantile(
    buckets: Sequence[float],
    bucket_counts: Sequence[int],
    q: float,
) -> float:
    """Deterministic nearest-rank quantile over histogram buckets.

    Returns the upper bound of the bucket containing the nearest-rank
    sample — the smallest bound ``b`` such that at least ``ceil(q * n)``
    observations are ≤ ``b``. Values that landed in the +Inf tail clamp
    to the largest finite bound (canonical JSON rejects infinities, and
    a report should never print one). Empty histograms quantile to 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    rank = max(1, -(-total * q // 1))  # ceil(total * q), at least 1
    cumulative = 0
    for bound, count in zip(buckets, bucket_counts):
        cumulative += count
        if cumulative >= rank:
            return float(bound)
    return float(buckets[-1])


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name}: non-finite value {value!r}")
    return value


class _Child:
    """One counter or gauge series; ``name`` is its family's."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if _finite(self.name, amount) < 0:
            raise ValueError(f"{self.name}: counters only go up")
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(_finite(self.name, value))


class _HistogramChild:
    """One histogram series: bucket counts plus sum/count."""

    __slots__ = ("name", "buckets", "bucket_counts", "sum", "count")

    def __init__(self, name: str, buckets: tuple) -> None:
        self.name = name
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # +Inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # The first bound with value <= bound; past the last one is +Inf.
        index = bisect_left(self.buckets, _finite(self.name, value))
        self.bucket_counts[index] += 1
        self.sum += float(value)
        self.count += 1


class MetricFamily:
    """A named metric with a fixed label schema and typed children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_
        self.label_names = tuple(labels)
        if kind == "histogram":
            buckets = tuple(
                sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
            )
            if not buckets:
                raise ValueError("histogram needs at least one bucket")
            self.buckets = buckets
        else:
            if buckets is not None:
                raise ValueError(f"{kind} metrics take no buckets")
            self.buckets = ()
        self._children: dict = {}

    # ------------------------------------------------------------------
    def _values(self, **labels) -> tuple:
        try:
            return tuple(str(labels[name]) for name in self.label_names)
        except KeyError as missing:
            raise ValueError(
                f"{self.name} requires label {missing.args[0]!r}"
            ) from None

    def labels(self, **labels):
        """The series for these label values, created on first use."""
        values = self._values(**labels)
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = (
                _HistogramChild(self.name, self.buckets)
                if self.kind == "histogram" else _Child(self.name)
            )
        return child

    def _check_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise TypeError(f"{self.name} is a {self.kind}, not a {kind}")

    # ------------------------------------------------------------------
    # update API: a non-finite value is refused with the metric's name
    # ------------------------------------------------------------------
    def inc(self, amount: float = 1.0, **labels) -> None:
        self._check_kind("counter")
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels) -> None:
        self._check_kind("gauge")
        self.labels(**labels).set(value)

    def observe(self, value: float, **labels) -> None:
        self._check_kind("histogram")
        self.labels(**labels).observe(value)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def value(self, **labels) -> float:
        """Current value of one counter/gauge child (0.0 if never touched)."""
        if self.kind == "histogram":
            raise TypeError("histograms expose .snapshot(), not .value()")
        child = self._children.get(self._values(**labels))
        return 0.0 if child is None else child.value

    def quantile(self, q: float, **labels) -> float:
        """Nearest-rank quantile of one histogram child (0.0 if empty)."""
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        child = self._children.get(self._values(**labels))
        if child is None:
            return 0.0
        return histogram_quantile(self.buckets, child.bucket_counts, q)

    def children(self) -> list:
        """(label_values, child) pairs in deterministic sorted order."""
        return sorted(self._children.items(), key=lambda item: item[0])

    def snapshot(self) -> dict:
        """JSON-serializable view of the whole family, children sorted."""
        series = []
        for values, child in self.children():
            labels = dict(zip(self.label_names, values))
            if self.kind == "histogram":
                series.append({
                    "labels": labels,
                    "buckets": {
                        **{
                            repr(bound): count
                            for bound, count in zip(
                                self.buckets, child.bucket_counts
                            )
                        },
                        "+Inf": child.bucket_counts[-1],
                    },
                    "sum": child.sum,
                    "count": child.count,
                })
            else:
                series.append({"labels": labels, "value": child.value})
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": series,
        }


class MetricsRegistry:
    """Deterministic registry of metric families.

    Re-registering a name returns the existing family (so independent
    layers can share one registry without coordination), but only if the
    kind and label schema agree — a mismatch is a programming error and
    raises immediately.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help_: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}"
                )
            return family
        family = MetricFamily(name, kind, help_, labels, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help_, labels)

    def gauge(
        self, name: str, help_: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help_, labels)

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._register(name, "histogram", help_, (), buckets)

    def families(self) -> list:
        """Every family, sorted by name (the deterministic snapshot order)."""
        return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical JSON-serializable document of every family."""
        return {
            "families": [family.snapshot() for family in self.families()]
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, fixed separators, trailing newline."""
        return canonical_json(self.snapshot())


def metrics_from_trace(tracer) -> MetricsRegistry:
    """The ``repro_*`` metrics of a :class:`~repro.obs.trace.Tracer`.

    Every family is registered up front, so one no row feeds keeps an
    empty snapshot. Spans, then events, are read in emission order, the
    order the hooks wrote them.
    """
    m = MetricsRegistry()
    ticks = m.counter("repro_ticks_total",
                      "Batched kernel dispatches (one per denoising iteration)", ("phase",))
    tick_seconds = m.histogram("repro_tick_seconds",
                               "Latency of one continuous-batch tick", TIME_BUCKETS)
    fill = m.histogram("repro_batch_fill",
                       "Requests sharing one tick or micro-batch")
    membership = m.counter("repro_membership_events_total",
                           "Continuous-batch membership edits by kind", ("kind",))
    queue_depth = m.gauge("repro_queue_depth",
                          "Requests waiting in a scheduler queue", ("component",))
    batches = m.counter("repro_batches_total",
                        "Micro-batches dispatched by the drain-mode server")
    batch_seconds = m.histogram("repro_batch_seconds",
                                "Service latency of one micro-batch", TIME_BUCKETS)
    cache = m.counter("repro_cache_lookups_total",
                      "ThresholdCache lookups by memo level and outcome", ("level", "outcome"))
    requests = m.counter("repro_requests_total",
                         "Cluster request lifecycle transitions", ("stage",))
    dispatches = m.counter("repro_dispatches_total",
                           "Batches dispatched per replica", ("replica",))
    utilization = m.gauge("repro_replica_utilization",
                          "Busy fraction per replica at end of simulation", ("replica",))
    slo = m.counter("repro_slo_events_total",
                    "SLO-relevant outcomes (drops, deadline misses) by reason", ("reason",))
    phase_seconds = m.counter("repro_phase_seconds_total",
                              "Priced hw-timeline seconds by phase and bound resource",
                              ("phase", "bound"))

    spans = tracer.spans
    names, tracks, entry_args = spans.rows
    for row, start_s, end_s in zip(
        spans.columns.row, spans.columns.start_s, spans.columns.end_s
    ):
        name, track, args = names[row], tracks[row], entry_args[row]
        if track == "serve/batch":
            if name == "batch":
                batches.inc()
                batch_seconds.observe(end_s - start_s)
            else:
                ticks.inc(phase=args["phase"])
                tick_seconds.observe(end_s - start_s)
            fill.observe(args["batch_size"])
        elif track.startswith("replica/"):
            dispatches.inc(replica=track[len("replica/"):])
            fill.observe(args["batch_size"])
        elif track == "hw/timeline":
            phase_seconds.inc(
                end_s - start_s, phase=args["phase"], bound=args["bound"],
            )

    for _, name, track, _, _, args in tracer.events:
        if track in ("serve/membership", "exec/index_set"):
            membership.inc(kind=name)
        elif track == "cluster/requests":
            requests.inc(stage=name)
        elif track == "cluster/slo":
            slo.inc(reason=name[len("slo:"):])
        elif track == "queue/depth":
            queue_depth.set(args["depth"], component=name)
        elif track == "cluster/utilization":
            utilization.set(args["utilization"], replica=name)
        elif track == "serve/cache":
            cache.inc(level=args["level"], outcome=name)
    return m


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "histogram_quantile",
    "metrics_from_trace",
]
