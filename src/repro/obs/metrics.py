"""Zero-dependency metrics: the trace folded into a fixed vocabulary.

The metrics are the numeric view of :mod:`repro.obs`: **counters**
(monotone totals: ticks served, cache hits), **gauges** (point-in-time
levels: queue depth, utilization) and **histograms** (distributions:
batch fill, tick latency), each a *family* of series keyed by label
values — the Prometheus data model, with none of the dependency. The
vocabulary is the fixed :data:`FAMILIES` table; an
:class:`~repro.obs.observer.Observer` keeps only its trace, and
:func:`metrics_from_trace` folds the rows, in emission order, into it,
so the two cannot disagree.

Everything is deterministic by construction:

- snapshots iterate families by name and series by label-value tuple,
  both sorted, so two folds of the same trace serialize the same bytes;
- there are **no timestamps** anywhere — time belongs to the tracing
  half (:mod:`repro.obs.trace`), where the owning layer supplies its own
  simulated clock;
- exposition is canonical key-sorted JSON (:meth:`Metrics.to_json`),
  byte-stable for a given trace — every update refuses a NaN or
  infinity with a :class:`ValueError` naming the family, so none can
  reach the JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple, Sequence

from repro.canon import canonical_json

#: Histogram buckets for second-valued durations (ticks, batches).
TIME_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class Family(NamedTuple):
    """One row of :data:`FAMILIES`."""

    kind: str  # "counter", "gauge" or "histogram"
    help: str
    labels: tuple = ()
    buckets: tuple = ()  # histograms only


#: The ``repro_*`` vocabulary, in snapshot (name) order.
FAMILIES = {
    "repro_batch_fill": Family(
        "histogram", "Requests sharing one tick or micro-batch",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
    "repro_batch_seconds": Family(
        "histogram", "Service latency of one micro-batch",
        buckets=TIME_BUCKETS),
    "repro_batches_total": Family(
        "counter", "Micro-batches dispatched by the drain-mode server"),
    "repro_cache_lookups_total": Family(
        "counter", "ThresholdCache lookups by memo level and outcome",
        ("level", "outcome")),
    "repro_dispatches_total": Family(
        "counter", "Batches dispatched per replica", ("replica",)),
    "repro_membership_events_total": Family(
        "counter", "Continuous-batch membership edits by kind", ("kind",)),
    "repro_phase_seconds_total": Family(
        "counter", "Priced hw-timeline seconds by phase and bound resource",
        ("phase", "bound")),
    "repro_queue_depth": Family(
        "gauge", "Requests waiting in a scheduler queue", ("component",)),
    "repro_replica_utilization": Family(
        "gauge", "Busy fraction per replica at end of simulation",
        ("replica",)),
    "repro_requests_total": Family(
        "counter", "Cluster request lifecycle transitions", ("stage",)),
    "repro_slo_events_total": Family(
        "counter", "SLO-relevant outcomes (drops, deadline misses) by reason",
        ("reason",)),
    "repro_tick_seconds": Family(
        "histogram", "Latency of one continuous-batch tick",
        buckets=TIME_BUCKETS),
    "repro_ticks_total": Family(
        "counter", "Batched kernel dispatches (one per denoising iteration)",
        ("phase",)),
}


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


class Histogram:
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

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (0.0 if empty)."""
        return histogram_quantile(self.buckets, self.bucket_counts, q)


class Metrics:
    """Every :data:`FAMILIES` series: ``series[name]`` maps a label-value
    tuple to a counter or gauge value, or to a :class:`Histogram`."""

    def __init__(self) -> None:
        self.series = {name: {} for name in FAMILIES}

    def add(self, name: str, amount: float = 1.0, *labels: str) -> None:
        series = self.series[name]
        series[labels] = series.get(labels, 0.0) + _finite(name, amount)

    def set(self, name: str, value: float, *labels: str) -> None:
        self.series[name][labels] = float(_finite(name, value))

    def observe(self, name: str, value: float) -> None:
        # Refused before a first observation makes the series.
        _finite(name, value)
        series = self.series[name]
        if () not in series:
            series[()] = Histogram(name, FAMILIES[name].buckets)
        series[()].observe(value)

    def snapshot(self) -> dict:
        """Canonical JSON-serializable document of every family."""
        families = []
        for name, family in FAMILIES.items():
            entries = []
            for values, child in sorted(self.series[name].items()):
                entry = {"labels": dict(zip(family.labels, values))}
                if family.kind == "histogram":
                    entry["buckets"] = {
                        **{repr(bound): count for bound, count in
                           zip(child.buckets, child.bucket_counts)},
                        "+Inf": child.bucket_counts[-1],
                    }
                    entry["sum"], entry["count"] = child.sum, child.count
                else:
                    entry["value"] = child
                entries.append(entry)
            families.append({"name": name, "kind": family.kind,
                             "help": family.help, "series": entries})
        return {"families": families}

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, fixed separators, trailing newline."""
        return canonical_json(self.snapshot())


def metrics_from_trace(tracer) -> Metrics:
    """The ``repro_*`` metrics of a :class:`~repro.obs.trace.Tracer`.

    A family no row feeds keeps an empty series. Spans, then events, are
    read in emission order, the order the hooks wrote them.
    """
    m = Metrics()
    spans = tracer.spans
    names, tracks, entry_args = spans.rows
    for row, start_s, end_s in zip(
        spans.columns.row, spans.columns.start_s, spans.columns.end_s
    ):
        name, track, args = names[row], tracks[row], entry_args[row]
        if track == "serve/batch":
            if name == "batch":
                m.add("repro_batches_total")
                m.observe("repro_batch_seconds", end_s - start_s)
            else:
                m.add("repro_ticks_total", 1.0, str(args["phase"]))
                m.observe("repro_tick_seconds", end_s - start_s)
            m.observe("repro_batch_fill", args["batch_size"])
        elif track.startswith("replica/"):
            m.add("repro_dispatches_total", 1.0, track[len("replica/"):])
            m.observe("repro_batch_fill", args["batch_size"])
        elif track == "hw/timeline":
            m.add("repro_phase_seconds_total", end_s - start_s,
                  str(args["phase"]), str(args["bound"]))

    for _, name, track, _, args in tracer.events:
        if track in ("serve/membership", "exec/index_set"):
            m.add("repro_membership_events_total", 1.0, name)
        elif track == "cluster/requests":
            m.add("repro_requests_total", 1.0, name)
        elif track == "cluster/slo":
            m.add("repro_slo_events_total", 1.0, name[len("slo:"):])
        elif track == "queue/depth":
            m.set("repro_queue_depth", args["depth"], name)
        elif track == "cluster/utilization":
            m.set("repro_replica_utilization", args["utilization"], name)
        elif track == "serve/cache":
            m.add("repro_cache_lookups_total", 1.0, str(args["level"]), name)
    return m


__all__ = [
    "FAMILIES",
    "Family",
    "Histogram",
    "Metrics",
    "TIME_BUCKETS",
    "histogram_quantile",
    "metrics_from_trace",
]
