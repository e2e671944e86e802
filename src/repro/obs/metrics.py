"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the numeric half of :mod:`repro.obs`: instrumented
layers increment **counters** (monotone totals: ticks served, cache
hits), set **gauges** (point-in-time levels: queue depth, utilization)
and observe **histograms** (distributions: batch fill, tick latency)
against named metric *families*, each of which fans out into children by
label values — the Prometheus data model, with none of the dependency.

Everything is deterministic by construction:

- snapshots iterate families by name and children by label-value tuple,
  both sorted, so two runs that performed the same updates serialize the
  same bytes;
- there are **no timestamps** anywhere — time belongs to the tracing
  half (:mod:`repro.obs.trace`), where the owning layer supplies its own
  simulated clock;
- exposition is canonical key-sorted JSON (:meth:`MetricsRegistry.
  to_json`), byte-stable for a given update history.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.canon import canonical_json

#: Default histogram buckets: powers of two covering batch sizes and
#: small-count distributions. Callers with latency-like values pass
#: their own buckets.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

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


class _Child:
    """One (family, label-values) series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class _HistogramChild:
    """One histogram series: bucket counts plus sum/count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +Inf tail
        self.sum = 0.0
        self.count = 0


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
    def _child(self, label_values: tuple):
        if len(label_values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got values {label_values}"
            )
        child = self._children.get(label_values)
        if child is None:
            if self.kind == "histogram":
                child = _HistogramChild(len(self.buckets))
            else:
                child = _Child()
            self._children[label_values] = child
        return child

    def _values(self, **labels) -> tuple:
        try:
            return tuple(str(labels[name]) for name in self.label_names)
        except KeyError as missing:
            raise ValueError(
                f"{self.name} requires label {missing.args[0]!r}"
            ) from None

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    def inc(self, amount: float = 1.0, **labels) -> None:
        if self.kind != "counter":
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError("counters only go up")
        self._child(self._values(**labels)).value += amount

    def set(self, value: float, **labels) -> None:
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self._child(self._values(**labels)).value = float(value)

    def observe(self, value: float, **labels) -> None:
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        child = self._child(self._values(**labels))
        index = len(self.buckets)  # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        child.bucket_counts[index] += 1
        child.sum += float(value)
        child.count += 1

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

    def get(self, name: str) -> MetricFamily:
        return self._families[name]

    def quantile(self, name: str, q: float, **labels) -> float:
        """Nearest-rank quantile of a registered histogram's child."""
        return self._families[name].quantile(q, **labels)

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


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "histogram_quantile",
]
