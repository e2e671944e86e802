"""Service-level objectives: targets, admission control, tail accounting.

An :class:`SLOPolicy` states what the fleet promises (a latency target)
and what it refuses (queue depth beyond ``max_queue_depth`` at admission,
requests older than ``timeout_s`` at dispatch). The
:class:`LatencyAccumulator` folds per-request outcomes into the
deterministic percentile summaries the :class:`~repro.cluster.report.ClusterReport`
publishes: nearest-rank percentiles over exactly the simulated values, so
two same-seed runs produce byte-identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.request import require_finite


@dataclass(frozen=True)
class SLOPolicy:
    """What the fleet promises and refuses.

    ``latency_target_s`` — attainment is the fraction of all disposed
    traffic (served *and* dropped) finishing within it (``None``
    disables attainment accounting);
    ``timeout_s`` — queued requests older than this are dropped before
    the next batch forms;
    ``max_queue_depth`` — per-replica admission bound on queued requests.
    """

    latency_target_s: Optional[float] = None
    timeout_s: Optional[float] = None
    max_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        require_finite(latency_target_s=self.latency_target_s,
                       timeout_s=self.timeout_s,
                       max_queue_depth=self.max_queue_depth)
        if self.latency_target_s is not None and self.latency_target_s <= 0:
            raise ValueError("latency_target_s must be > 0")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError("timeout_s must be >= 0")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")

    def describe(self) -> dict:
        return {
            "latency_target_s": self.latency_target_s,
            "timeout_s": self.timeout_s,
            "max_queue_depth": self.max_queue_depth,
        }


def nearest_rank(ordered, q: int):
    """Nearest-rank ``q``-th percentile of a sorted sequence: its
    ``ceil(n*q/100)``-th sample, in integer arithmetic; 0.0 when it is
    empty, so empty scenarios still serialize cleanly."""
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1] if ordered else 0.0


class LatencyAccumulator:
    """Per-request latency outcomes folded into summary statistics."""

    def __init__(self, slo: Optional[SLOPolicy] = None) -> None:
        self.slo = slo if slo is not None else SLOPolicy()
        self.waits: list = []
        self.services: list = []

    def record(self, wait_s: float, service_s: float) -> None:
        self.waits.append(float(wait_s))
        self.services.append(float(service_s))

    @property
    def latencies(self) -> list:
        return [w + s for w, s in zip(self.waits, self.services)]

    def attainment(self, dropped: int = 0) -> Optional[float]:
        """Fraction of traffic that met the latency target (None if no
        target is set).

        ``dropped`` requests count as misses: a fleet that sheds work via
        timeouts or admission control violated those requests' SLO, so
        the denominator is served *plus* dropped — otherwise tightening a
        timeout would *raise* attainment while service got worse.
        """
        target = self.slo.latency_target_s
        if target is None:
            return None
        total = len(self.waits) + dropped
        if total == 0:
            return 0.0
        within = sum(1 for v in self.latencies if v <= target)
        return within / total

    def summary(self) -> dict:
        """p50/p95/p99 latency plus the queue-wait/service breakdown."""
        # One sort per distribution serves every percentile (long traces
        # would otherwise pay an O(n log n) sort per quantile).
        latencies = sorted(self.latencies)
        waits = sorted(self.waits)
        n = len(latencies)
        return {
            "count": n,
            "latency_p50_s": nearest_rank(latencies, 50),
            "latency_p95_s": nearest_rank(latencies, 95),
            "latency_p99_s": nearest_rank(latencies, 99),
            "latency_mean_s": (sum(latencies) / n) if n else 0.0,
            "latency_max_s": latencies[-1] if latencies else 0.0,
            "wait_p50_s": nearest_rank(waits, 50),
            "wait_p99_s": nearest_rank(waits, 99),
            "wait_mean_s": (sum(waits) / n) if n else 0.0,
            "service_mean_s": (sum(self.services) / n) if n else 0.0,
        }


__all__ = ["LatencyAccumulator", "SLOPolicy"]
