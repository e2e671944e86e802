"""The cluster run's published result: totals, tails, per-replica usage.

A :class:`ClusterReport` is everything one fleet simulation produced, in
plain JSON-serializable types. Serialization is canonical
(:meth:`ClusterReport.to_json` sorts keys and fixes separators), so two
runs over the same trace and seed emit **byte-identical** documents —
the determinism contract the cluster bench gates on.

:meth:`ClusterReport.to_bench_result` projects the report onto the
:class:`repro.bench.BenchResult` schema, so cluster scenarios flow
through the same ``BENCH_<name>.json`` artifacts, baseline comparisons
and CI gating as every other bench in the repo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table
from repro.canon import canonical_json

#: Column headers of the per-replica usage table, shared by the rendered
#: report and the ``repro.bench`` series so they cannot desynchronize.
REPLICA_USAGE_HEADERS = [
    "replica", "accelerator", "served", "batches", "mean batch",
    "utilization", "cold starts", "drops",
]


@dataclass
class ClusterReport:
    """Aggregate outcome of one trace-driven fleet simulation."""

    scenario: dict = field(default_factory=dict)
    submitted: int = 0
    served: int = 0
    admission_drops: int = 0
    timeout_drops: int = 0
    makespan_s: float = 0.0
    latency: dict = field(default_factory=dict)
    slo_attainment: Optional[float] = None
    replicas: list = field(default_factory=list)
    executed: bool = False

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        return self.admission_drops + self.timeout_drops

    @property
    def drop_rate(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.dropped / self.submitted

    @property
    def samples_per_s(self) -> float:
        """Aggregate fleet throughput in *simulated* seconds."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.served / self.makespan_s

    @property
    def mean_utilization(self) -> float:
        if not self.replicas:
            return 0.0
        return sum(r["utilization"] for r in self.replicas) / len(self.replicas)

    # ------------------------------------------------------------------
    # serialization (canonical, byte-stable per seed)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "submitted": self.submitted,
            "served": self.served,
            "admission_drops": self.admission_drops,
            "timeout_drops": self.timeout_drops,
            "drop_rate": self.drop_rate,
            "makespan_s": self.makespan_s,
            "samples_per_s": self.samples_per_s,
            "latency": dict(self.latency),
            "slo_attainment": self.slo_attainment,
            "replicas": [dict(r) for r in self.replicas],
            "executed": self.executed,
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, fixed separators, trailing newline."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterReport":
        return cls(
            scenario=dict(data.get("scenario", {})),
            submitted=int(data["submitted"]),
            served=int(data["served"]),
            admission_drops=int(data.get("admission_drops", 0)),
            timeout_drops=int(data.get("timeout_drops", 0)),
            makespan_s=float(data.get("makespan_s", 0.0)),
            latency=dict(data.get("latency", {})),
            slo_attainment=data.get("slo_attainment"),
            replicas=[dict(r) for r in data.get("replicas", [])],
            executed=bool(data.get("executed", False)),
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def summary_rows(self) -> list:
        """Headline rows for the fleet-level table."""
        lat = self.latency
        rows = [
            ["submitted", self.submitted],
            ["served", self.served],
            ["admission drops", self.admission_drops],
            ["timeout drops", self.timeout_drops],
            ["makespan", f"{self.makespan_s:.3f} s"],
            ["throughput", f"{self.samples_per_s:.2f} samples/s (sim)"],
            ["latency p50", f"{lat.get('latency_p50_s', 0.0) * 1e3:.2f} ms"],
            ["latency p95", f"{lat.get('latency_p95_s', 0.0) * 1e3:.2f} ms"],
            ["latency p99", f"{lat.get('latency_p99_s', 0.0) * 1e3:.2f} ms"],
            ["queue wait p99", f"{lat.get('wait_p99_s', 0.0) * 1e3:.2f} ms"],
            ["mean service", f"{lat.get('service_mean_s', 0.0) * 1e3:.2f} ms"],
        ]
        if self.slo_attainment is not None:
            rows.append(["SLO attainment", f"{self.slo_attainment * 100:.1f}%"])
        return rows

    def replica_rows(self) -> list:
        return [
            [
                r["name"],
                r["accelerator"],
                r["requests_served"],
                r["batches_served"],
                f"{r['mean_batch_size']:.2f}",
                f"{r['utilization'] * 100:.1f}%",
                r["cold_starts"],
                r["admission_drops"] + r["timeout_drops"],
            ]
            for r in self.replicas
        ]

    def render(self) -> str:
        """Printable report: fleet summary plus per-replica usage."""
        title = (
            f"Cluster: {self.scenario.get('router', '?')} routing, "
            f"{len(self.replicas)} x "
            f"{self.scenario.get('accelerator', '?')}"
        )
        fleet = format_table(["metric", "value"], self.summary_rows(),
                             title=title)
        per_replica = format_table(
            REPLICA_USAGE_HEADERS,
            self.replica_rows(),
            title="Per-replica usage",
        )
        return fleet + "\n\n" + per_replica

    # ------------------------------------------------------------------
    # repro.bench projection
    # ------------------------------------------------------------------
    def to_bench_result(self, name: str, tags=("cluster",)):
        """Project onto the bench schema (validates on round-trip)."""
        from repro.bench import BenchResult

        lat = self.latency
        result = BenchResult(
            name=name,
            model=",".join(self.scenario.get("models", [])) or "mix",
            tags=tuple(tags),
        )
        result.add_metric(
            "samples_per_s", self.samples_per_s, unit="samples/s",
            direction="higher_better", tolerance=0.05,
        )
        result.add_metric(
            "latency_p50_s", lat.get("latency_p50_s", 0.0), unit="s",
            direction="lower_better", tolerance=0.05,
        )
        result.add_metric(
            "latency_p95_s", lat.get("latency_p95_s", 0.0), unit="s",
            direction="lower_better", tolerance=0.05,
        )
        result.add_metric(
            "latency_p99_s", lat.get("latency_p99_s", 0.0), unit="s",
            direction="lower_better", tolerance=0.05,
        )
        # Drop rate and attainment are quantized in whole requests, so a
        # one-request shift (e.g. cross-version RNG stream drift) moves
        # them by a large relative step on small traces; their gates are
        # correspondingly loose.
        result.add_metric(
            "drop_rate", self.drop_rate,
            direction="lower_better", tolerance=0.10,
        )
        result.add_metric(
            "mean_utilization", self.mean_utilization,
            direction="higher_better", tolerance=0.10,
        )
        if self.slo_attainment is not None:
            result.add_metric(
                "slo_attainment", self.slo_attainment,
                direction="higher_better", tolerance=0.25,
            )
        result.add_series(
            "Fleet summary",
            ["metric", "value"],
            [[k, str(v)] for k, v in self.summary_rows()],
        )
        result.add_series(
            "Per-replica usage",
            REPLICA_USAGE_HEADERS,
            self.replica_rows(),
        )
        result.add_note(
            "scenario: "
            + json.dumps(self.scenario, sort_keys=True)
        )
        return result


__all__ = ["ClusterReport", "REPLICA_USAGE_HEADERS"]
