"""AnalysisReport: byte-stable analysis artifacts, diff, bench bridge.

The report is the single structured product of the analytics engine:
attribution + critical path + SLO evaluation in one canonical-JSON
document. *Canonical* means sorted keys, minimal separators, NaN/Inf
rejected, trailing newline — two runs with identical traces produce
byte-identical files, which is what the ``obs_analysis`` gate bench
pins.

:func:`diff_analyses` compares two report documents and attributes any
latency/throughput movement to phases and tenants, so a regression in
``p95`` comes annotated with "sparse tick time for tenant beta grew
1.8 ms" rather than a bare number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.canon import canonical_json
from repro.obs.analyze.attribution import Attribution, analyze_records
from repro.obs.analyze.critical_path import (
    CPNode,
    CriticalPath,
    critical_path,
)
from repro.obs.analyze.records import TraceRecords
from repro.obs.analyze.slo import SLOSpec, default_slos, evaluate_slos

SCHEMA_VERSION = 1


@dataclass
class AnalysisReport:
    """The complete analysis of one run's trace artifacts."""

    attribution: Attribution
    path: CriticalPath
    slo: dict
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        attribution = self.attribution
        fleet = attribution.fleet_components()
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": attribution.mode,
            "meta": dict(self.meta),
            "horizon_ns": attribution.horizon_ns,
            "busy_ns": attribution.busy_ns,
            "energy_nj": attribution.energy_nj,
            "fleet": {
                "components_ns": fleet,
                "outcomes": attribution.outcomes(),
                "latency": attribution.latency_summary(),
            },
            "requests": [r.to_dict() for r in attribution.requests],
            "tenants": attribution.tenants,
            "replicas": attribution.replicas,
            "critical_path": self.path.to_dict(),
            "slo": self.slo,
            "conservation": {
                "max_request_residual_ns":
                    attribution.max_request_residual_ns(),
                "tenant_residual_ns": attribution.tenant_residual_ns(),
                "other_ns_total": fleet["other_ns"],
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_bench_result(self):
        """Project the report onto the bench schema (lazy import —
        analysis must not pull the bench registry at import time)."""
        from repro.bench import BenchResult

        attribution = self.attribution
        latency = attribution.latency_summary()
        result = BenchResult(
            "obs_analysis_report",
            model=str(self.meta.get("model", "") or "trace"),
        )
        result.add_metric("requests", float(len(attribution.requests)),
                          unit="requests")
        result.add_metric("served", float(latency["count"]),
                          unit="requests")
        result.add_metric("busy_s", attribution.busy_ns / 1e9, unit="s")
        result.add_metric("latency_p95_s", latency["p95_ns"] / 1e9,
                          unit="s", direction="lower_better")
        result.add_metric(
            "max_request_residual_ns",
            float(attribution.max_request_residual_ns()),
            unit="ns", direction="lower_better", tolerance=0.0,
        )
        result.add_metric(
            "tenant_residual_ns",
            float(attribution.tenant_residual_ns()),
            unit="ns", direction="lower_better", tolerance=0.0,
        )
        result.add_metric("critical_path_s", self.path.total_ns / 1e9,
                          unit="s")
        alerts = sum(len(doc["alerts"]) for doc in self.slo.values())
        result.add_metric("slo_alerts", float(alerts), unit="alerts")
        result.add_series(
            "Fleet attribution",
            ["component", "seconds"],
            [
                [key, value / 1e9]
                for key, value in attribution.fleet_components().items()
            ],
        )
        return result


# ----------------------------------------------------------------------
# top-level entry points
# ----------------------------------------------------------------------
def analyze(
    records: TraceRecords,
    slos: Optional[Sequence[SLOSpec]] = None,
    meta: Optional[dict] = None,
) -> AnalysisReport:
    """Records -> full report (attribution, critical path, SLOs)."""
    attribution = analyze_records(records)
    path = build_critical_path(attribution)
    slo = evaluate_slos(attribution, default_slos() if slos is None
                        else list(slos))
    return AnalysisReport(
        attribution=attribution, path=path, slo=slo, meta=dict(meta or {})
    )


def analyze_path(
    path: str,
    slos: Optional[Sequence[SLOSpec]] = None,
) -> AnalysisReport:
    """Load a trace artifact (Chrome trace or JSONL) and analyze it."""
    return analyze(TraceRecords.load(path), slos=slos, meta={"source": path})


def analyze_tracer(
    tracer,
    slos: Optional[Sequence[SLOSpec]] = None,
    meta: Optional[dict] = None,
) -> AnalysisReport:
    return analyze(TraceRecords.from_tracer(tracer), slos=slos, meta=meta)


# ----------------------------------------------------------------------
# critical-path graph construction
# ----------------------------------------------------------------------
def build_critical_path(attribution: Attribution) -> CriticalPath:
    """Dependency graph from the attribution's requests and ticks.

    Serve modes: each request contributes a *wait* node (submission to
    first join) feeding its first member tick, and every request chains
    its member ticks in time order (covering both same-phase adjacency
    and preemption bridges). Cluster mode chains dispatches per
    replica. Edges that a noisy wall-clock trace would render invalid
    (successor starting before predecessor end) are skipped rather than
    fatal — the analyzer reports on real artifacts, it does not insist
    they be ideal.
    """
    nodes = {}
    edges = set()

    def add_node(key: str, start_ns: int, end_ns: int, label: str) -> None:
        if key not in nodes:
            nodes[key] = CPNode(key=key, start_ns=start_ns,
                                end_ns=end_ns, label=label)

    def add_edge(u: str, v: str) -> None:
        if nodes[v].start_ns >= nodes[u].end_ns:
            edges.add((u, v))

    if attribution.mode == "cluster":
        by_replica: dict = {}
        for tick in attribution.ticks:
            by_replica.setdefault(tick.replica, []).append(tick)
        for replica in sorted(by_replica):
            chain = sorted(by_replica[replica],
                           key=lambda t: (t.start_ns, t.span_id))
            previous = None
            for tick in chain:
                key = f"tick:{tick.span_id:08d}"
                add_node(key, tick.start_ns, tick.end_ns,
                         f"{replica} {tick.phase}")
                if previous is not None:
                    add_edge(previous, key)
                previous = key
        return critical_path(nodes.values(), sorted(edges))

    member_ticks: dict = {}
    for request in attribution.requests:
        ticks = []
        for tick in attribution.ticks:
            in_interval = any(
                j <= tick.start_ns and tick.end_ns <= l
                for j, l in request.intervals
            )
            listed = request.request_id in tick.members
            if in_interval or listed:
                ticks.append(tick)
        if ticks:
            member_ticks[request.request_id] = sorted(
                ticks, key=lambda t: (t.start_ns, t.span_id)
            )

    for request in attribution.requests:
        chain = member_ticks.get(request.request_id, [])
        if not chain:
            continue
        first_join = (
            request.intervals[0][0] if request.intervals
            else chain[0].start_ns
        )
        wait_key = f"wait:{request.request_id:08d}"
        if first_join > request.submit_ns:
            add_node(wait_key, request.submit_ns, first_join,
                     f"wait r{request.request_id}")
        previous = None
        for tick in chain:
            key = f"tick:{tick.span_id:08d}"
            add_node(key, tick.start_ns, tick.end_ns, tick.phase)
            if previous is None and wait_key in nodes:
                add_edge(wait_key, key)
            elif previous is not None:
                add_edge(previous, key)
            previous = key
    return critical_path(nodes.values(), sorted(edges))


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def diff_analyses(
    base: dict, current: dict, tolerance: float = 0.0
) -> dict:
    """Compare two report documents; attribute movement to phases and
    tenants.

    ``tolerance`` is relative: a lower-is-better metric regresses when
    ``current > base * (1 + tolerance)`` (symmetrically for
    higher-is-better). Identical documents always diff clean.
    """
    checks = []  # (metric, base, current, direction)
    base_fleet = base.get("fleet", {})
    cur_fleet = current.get("fleet", {})
    for quantile in ("p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns"):
        checks.append((
            f"latency.{quantile}",
            base_fleet.get("latency", {}).get(quantile, 0),
            cur_fleet.get("latency", {}).get(quantile, 0),
            "lower_better",
        ))
    checks.append((
        "served",
        base_fleet.get("latency", {}).get("count", 0),
        cur_fleet.get("latency", {}).get("count", 0),
        "higher_better",
    ))
    checks.append((
        "busy_ns", base.get("busy_ns", 0), current.get("busy_ns", 0),
        "lower_better",
    ))
    checks.append((
        "critical_path_ns",
        base.get("critical_path", {}).get("total_ns", 0),
        current.get("critical_path", {}).get("total_ns", 0),
        "lower_better",
    ))
    for name in sorted(
        set(base.get("slo", {})) | set(current.get("slo", {}))
    ):
        checks.append((
            f"slo.{name}.compliance",
            base.get("slo", {}).get(name, {}).get("compliance", 1.0),
            current.get("slo", {}).get(name, {}).get("compliance", 1.0),
            "higher_better",
        ))

    regressions = []
    improvements = []
    unchanged = 0
    for metric, base_value, cur_value, direction in checks:
        if base_value == cur_value:
            unchanged += 1
            continue
        slack = tolerance * abs(base_value)
        delta = cur_value - base_value
        worse = (
            delta > slack if direction == "lower_better"
            else delta < -slack
        )
        better = (
            delta < -slack if direction == "lower_better"
            else delta > slack
        )
        entry = {
            "metric": metric,
            "base": base_value,
            "current": cur_value,
            "delta": delta,
        }
        if worse:
            regressions.append(entry)
        elif better:
            improvements.append(entry)
        else:
            unchanged += 1

    component_deltas = _delta_map(
        base_fleet.get("components_ns", {}),
        cur_fleet.get("components_ns", {}),
    )
    tenant_deltas = _delta_map(
        {t: doc.get("tick_ns", 0)
         for t, doc in base.get("tenants", {}).items()},
        {t: doc.get("tick_ns", 0)
         for t, doc in current.get("tenants", {}).items()},
    )
    return {
        "regressions": regressions,
        "improvements": improvements,
        "unchanged": unchanged,
        "attribution": {
            "components_ns": component_deltas,
            "tenants_tick_ns": tenant_deltas,
        },
    }


def _delta_map(base: dict, current: dict) -> dict:
    """Non-zero deltas, largest magnitude first (ties by name)."""
    deltas = {}
    for key in set(base) | set(current):
        delta = current.get(key, 0) - base.get(key, 0)
        if delta != 0:
            deltas[key] = delta
    return dict(
        sorted(deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    )


__all__ = [
    "AnalysisReport",
    "SCHEMA_VERSION",
    "analyze",
    "analyze_path",
    "analyze_tracer",
    "build_critical_path",
    "diff_analyses",
]
