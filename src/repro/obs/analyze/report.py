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

import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.canon import canonical_json
from repro.obs.analyze.attribution import (
    Attribution,
    _factorize,
    analyze_records,
)
from repro.obs.analyze.critical_path import (
    CPNode,
    CriticalPath,
    critical_path,
)
from repro.obs.analyze.records import TraceRecords
from repro.obs.analyze.slo import SLOSpec, default_slos, evaluate_slos
from repro.obs.trace import int64

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
    its member ticks (its ``positions``) in time order (covering both
    same-phase adjacency and preemption bridges). Cluster mode chains
    dispatches per replica. Edges that a noisy wall-clock trace would render invalid
    (successor starting before predecessor end) are skipped rather than
    fatal — the analyzer reports on real artifacts, it does not insist
    they be ideal.
    """
    if attribution.mode == "cluster":
        return _replica_critical_path(attribution.ticks.columns)

    nodes = {}  # key -> (key, start_ns, end_ns, label)
    edges = set()

    def add_node(key: str, start_ns: int, end_ns: int, label: str) -> None:
        if key not in nodes:
            nodes[key] = (key, start_ns, end_ns, label)

    def add_edge(u: str, v: str) -> None:
        if nodes[v][1] >= nodes[u][2]:
            edges.add((u, v))

    ticks = attribution.ticks.columns
    for request in attribution.requests:
        chain = request.positions
        if not chain:
            continue
        first_join = (
            request.intervals[0][0] if request.intervals
            else ticks.start_ns[chain[0]]
        )
        wait_key = f"wait:{request.request_id:08d}"
        if first_join > request.submit_ns:
            add_node(wait_key, request.submit_ns, first_join,
                     f"wait r{request.request_id}")
        previous = None
        for position in chain:
            key = f"tick:{ticks.span_id[position]:08d}"
            add_node(key, ticks.start_ns[position], ticks.end_ns[position],
                     ticks.phase[position])
            if previous is None and wait_key in nodes:
                add_edge(wait_key, key)
            elif previous is not None:
                add_edge(previous, key)
            previous = key
    return critical_path(nodes.values(), edges)


def _replica_critical_path(ticks) -> CriticalPath:
    """Cluster mode's critical path by one scan of the tick columns.

    A replica runs one dispatch at a time, so the dependency graph is
    disjoint chains: each replica's dispatches in ``(start_ns,
    span_id)`` order (one lexsort), a dispatch linked to the one before
    it unless it starts before that one ends. A chain's running total
    is a segment sum of the durations' ``cumsum``; the reported path
    ends at the first maximum in key order, ``tick:%08d`` strings as
    :func:`critical_path` orders them (numeric order below 10**8 span
    ids). Equal to ``critical_path`` over that graph, errors included;
    :class:`CPNode` s are built for the reported chain only.
    """
    ids = ticks.span_id
    span_id, start, end = map(int64, (ids, ticks.start_ns, ticks.end_ns))

    def key(i) -> str:
        return "tick:%08d" % ids[i]

    def smallest(positions: np.ndarray) -> int:
        """The row among ``positions`` whose key sorts first."""
        return min(positions.tolist(), key=key)

    _, inverse, counts = np.unique(
        span_id, return_inverse=True, return_counts=True
    )
    shared = np.flatnonzero(counts[inverse] > 1)
    if shared.size:
        raise ValueError(f"duplicate node key {key(smallest(shared))!r}")
    reversed_ = np.flatnonzero(end < start)
    if reversed_.size:
        i = smallest(reversed_)
        raise ValueError(f"node {key(i)!r} ends at {ticks.end_ns[i]} "
                         f"before start {ticks.start_ns[i]}")
    if not len(ids):
        return CriticalPath()

    _, replica = _factorize(ticks.replica)
    order = np.lexsort((span_id, start, replica))
    head = np.ones(len(order), dtype=bool)  # starts a chain
    head[1:] = ((replica[order[1:]] != replica[order[:-1]])
                | (start[order[1:]] < end[order[:-1]]))
    duration = (end - start)[order]
    running = np.cumsum(duration)
    chain_of = np.cumsum(head) - 1
    total = running - (running - duration)[head][chain_of]
    best = int(total.max())
    last = min(np.flatnonzero(total == best).tolist(),
               key=lambda k: key(order[k]))
    first = int(np.flatnonzero(head)[chain_of[last]])
    chain = [
        CPNode(key(i), ticks.start_ns[i], ticks.end_ns[i],
               f"{ticks.replica[i]} {ticks.phase[i]}")
        for i in order[first:last + 1].tolist()
    ]
    return CriticalPath(
        total_ns=best,
        nodes=chain,
        edges=[
            {"from": u.key, "to": v.key, "slack_ns": v.start_ns - u.end_ns}
            for u, v in zip(chain, chain[1:])
        ],
        span_ns=int(end.max() - start.min()),
    )


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _readings(doc) -> tuple:
    """What :func:`diff_analyses` compares of one document: ``(metrics,
    slo compliances, components_ns, tenant tick_ns)``. ValueError unless
    ``doc`` is an analysis document of this :data:`SCHEMA_VERSION` that
    holds every one of them, each a number."""
    if not isinstance(doc, dict):
        raise ValueError(
            f"not an analysis document: a JSON {type(doc).__name__}"
        )
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc.get('schema_version')!r} is not "
            f"{SCHEMA_VERSION}"
        )
    try:
        latency = doc["fleet"]["latency"]
        metrics = {  # metric -> (value, sign): +1 lower, -1 higher better
            **{f"latency.{q}": (latency[q], 1)
               for q in ("p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns")},
            "served": (latency["count"], -1),
            "busy_ns": (doc["busy_ns"], 1),
            "critical_path_ns": (doc["critical_path"]["total_ns"], 1),
        }
        slo = {name: entry.get("compliance", 1.0)
               for name, entry in doc["slo"].items()}
        components = dict(doc["fleet"]["components_ns"])
        tenants = {t: entry.get("tick_ns", 0)
                   for t, entry in doc["tenants"].items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(
            f"malformed analysis document ({type(exc).__name__}: {exc})"
        ) from None
    for name, value in chain(
        ((m, value) for m, (value, _) in metrics.items()),
        ((f"slo.{n}.compliance", v) for n, v in slo.items()),
        ((f"fleet.components_ns.{k}", v) for k, v in components.items()),
        ((f"tenants.{t}.tick_ns", v) for t, v in tenants.items()),
    ):
        if not isinstance(value, numbers.Real):
            raise ValueError(
                f"malformed analysis document: {name} is {value!r}"
            )
    return metrics, slo, components, tenants


def check_analysis(doc) -> dict:
    """``doc`` itself if :func:`diff_analyses` can read it, else the
    ValueError saying why not."""
    _readings(doc)
    return doc


def diff_analyses(
    base: dict, current: dict, tolerance: float = 0.0
) -> dict:
    """Compare two report documents; attribute movement to phases and
    tenants. A document :func:`check_analysis` refuses is a ValueError.

    ``tolerance`` is relative: a lower-is-better metric regresses when
    ``current > base * (1 + tolerance)`` (symmetrically for
    higher-is-better). Identical documents always diff clean.
    """
    base_metrics, base_slo, base_components, base_tenants = _readings(base)
    cur_metrics, cur_slo, cur_components, cur_tenants = _readings(current)
    checks = [  # (metric, base, current, sign)
        (metric, value, cur_metrics[metric][0], sign)
        for metric, (value, sign) in base_metrics.items()
    ]
    for name in sorted(set(base_slo) | set(cur_slo)):
        checks.append((f"slo.{name}.compliance", base_slo.get(name, 1.0),
                       cur_slo.get(name, 1.0), -1))

    regressions = []
    improvements = []
    unchanged = 0
    for metric, base_value, cur_value, sign in checks:
        if base_value == cur_value:
            unchanged += 1
            continue
        slack = tolerance * abs(base_value)
        delta = cur_value - base_value
        entry = {
            "metric": metric,
            "base": base_value,
            "current": cur_value,
            "delta": delta,
        }
        if sign * delta > slack:
            regressions.append(entry)
        elif sign * delta < -slack:
            improvements.append(entry)
        else:
            unchanged += 1

    return {
        "regressions": regressions,
        "improvements": improvements,
        "unchanged": unchanged,
        "attribution": {
            "components_ns": _delta_map(base_components, cur_components),
            "tenants_tick_ns": _delta_map(base_tenants, cur_tenants),
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
