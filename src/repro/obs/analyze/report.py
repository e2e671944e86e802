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

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.canon import canonical_json
from repro.obs.analyze.attribution import Attribution, analyze_records
from repro.obs.analyze.records import TraceRecords
from repro.obs.analyze.slo import SLOSpec, default_slos, evaluate_slos
from repro.obs.trace import Table, int64

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
        """The report document, built on the first call and shared by
        every later one (:meth:`to_json`, :func:`render_html`): read it,
        never write it."""
        return self._document

    @cached_property
    def _document(self) -> dict:
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
# critical path
# ----------------------------------------------------------------------
@dataclass
class CriticalPath:
    """The longest chain of a run, kept as rows of its tick table.

    ``positions`` (int64) are the chain's ticks, after the ``wait``
    ``(request_id, submit_ns, first_join_ns)`` it starts with, if any.
    :meth:`to_dict` names the nodes (``tick:%08d`` of a span id,
    ``wait:%08d`` of a request id) and builds the per-edge slack: the
    idle gap a predecessor could absorb without moving its successor.
    """

    total_ns: int
    #: Full extent of the analyzed graph (max end - min start): the
    #: upper bound any valid critical path must respect.
    span_ns: int
    positions: np.ndarray
    wait: Optional[tuple]
    ticks: Table

    def to_dict(self) -> dict:
        ticks, positions = self.ticks.columns, self.positions
        span_id, start, end = (int64(column)[positions].tolist() for column in
                               (ticks.span_id, ticks.start_ns, ticks.end_ns))
        keys = ["tick:%08d" % i for i in span_id]
        listed = positions.tolist()
        labels = [f"{replica} {phase}" if replica else phase
                  for replica, phase in zip(map(ticks.replica.__getitem__, listed),
                                            map(ticks.phase.__getitem__, listed))]
        if self.wait is not None:
            rid, submit_ns, join_ns = self.wait
            keys.insert(0, "wait:%08d" % rid)
            labels.insert(0, f"wait r{rid}")
            start.insert(0, submit_ns)
            end.insert(0, join_ns)
        return {
            "total_ns": self.total_ns,
            "span_ns": self.span_ns,
            "nodes": [
                {"key": key, "label": label, "start_ns": start_ns,
                 "end_ns": end_ns, "duration_ns": end_ns - start_ns}
                for key, label, start_ns, end_ns in zip(keys, labels, start, end)
            ],
            "edges": [
                {"from": u, "to": v, "slack_ns": start_ns - end_ns}
                for u, v, start_ns, end_ns in zip(keys, keys[1:], start[1:], end)
            ],
        }


def build_critical_path(attribution: Attribution) -> CriticalPath:
    """The chain of ticks, longest by summed duration, that bounds the run.

    A chain is one request's, in every mode: its wait (submission to
    first join, when that is positive) then its member ticks
    (``positions``). Consecutive nodes of a chain are an edge when the
    later one starts at or after the earlier one's end; a pair a noisy
    wall-clock trace overlaps is no edge, as the analyzer reports on
    real artifacts rather than insisting they be ideal. Every tick on a
    chain and every wait is a node.

    Each node's total is its duration plus the best total among its
    predecessors, in the classic CPM order over the node keys
    (``tick:%08d`` of a span id, ``wait:%08d`` of a request id): Kahn's
    pass popping the smallest ready key, a tie between predecessors
    going to the one popped first, and the path ending at the first
    maximum in key order. That holds for any span ids, including those
    of 10**8 and up, whose keys leave numeric order.

    A span id on two ticks of the graph, or a tick that ends before it
    starts, is a ValueError naming the first such key in key order.
    """
    ticks = attribution.ticks
    columns = ticks.columns
    span_id = columns.span_id
    count = len(span_id)
    waits = []  # (request_id, submit_ns, first_join_ns), in key order
    chains = []  # per request: its wait node, if any, then its ticks
    for request in sorted(attribution.requests,
                          key=lambda r: "%08d" % r.request_id):
        positions = request.positions
        if not len(positions):
            continue
        join_ns = request.intervals[0][0]  # a member has an interval
        if join_ns > request.submit_ns:
            chains.append([count + len(waits), *positions])
            waits.append((request.request_id, request.submit_ns, join_ns))
        else:
            chains.append(positions)
    sizes = np.fromiter(map(len, chains), np.int64, len(chains))
    sequence = np.fromiter(chain.from_iterable(chains), np.int64,
                           int(sizes.sum()))
    opens = np.zeros(len(sequence), dtype=bool)
    opens[np.cumsum(sizes) - sizes] = True
    heads = np.array(waits, dtype=np.int64).reshape(-1, 3)
    start = np.concatenate([int64(columns.start_ns), heads[:, 1]])
    end = np.concatenate([int64(columns.end_ns), heads[:, 2]])

    def key(node: int) -> str:
        if node < count:
            return "tick:%08d" % span_id[node]
        return "wait:%08d" % waits[node - count][0]

    # the graph: every tick on a chain, every wait, and each consecutive
    # pair of a chain whose later node starts at or after the other's end
    on_graph = np.zeros(len(start), dtype=bool)
    on_graph[sequence] = True
    on_graph[count:] = True
    nodes = np.flatnonzero(on_graph)
    ids = int64(span_id)[nodes[nodes < count]]
    _, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    for bad, message in (
        (nodes[:len(ids)][counts[inverse] > 1], "duplicate node key {!r}"),
        (nodes[end[nodes] < start[nodes]], "node {!r} ends at {} before start {}"),
    ):
        if bad.size:
            p = min(bad.tolist(), key=key)
            raise ValueError(message.format(key(p), int(end[p]), int(start[p])))
    if not nodes.size:
        return CriticalPath(0, 0, np.zeros(0, np.int64), None, ticks)
    # relabel the graph by key rank (every tick key sorts before every
    # wait key, and below 10**8 tick keys sort as their span ids), so a
    # heap of ranks pops the smallest ready key
    keys = ids if ids.max() < 10**8 else np.char.mod("%08d", ids)
    by_key = np.concatenate([nodes[:len(ids)][np.argsort(keys, kind="stable")],
                             nodes[len(ids):]])
    size = len(by_key)
    rank = np.empty(len(start), dtype=np.int64)
    rank[by_key] = np.arange(size)
    before, after = sequence[:-1], sequence[1:]
    linked = ~opens[1:] & (start[after] >= end[before])
    pairs = np.sort(rank[before[linked]] * size + rank[after[linked]])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    predecessor, successor = np.divmod(pairs, size)
    bounds = np.searchsorted(predecessor, np.arange(size + 1)).tolist()
    pending = np.bincount(successor, minlength=size)
    ready = np.flatnonzero(pending == 0).tolist()  # sorted: a heap
    pending, successor = pending.tolist(), successor.tolist()

    duration = (end - start)[by_key].tolist()
    total, incoming, best_of = [0] * size, [-1] * size, [-1] * size
    while ready:
        u = heappop(ready)
        reach = incoming[u]  # -1 without a predecessor
        reach = total[u] = duration[u] + (reach if reach > 0 else 0)
        for v in successor[bounds[u]:bounds[u + 1]]:
            if reach > incoming[v]:  # a tie keeps the one popped first
                incoming[v], best_of[v] = reach, u
            pending[v] -= 1
            if not pending[v]:
                heappush(ready, v)

    longest = max(total)
    cursor = total.index(longest)
    path = []
    while cursor != -1:
        path.append(int(by_key[cursor]))
        cursor = best_of[cursor]
    wait = waits[path.pop() - count] if path[-1] >= count else None
    return CriticalPath(
        total_ns=longest,
        span_ns=int(end[nodes].max() - start[nodes].min()),
        positions=np.array(path[::-1], dtype=np.int64),
        wait=wait,
        ticks=ticks,
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
    higher-is-better). Identical documents always diff clean. A negative
    or non-finite ``tolerance`` is a ValueError: it would count an
    improvement as a regression, or pass every regression.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
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
    "CriticalPath",
    "SCHEMA_VERSION",
    "analyze",
    "analyze_path",
    "analyze_tracer",
    "build_critical_path",
    "diff_analyses",
]
