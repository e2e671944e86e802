"""Deterministic trace analytics over the observability artifacts.

Consumes live :class:`~repro.obs.trace.Tracer` objects, the JSONL event
log, or Chrome trace-event documents and produces byte-stable analyses:
per-request wait/service attribution (integer-nanosecond exact),
per-tenant cost accounting, the critical path with per-edge slack (one
pass over the tick table in every mode: the longest chain of a
request's wait and ticks, or of a replica's dispatches), and SLO
error-budget evaluation with multi-window burn-rate alerts. See
:mod:`repro.obs.analyze.report` for the top-level entry points.
"""

from repro.obs.analyze.attribution import (
    Attribution,
    COMPONENTS,
    RequestAttribution,
    analyze_records,
)
from repro.obs.analyze.html import render_html
from repro.obs.analyze.records import (
    EventRec,
    NS_PER_S,
    SpanRec,
    TraceRecords,
    to_ns,
)
from repro.obs.analyze.report import (
    AnalysisReport,
    CriticalPath,
    analyze,
    analyze_path,
    analyze_tracer,
    build_critical_path,
    diff_analyses,
)
from repro.obs.analyze.slo import (
    SLOSpec,
    alert_events,
    default_slos,
    evaluate_slos,
    parse_slo_spec,
)

__all__ = [
    "AnalysisReport",
    "Attribution",
    "COMPONENTS",
    "CriticalPath",
    "EventRec",
    "NS_PER_S",
    "RequestAttribution",
    "SLOSpec",
    "SpanRec",
    "TraceRecords",
    "alert_events",
    "analyze",
    "analyze_path",
    "analyze_records",
    "analyze_tracer",
    "build_critical_path",
    "default_slos",
    "diff_analyses",
    "evaluate_slos",
    "parse_slo_spec",
    "render_html",
    "to_ns",
]
