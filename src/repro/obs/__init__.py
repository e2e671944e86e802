"""Zero-dependency observability: metrics, traces, exporters.

Everything here is deterministic by construction — timestamps come from
the owning layer's simulated clock (never the wall clock), metric
snapshots and trace records iterate in sorted order, and all JSON is
canonical — so traces and metric dumps are byte-identical across
same-seed runs. Instrumentation is nil-by-default: hot layers accept an
optional :class:`Observer` and guard every hook with one ``is not
None`` branch, so an unobserved run does exactly the pre-obs work.
"""

from repro.obs.analyze import (
    AnalysisReport,
    TraceRecords,
    analyze_path,
    analyze_tracer,
    diff_analyses,
    render_html,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    events_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import DEFAULT_BUCKETS, MetricFamily, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.scenario import (
    drain_simulated,
    run_trace_scenario,
)
from repro.obs.trace import Event, Span, Tracer

__all__ = [
    "AnalysisReport",
    "DEFAULT_BUCKETS",
    "Event",
    "MetricFamily",
    "MetricsRegistry",
    "Observer",
    "Span",
    "TraceRecords",
    "Tracer",
    "analyze_path",
    "analyze_tracer",
    "chrome_trace",
    "chrome_trace_json",
    "diff_analyses",
    "drain_simulated",
    "events_jsonl",
    "render_html",
    "run_trace_scenario",
    "validate_chrome_trace",
]
