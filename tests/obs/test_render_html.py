"""The HTML report's request timelines, against the scan they replaced.

``_timeline_svg`` indexes ticks once; the reference below is the old
membership scan (every tick tested against every displayed request),
kept here so the two must agree byte for byte.
"""

import pytest

from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import Observer
from repro.obs.analyze import TraceRecords, analyze_tracer, render_html
from repro.obs.analyze.html import (
    _PHASE_COLORS,
    MAX_REQUEST_ROWS,
    _pct,
    _timeline_svg,
)
from repro.obs.scenario import run_trace_scenario


def _timeline_svg_reference(report, doc) -> str:
    requests = report.attribution.requests[:MAX_REQUEST_ROWS]
    span_ns = max(doc["horizon_ns"], 1)
    row_h = 14
    height = len(requests) * row_h + 4
    parts = [
        f'<svg viewBox="0 0 100 {height}" width="100%" '
        f'height="{height * 2}" preserveAspectRatio="none">'
    ]
    for index, request in enumerate(requests):
        y = index * row_h + 2
        parts.append(
            f'<rect x="{_pct(request.submit_ns, span_ns)}" y="{y}" '
            f'width="{_pct(request.latency_ns, span_ns)}" height="10" '
            f'fill="{_PHASE_COLORS["wait"]}"/>'
        )
        previous_leave = None
        for join_ns, leave_ns in request.intervals:
            if previous_leave is not None and join_ns > previous_leave:
                parts.append(
                    f'<rect x="{_pct(previous_leave, span_ns)}" y="{y}" '
                    f'width="{_pct(join_ns - previous_leave, span_ns)}" '
                    f'height="10" fill="{_PHASE_COLORS["preempt"]}"/>'
                )
            previous_leave = leave_ns
        for tick in report.attribution.ticks:
            member = (
                request.request_id in tick.members
                or any(j <= tick.start_ns and tick.end_ns <= l
                       for j, l in request.intervals)
            )
            if not member:
                continue
            color = _PHASE_COLORS.get(tick.phase, _PHASE_COLORS["other"])
            parts.append(
                f'<rect x="{_pct(tick.start_ns, span_ns)}" y="{y}" '
                f'width="{_pct(tick.duration_ns, span_ns)}" height="10" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    note = ""
    if len(report.attribution.requests) > MAX_REQUEST_ROWS:
        hidden = len(report.attribution.requests) - MAX_REQUEST_ROWS
        note = (f'<p class="note">Showing first {MAX_REQUEST_ROWS} '
                f"requests ({hidden} more omitted).</p>")
    return "".join(parts) + note


def _scenario_tracer(**kwargs):
    observer = Observer()
    run_trace_scenario(model="dit", iterations=12, observer=observer, **kwargs)
    return observer.tracer


@pytest.fixture(scope="module")
def deadline_cell():
    """The observed deadline cell of the fleet-digest grid, drain mode
    (the mode whose queue sweeps emit ``slo:deadline`` events)."""
    observer = Observer()
    trace = synthesize_trace(
        MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 240, rng=2, deadline_s=2.0
    )
    simulate_cluster(
        trace, build_replicas(2, accelerator="exion24", continuous=False),
        make_router("jsq"), slo=SLOPolicy(latency_target_s=2.0),
        observer=observer,
    )
    return observer.tracer


def _both(tracer):
    report = analyze_tracer(tracer)
    doc = report.to_dict()
    return report, _timeline_svg(report, doc), _timeline_svg_reference(report, doc)


class TestTimelineSvg:
    def test_preempted_request_paints_its_gap(self):
        report, svg, reference = _both(
            _scenario_tracer(continuous=True, requests=8)
        )
        gaps = [
            r for r in report.attribution.requests
            if any(a[1] < b[0] for a, b in zip(r.intervals, r.intervals[1:]))
        ]
        assert gaps  # a preemption left a hole between two intervals
        assert svg == reference
        assert f'fill="{_PHASE_COLORS["preempt"]}"' in svg
        assert f'fill="{_PHASE_COLORS["sparse"]}"' in svg
        assert "more omitted" not in svg

    def test_drain_rows_come_from_listed_members(self):
        report, svg, reference = _both(
            _scenario_tracer(continuous=False, requests=6)
        )
        assert any(tick.members for tick in report.attribution.ticks)
        assert svg == reference

    def test_more_rows_than_the_cap(self):
        report, svg, reference = _both(
            _scenario_tracer(continuous=True, requests=MAX_REQUEST_ROWS + 6)
        )
        assert len(report.attribution.requests) == MAX_REQUEST_ROWS + 6
        assert svg == reference
        assert svg.endswith("(6 more omitted).</p>")
        assert svg.count(f'fill="{_PHASE_COLORS["wait"]}"') == MAX_REQUEST_ROWS

    def test_cluster_cell(self, deadline_cell):
        report, svg, reference = _both(deadline_cell)
        assert report.attribution.mode == "cluster"
        assert len(report.attribution.requests) > MAX_REQUEST_ROWS
        assert svg == reference
        assert "more omitted" in svg
        assert svg in render_html(report)


def test_from_tracer_equals_the_record_round_trip(deadline_cell):
    tracer = deadline_cell
    before = len(tracer.spans)
    tracer.begin_span("never-closed", "replica/replica0", 0.25)
    try:
        direct = TraceRecords.from_tracer(tracer)
        assert direct == TraceRecords.from_records(tracer.records())
        assert len(direct.spans) == before  # the open span is skipped
        assert any(e.name == "slo:deadline" for e in direct.events)
        # Same order too, not only the same sets.
        assert [s.span_id for s in direct.spans] == [
            r["span_id"] for r in tracer.records()
            if r["type"] == "span" and r["end_s"] is not None
        ]
    finally:
        tracer.spans.pop()
