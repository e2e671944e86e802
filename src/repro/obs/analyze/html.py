"""Zero-dependency static HTML report for an :class:`AnalysisReport`.

One self-contained page — inline CSS, inline SVG, no scripts, no
external assets — rendered as a deterministic string: fixed-precision
number formatting and sorted iteration everywhere, so the same report
document always produces byte-identical HTML (the ``obs_analysis``
gate bench pins this). Timelines use percentage coordinates over the
trace horizon, so the page scales to any simulated duration.
"""

from __future__ import annotations

import html as _html
from typing import Optional

from repro.obs.analyze.report import AnalysisReport
from repro.obs.trace import int64

#: Cap on per-request timeline rows / table rows (noted when exceeded).
MAX_REQUEST_ROWS = 64

_PHASE_COLORS = {
    "dense": "#4477aa",
    "sparse": "#66ccee",
    "batch": "#4477aa",
    "cold": "#aa3377",
    "wait": "#ccbb44",
    "preempt": "#ee6677",
    "other": "#bbbbbb",
}

_COMPONENT_LABELS = {
    "queue_wait_ns": "queue wait",
    "join_wait_ns": "join wait",
    "preempt_ns": "preemption",
    "dense_ns": "dense ticks",
    "sparse_ns": "sparse ticks",
    "cold_ns": "cold start",
    "batch_ns": "batch service",
    "other_ns": "other",
}

_CSS = """
body{font-family:system-ui,sans-serif;margin:1.5rem;color:#222}
h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.6rem}
table{border-collapse:collapse;font-size:0.85rem}
th,td{border:1px solid #ddd;padding:0.25rem 0.55rem;text-align:right}
th{background:#f4f4f4}td.l,th.l{text-align:left}
svg{display:block;margin:0.4rem 0}
.lane{font-size:0.7rem}
.legend span{display:inline-block;margin-right:0.9rem;font-size:0.8rem}
.legend i{display:inline-block;width:0.8rem;height:0.8rem;
margin-right:0.25rem;vertical-align:middle}
.note{color:#666;font-size:0.8rem}
""".strip()


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _pct(value_ns: int, span_ns: int) -> str:
    if span_ns <= 0:
        return "0.0000"
    return f"{value_ns / span_ns * 100.0:.4f}"


def _ms(value_ns: int) -> str:
    return f"{value_ns / 1e6:.3f}"


def render_html(report: AnalysisReport, title: Optional[str] = None) -> str:
    doc = report.to_dict()
    out = []
    heading = title or f"Trace analysis ({doc['mode']})"
    out.append("<!DOCTYPE html>")
    out.append('<html lang="en"><head><meta charset="utf-8">')
    out.append(f"<title>{_esc(heading)}</title>")
    out.append(f"<style>{_CSS}</style></head><body>")
    out.append(f"<h1>{_esc(heading)}</h1>")
    out.append(_summary_block(doc))
    out.append(_legend_block())
    if doc["requests"]:
        out.append("<h2>Request timelines</h2>")
        out.append(_timeline_svg(report, doc))
    if report.attribution.ticks:
        out.append("<h2>Device timeline</h2>")
        out.append(_tick_strip_svg(report, doc))
    out.append("<h2>Fleet attribution</h2>")
    out.append(_components_table(doc))
    if doc["tenants"]:
        out.append("<h2>Tenant cost accounting</h2>")
        out.append(_tenants_table(doc))
    if doc["requests"]:
        out.append("<h2>Requests</h2>")
        out.append(_requests_table(doc))
    out.append("<h2>Critical path</h2>")
    out.append(_critical_path_block(doc))
    if doc["slo"]:
        out.append("<h2>SLO error budgets</h2>")
        out.append(_slo_block(doc))
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def _summary_block(doc: dict) -> str:
    latency = doc["fleet"]["latency"]
    outcomes = ", ".join(
        f"{count} {_esc(outcome)}"
        for outcome, count in doc["fleet"]["outcomes"].items()
    ) or "none"
    rows = [
        ("Requests", outcomes),
        ("Horizon", f"{_ms(doc['horizon_ns'])} ms"),
        ("Device busy", f"{_ms(doc['busy_ns'])} ms"),
        ("Energy", f"{doc['energy_nj'] / 1e9:.6f} J"),
        ("Latency p50 / p95 / p99",
         f"{_ms(latency['p50_ns'])} / {_ms(latency['p95_ns'])} / "
         f"{_ms(latency['p99_ns'])} ms"),
        ("Critical path",
         f"{_ms(doc['critical_path']['total_ns'])} ms over "
         f"{len(doc['critical_path']['nodes'])} nodes"),
        ("Conservation",
         f"max request residual {doc['conservation']['max_request_residual_ns']} ns, "
         f"tenant residual {doc['conservation']['tenant_residual_ns']} ns"),
    ]
    cells = "".join(
        f'<tr><th class="l">{_esc(k)}</th><td class="l">{v}</td></tr>'
        for k, v in rows
    )
    return f"<table>{cells}</table>"


def _legend_block() -> str:
    parts = "".join(
        f'<span><i style="background:{color}"></i>{_esc(name)}</span>'
        for name, color in sorted(_PHASE_COLORS.items())
    )
    return f'<div class="legend">{parts}</div>'


def _timeline_svg(report: AnalysisReport, doc: dict) -> str:
    requests = report.attribution.requests[:MAX_REQUEST_ROWS]
    span_ns = max(doc["horizon_ns"], 1)
    ticks = report.attribution.ticks.columns
    start = int64(ticks.start_ns)
    duration = int64(ticks.end_ns) - start
    row_h = 14
    height = len(requests) * row_h + 4
    parts = [
        f'<svg viewBox="0 0 100 {height}" width="100%" '
        f'height="{height * 2}" preserveAspectRatio="none">'
    ]
    for index, request in enumerate(requests):
        y = index * row_h + 2
        # Whole lifetime in wait color; active segments then overpaint.
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
        # member ticks in tick order (later overpaints), as _pct would
        # place them: the same float quotients, formatted the same way
        positions = request.positions
        parts.extend(
            f'<rect x="{x:.4f}" y="{y}" width="{width:.4f}" height="10" '
            f'fill="{_PHASE_COLORS.get(phase, _PHASE_COLORS["other"])}"/>'
            for x, width, phase in zip(
                (start[positions] / span_ns * 100.0).tolist(),
                (duration[positions] / span_ns * 100.0).tolist(),
                map(ticks.phase.__getitem__, positions.tolist()),
            )
        )
    parts.append("</svg>")
    note = ""
    if len(report.attribution.requests) > MAX_REQUEST_ROWS:
        hidden = len(report.attribution.requests) - MAX_REQUEST_ROWS
        note = (f'<p class="note">Showing first {MAX_REQUEST_ROWS} '
                f"requests ({hidden} more omitted).</p>")
    return "".join(parts) + note


def _tick_strip_svg(report: AnalysisReport, doc: dict) -> str:
    span_ns = max(doc["horizon_ns"], 1)
    parts = ['<svg viewBox="0 0 100 16" width="100%" height="32" '
             'preserveAspectRatio="none">']
    ticks = report.attribution.ticks.columns
    for start_ns, end_ns, phase in zip(ticks.start_ns, ticks.end_ns,
                                       ticks.phase):
        color = _PHASE_COLORS.get(phase, _PHASE_COLORS["other"])
        parts.append(
            f'<rect x="{_pct(start_ns, span_ns)}" y="2" '
            f'width="{_pct(end_ns - start_ns, span_ns)}" height="12" '
            f'fill="{color}" stroke="#fff" stroke-width="0.05"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _components_table(doc: dict) -> str:
    components = doc["fleet"]["components_ns"]
    total = sum(components.values()) or 1
    rows = "".join(
        f'<tr><td class="l">{_esc(_COMPONENT_LABELS.get(key, key))}</td>'
        f"<td>{_ms(value)}</td>"
        f"<td>{value / total * 100.0:.2f}%</td></tr>"
        for key, value in components.items()
    )
    return (
        '<table><tr><th class="l">component</th><th>ms</th>'
        f"<th>share</th></tr>{rows}</table>"
    )


def _tenants_table(doc: dict) -> str:
    busy = doc["busy_ns"] or 1
    rows = []
    for tenant, info in doc["tenants"].items():
        phases = ", ".join(
            f"{_esc(phase)} {_ms(value)}"
            for phase, value in info["by_phase"].items()
        ) or "-"
        rows.append(
            f'<tr><td class="l">{_esc(tenant)}</td>'
            f"<td>{info['requests']}</td><td>{info['served']}</td>"
            f"<td>{_ms(info['tick_ns'])}</td>"
            f"<td>{info['tick_ns'] / busy * 100.0:.2f}%</td>"
            f"<td>{info['energy_nj'] / 1e9:.6f}</td>"
            f'<td class="l">{phases}</td></tr>'
        )
    return (
        '<table><tr><th class="l">tenant</th><th>requests</th>'
        "<th>served</th><th>tick ms</th><th>busy share</th>"
        '<th>energy J</th><th class="l">by phase (ms)</th></tr>'
        + "".join(rows) + "</table>"
    )


def _requests_table(doc: dict) -> str:
    rows = []
    for request in doc["requests"][:MAX_REQUEST_ROWS]:
        components = request["components"]
        top = sorted(
            ((v, k) for k, v in components.items() if v > 0), reverse=True
        )[:3]
        breakdown = ", ".join(
            f"{_esc(_COMPONENT_LABELS.get(key, key))} {_ms(value)}"
            for value, key in top
        ) or "-"
        deadline = ("yes" if request["deadline_met"]
                    else "no" if request["deadline_met"] is False else "-")
        rows.append(
            f"<tr><td>{request['request_id']}</td>"
            f'<td class="l">{_esc(request["tenant"])}</td>'
            f"<td>{request['priority']}</td>"
            f'<td class="l">{_esc(request["outcome"])}</td>'
            f"<td>{_ms(request['latency_ns'])}</td>"
            f"<td>{deadline}</td>"
            f'<td class="l">{breakdown}</td></tr>'
        )
    note = ""
    if len(doc["requests"]) > MAX_REQUEST_ROWS:
        note = (f'<p class="note">Showing first {MAX_REQUEST_ROWS} of '
                f"{len(doc['requests'])} requests.</p>")
    return (
        '<table><tr><th>id</th><th class="l">tenant</th><th>prio</th>'
        '<th class="l">outcome</th><th>latency ms</th><th>deadline</th>'
        '<th class="l">top components (ms)</th></tr>'
        + "".join(rows) + "</table>" + note
    )


def _critical_path_block(doc: dict) -> str:
    path = doc["critical_path"]
    if not path["nodes"]:
        return '<p class="note">No spans to chain.</p>'
    slack = {edge["to"]: edge["slack_ns"] for edge in path["edges"]}
    rows = "".join(
        f'<tr><td class="l">{_esc(node["key"])}</td>'
        f'<td class="l">{_esc(node["label"])}</td>'
        f"<td>{_ms(node['duration_ns'])}</td>"
        f"<td>{_ms(slack.get(node['key'], 0))}</td></tr>"
        for node in path["nodes"]
    )
    return (
        f"<p>Longest chain: <b>{_ms(path['total_ns'])} ms</b> across "
        f"{len(path['nodes'])} nodes (trace extent "
        f"{_ms(path['span_ns'])} ms).</p>"
        '<table><tr><th class="l">node</th><th class="l">label</th>'
        f"<th>ms</th><th>slack ms</th></tr>{rows}</table>"
    )


def _slo_block(doc: dict) -> str:
    parts = []
    for name, result in doc["slo"].items():
        spec = result["spec"]
        target = f"{spec['target'] * 100.0:.2f}%"
        detail = (f"latency &le; {_ms(spec['threshold_ns'])} ms"
                  if spec["kind"] == "latency" else "deadline hit")
        parts.append(
            f'<h3>{_esc(name)} <span class="note">({detail}, target '
            f"{target})</span></h3>"
        )
        parts.append(
            f"<p>Compliance <b>{result['compliance'] * 100.0:.2f}%</b> "
            f"over {result['total']} samples; budget consumed "
            f"{result['budget_consumed_ratio'] * 100.0:.1f}%; "
            f"{len(result['alerts'])} alert(s).</p>"
        )
        if result["burn_series"]:
            parts.append(_burn_svg(result))
        for alert in result["alerts"]:
            parts.append(
                f'<p class="note">alert at {_ms(alert["ts_ns"])} ms: '
                f"burn long {alert['burn_long']:.2f}, short "
                f"{alert['burn_short']:.2f}</p>"
            )
    return "".join(parts)


def _burn_svg(result: dict) -> str:
    series = result["burn_series"]
    threshold = result["windows"]["burn_threshold"]
    t0 = series[0][0]
    t1 = max(series[-1][0], t0 + 1)
    peak = max(max(long, short) for _ts, long, short in series)
    top = max(peak, threshold) * 1.1 or 1.0

    def x(ts: int) -> str:
        return f"{(ts - t0) / (t1 - t0) * 100.0:.4f}"

    def y(value: float) -> str:
        return f"{30.0 - value / top * 28.0:.4f}"

    long_points = " ".join(
        f"{x(ts)},{y(long)}" for ts, long, _short in series
    )
    short_points = " ".join(
        f"{x(ts)},{y(short)}" for ts, _long, short in series
    )
    return (
        '<svg viewBox="0 0 100 32" width="100%" height="96" '
        'preserveAspectRatio="none">'
        f'<line x1="0" y1="{y(threshold)}" x2="100" y2="{y(threshold)}" '
        'stroke="#ee6677" stroke-width="0.3" stroke-dasharray="2,1"/>'
        f'<polyline points="{long_points}" fill="none" stroke="#4477aa" '
        'stroke-width="0.5"/>'
        f'<polyline points="{short_points}" fill="none" stroke="#66ccee" '
        'stroke-width="0.5"/>'
        "</svg>"
        '<p class="note">burn rate: dark = long window, light = short '
        "window, dashed = alert threshold</p>"
    )


__all__ = ["MAX_REQUEST_ROWS", "render_html"]
