"""``trace`` (record a simulated serving scenario) and ``obs analyze |
report | diff`` (trace analytics): the scenario flags they share, and
each command's own flags beside its handler."""

import argparse

from repro.analysis.report import format_table
from repro.cli.common import (ACCELERATOR_NAMES, count, load_json, model_name,
                              non_negative, read, write, write_obs_outputs)
from repro.core.config import ABLATIONS


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The trace scenario's knobs (``trace`` and ``obs analyze|report``)."""
    p.add_argument("--model", type=model_name, default="dit")
    p.add_argument("--ablation", default="all", choices=ABLATIONS)
    p.add_argument("--accelerator", default="exion24",
                   choices=ACCELERATOR_NAMES,
                   help="latency model pricing ticks and arrivals")
    p.add_argument("--continuous", action="store_true",
                   help="run the continuous-batching server "
                        "(joins/preemptions/evictions) instead of "
                        "drain-and-refill micro-batching")
    p.add_argument("--requests", type=count, default=8)
    p.add_argument("--batch-size", type=count, default=2)
    p.add_argument("--iterations", type=count, default=None,
                   help="denoising iterations (default: paper scale)")
    p.add_argument("--seed", type=int, default=0,
                   help="first request seed; same seed -> "
                        "byte-identical trace")


def _run_scenario(args: argparse.Namespace, **extra):
    """Run the trace scenario the shared scenario flags describe;
    returns ``(observer, summary)``."""
    from repro.obs import Observer, run_trace_scenario

    observer = Observer()
    summary = run_trace_scenario(
        model=args.model, ablation=args.ablation, accelerator=args.accelerator,
        continuous=args.continuous, requests=args.requests,
        iterations=args.iterations, batch_size=args.batch_size, seed=args.seed,
        observer=observer, **extra,
    )
    return observer, summary


def _cmd_trace(args: argparse.Namespace) -> int:
    observer, summary = _run_scenario(args)
    write_obs_outputs(observer, metrics_out=args.metrics_out, trace_out=args.out,
                      events_out=args.events_out)
    for key, value in summary.items():
        print(f"  {key:22s} {value}")
    return 0


def add_trace(sub) -> None:
    trc = sub.add_parser(
        "trace",
        help="emit a deterministic Chrome/Perfetto trace of a simulated "
             "serving scenario",
    )
    _add_scenario_flags(trc)
    trc.add_argument("--out", default="trace.json",
                     help="Chrome trace-event JSON output path (open in "
                          "Perfetto or chrome://tracing)")
    trc.add_argument("--metrics-out", default=None,
                     help="also write the canonical JSON metrics snapshot")
    trc.add_argument("--events-out", default=None,
                     help="also write the flat JSONL event log")
    trc.set_defaults(func=_cmd_trace)


def _obs_build_report(args):
    """Build an :class:`AnalysisReport` for ``obs analyze``/``report``.

    With ``--input`` the trace artifact (Chrome trace JSON or event
    JSONL) is loaded from disk; otherwise the deterministic trace
    scenario runs inline, and ``--trace-out`` additionally exports its
    Chrome trace with the computed SLO alert instants appended — so the
    timeline viewer shows exactly the alerts the analyzer reported.
    """
    from repro.obs.analyze import alert_events, analyze_path, analyze_tracer, parse_slo_spec

    try:  # ``--slo`` flags -> SLOSpec list
        slos = [parse_slo_spec(spec) for spec in args.slo] if args.slo else None
    except ValueError as exc:
        raise SystemExit(f"bad --slo: {exc}")
    if args.input is not None:
        return read("--input", lambda path: analyze_path(path, slos=slos),
                    args.input)

    observer, _ = _run_scenario(args, cold_start=args.cold_start)
    report = analyze_tracer(
        observer.tracer, slos=slos,
        meta={"model": args.model, "scenario": True, "seed": args.seed},
    )
    if getattr(args, "trace_out", None):
        for name, ts_s, payload in alert_events(report.slo):
            observer.tracer.event(name, "obs/slo", ts_s, **payload)
        write_obs_outputs(observer, trace_out=args.trace_out)
    return report


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_html

    report = _obs_build_report(args)
    write(args.out, report.to_json())
    if args.html:
        write(args.html, render_html(report))
    attribution = report.attribution
    fleet = attribution.fleet_components()
    latency = attribution.latency_summary()
    rows = [
        [key.removesuffix("_ns"), f"{value / 1e6:.3f}"]
        for key, value in fleet.items()
    ]
    print(format_table(
        ["component", "ms"], rows,
        title=f"Fleet attribution ({attribution.mode} mode)",
    ))
    alerts = sum(len(doc["alerts"]) for doc in report.slo.values())
    print(f"requests {len(attribution.requests)}  "
          f"served {latency['count']}  "
          f"p95 {latency['p95_ns'] / 1e6:.3f} ms  "
          f"busy {attribution.busy_ns / 1e9:.6f} s  "
          f"critical path {report.path.total_ns / 1e9:.6f} s  "
          f"slo alerts {alerts}")
    residual = max(
        attribution.max_request_residual_ns(),
        attribution.tenant_residual_ns(),
    )
    print(f"conservation residual {residual} ns")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_html

    report = _obs_build_report(args)
    write(args.out, render_html(report, title=args.title),
          " (open in any browser; no assets needed)")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import diff_analyses
    from repro.obs.analyze.report import check_analysis

    def load(path):
        return check_analysis(load_json(path))

    base = read("base", load, args.base)
    current = read("current", load, args.current)
    diff = diff_analyses(base, current, tolerance=args.tolerance)

    for kind in ("regressions", "improvements"):
        entries = diff[kind]
        if not entries:
            continue
        print(format_table(
            ["metric", "base", "current", "delta"],
            [[e["metric"], e["base"], e["current"], e["delta"]]
             for e in entries],
            title=kind,
        ))
    for title, deltas in (
        ("component deltas (ns)", diff["attribution"]["components_ns"]),
        ("tenant tick deltas (ns)", diff["attribution"]["tenants_tick_ns"]),
    ):
        if deltas:
            print(format_table(
                ["name", "delta"], list(deltas.items()), title=title,
            ))
    print(f"{len(diff['regressions'])} regressions, "
          f"{len(diff['improvements'])} improvements, "
          f"{diff['unchanged']} unchanged")
    return 1 if diff["regressions"] else 0


def add_obs(sub) -> None:
    obs = sub.add_parser(
        "obs",
        help="trace analytics: critical path, wait attribution, "
             "per-tenant cost, SLO error budgets",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _add_obs_source_args(p):
        p.add_argument("--input", default=None,
                       help="trace artifact to analyze (Chrome trace "
                            "JSON or event JSONL); omit to run the "
                            "deterministic trace scenario inline")
        p.add_argument("--slo", action="append", default=None,
                       metavar="SPEC",
                       help="SLO spec 'name:latency:<secs>:<target>' or "
                            "'name:deadline:<target>' (repeatable; "
                            "default: latency-250ms + deadline-hit)")
        _add_scenario_flags(p)
        p.add_argument("--cold-start", action="store_true",
                       help="charge a cold-start surcharge on the "
                            "scenario's first tick")

    oba = obs_sub.add_parser(
        "analyze",
        help="produce the canonical analysis JSON (and optional HTML)",
    )
    _add_obs_source_args(oba)
    oba.add_argument("--out", default="analysis.json",
                     help="canonical analysis JSON output path")
    oba.add_argument("--html", default=None,
                     help="also render the static HTML report here")
    oba.add_argument("--trace-out", default=None,
                     help="scenario mode: also export the Chrome trace "
                          "with SLO alert instants appended")
    oba.set_defaults(func=_cmd_obs_analyze)

    obr = obs_sub.add_parser(
        "report", help="render the zero-dependency static HTML report"
    )
    _add_obs_source_args(obr)
    obr.add_argument("--out", default="report.html")
    obr.add_argument("--title", default=None)
    obr.set_defaults(func=_cmd_obs_report)

    obd = obs_sub.add_parser(
        "diff",
        help="compare two analysis JSON files; exit 1 on regressions",
    )
    obd.add_argument("base", help="baseline analysis JSON")
    obd.add_argument("current", help="current analysis JSON")
    obd.add_argument("--tolerance", type=non_negative, default=0.0,
                     help="relative movement tolerated before a metric "
                          "counts as regressed/improved")
    obd.set_defaults(func=_cmd_obs_diff)
