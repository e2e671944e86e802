"""Command-line interface for the EXION reproduction.

Usage::

    python -m repro --version                      # single-sourced version
    python -m repro models                         # list benchmark models
    python -m repro generate --model dit --seed 1  # run EXION inference
    python -m repro serve --model dit --requests 16 --batch-size 8
    python -m repro cluster --replicas 4 --router jsq --rate 200
    python -m repro explore --strategy random --budget 16 --workers 4
    python -m repro simulate --model dit           # HW sim vs GPU baselines
    python -m repro program --model dit --json     # inspect the lowered IR
    python -m repro opcount                        # Fig. 4 breakdown
    python -m repro conmerge --model stable_diffusion
"""

from __future__ import annotations

import argparse
import operator
import sys

from repro.analysis.report import format_table, percent

_COMPARISONS = {">=": operator.ge, ">": operator.gt}


def _number(kind: type, op: str, bound: float):
    """An argparse type: a ``kind`` (``int`` or ``float``) that is ``op``
    ``bound``. A value breaking the rule exits 2 with ``argument --X: must
    be <op> <bound>, got <value>`` instead of a constructor traceback."""

    def parse(text: str):
        value = kind(text)
        if not _COMPARISONS[op](value, bound):  # NaN fails every rule
            raise argparse.ArgumentTypeError(
                f"must be {op} {bound}, got {value}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


#: A count of at least one: iterations, replicas, batch sizes, depths.
_count = _number(int, ">=", 1)
_positive = _number(float, ">", 0)
_non_negative = _number(float, ">=", 0)


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.workloads.specs import BENCHMARK_ORDER, EXTENDED_ORDER, get_spec

    def rows_for(names):
        rows = []
        for name in names:
            spec = get_spec(name)
            rows.append(
                [
                    name,
                    spec.task,
                    f"type {spec.network_type}",
                    spec.total_iterations,
                    f"N={spec.sparse_iters_n}",
                    percent(spec.target_inter_sparsity, 0),
                    percent(spec.target_intra_sparsity, 0),
                ]
            )
        return rows

    headers = ["name", "task", "network", "iters", "FFN-Reuse",
               "inter sparsity", "intra sparsity"]
    print(format_table(
        headers,
        rows_for(BENCHMARK_ORDER),
        title="Benchmark models (paper Table I)",
    ))
    print(format_table(
        headers,
        rows_for(EXTENDED_ORDER),
        title="Extended models (lowering-pipeline scenarios)",
    ))
    return 0


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.core.config import ExionConfig
    from repro.program import lower_plan, plan_digest, plan_json
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    config = ExionConfig.for_model(args.model).ablation(args.ablation)
    plan = lower_plan(
        spec,
        config=config,
        iterations=args.iterations,
        batch=args.batch,
    )
    if args.compile:
        return _print_compiled_plan(plan, as_json=args.json)
    if args.json:
        print(plan_json(plan), end="")
        return 0

    program = plan.program
    rows = [
        [op.name, op.kind.value, op.r, op.k, op.c, op.count,
         f"{op.macs:.3e}", op.weight_bytes]
        for op in program.ops
    ]
    print(format_table(
        ["op", "kind", "r", "k", "c", "count", "MACs", "weight bytes"],
        rows,
        title=(f"IterationProgram {program.model} "
               f"({program.scale} scale, depth {program.depth})"),
    ))
    by_kind = program.macs_by_kind()
    total = max(program.total_macs, 1)
    print(f"phase plan: {plan.iterations} iterations "
          f"({plan.dense_iterations} dense / {plan.sparse_iterations} "
          f"sparse, N={plan.sparse_iters_n}), batch={plan.batch}, "
          f"ablation={args.ablation}")
    print("MACs/iter "
          + "  ".join(f"{k}={percent(v / total)}" for k, v in by_kind.items())
          + f"  total={program.total_macs:.3e}")
    print(f"weights/iter {program.weight_bytes / 1e6:.2f} MB (INT12 packed)")
    print(f"plan digest {plan_digest(plan)}")
    return 0


def _print_compiled_plan(plan, as_json: bool = False) -> int:
    """Render ``compile_plan(plan).index_set_stats()`` (``--compile``)."""
    import json as _json

    from repro.program import compile_plan

    compiled = compile_plan(plan)
    stats = compiled.index_set_stats()
    if as_json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0

    shown = compiled.phases[:12]
    rows = [[p.index, p.dense_step,
             " ".join(str(s) for s in p.sparse_steps) or "-"]
            for p in shown]
    if len(compiled.phases) > len(shown):
        rows.append(["...", f"({len(compiled.phases) - len(shown)} more)",
                     ""])
    print(format_table(
        ["phase", "dense step", "sparse steps"],
        rows,
        title=(f"CompiledPlan {stats['model']} ({stats['scale']} scale): "
               f"{stats['iterations']} iterations -> "
               f"{stats['phases']} phases, "
               f"{stats['tile_rows']}x{stats['tile_width']} tiles"),
    ))
    ffn = stats.get("ffn")
    if ffn is not None:
        print("ffn index sets: "
              f"mask {ffn['mask_shape'][0]}x{ffn['mask_shape'][1]} "
              f"x{ffn['masks_per_phase']}/phase, "
              f"expected gather {ffn['expected_gather_size']} "
              f"({percent(1.0 - ffn['expected_sparsity'])} kept), "
              f"{ffn['tiles_per_mask']} tiles/mask, "
              f"amortized over {ffn['sparse_steps_amortizing']} "
              "sparse steps")
    attn = stats.get("attention")
    if attn is not None:
        shape = "x".join(str(d) for d in attn["score_shape"])
        print("attention index sets: "
              f"scores {shape}, keep {attn['keep_per_row']}/row "
              f"(expected keep {attn['expected_keep_size']}), "
              f"{attn['cached_weight_operands']} cached weight operands")
    if ffn is None and attn is None:
        print("base ablation: no sparse index sets to precompute")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.config import ExionConfig
    from repro.core.pipeline import ExionPipeline
    from repro.models.zoo import build_model
    from repro.workloads.metrics import psnr

    model = build_model(args.model, seed=args.model_seed,
                        total_iterations=args.iterations)
    config = ExionConfig.for_model(args.model).ablation(args.ablation)
    pipeline = ExionPipeline(model, config)
    kwargs = {"seed": args.seed}
    if args.class_label is not None:
        kwargs["class_label"] = args.class_label
    else:
        kwargs["prompt"] = args.prompt

    result = pipeline.generate(**kwargs)
    stats = result.stats
    print(f"model={args.model} ablation={args.ablation} seed={args.seed}")
    print(f"sample shape {result.sample.shape}, "
          f"range [{result.sample.min():.3f}, {result.sample.max():.3f}]")
    summary = stats.summary()
    for key, value in summary.items():
        formatted = percent(value) if isinstance(value, float) else value
        print(f"  {key:28s} {formatted}")
    if args.compare_vanilla:
        vanilla = pipeline.generate_vanilla(**kwargs)
        print(f"  PSNR vs vanilla              "
              f"{psnr(vanilla.sample, result.sample):.2f} dB")
    return 0


def _write_obs_outputs(
    observer, metrics_out=None, trace_out=None, events_out=None
) -> None:
    """Write the observer's metrics / trace / event-log files, if asked.

    ``metrics_out`` gets the canonical JSON registry snapshot. The Chrome
    trace is schema-validated before writing so a broken exporter fails
    the command instead of producing a file Perfetto rejects.
    """
    from repro.obs import (
        chrome_trace,
        chrome_trace_json,
        events_jsonl,
        validate_chrome_trace,
    )

    if trace_out is not None:
        count = validate_chrome_trace(chrome_trace(observer.tracer))
        with open(trace_out, "w", encoding="utf-8") as fh:
            fh.write(chrome_trace_json(observer.tracer))
        print(f"wrote {trace_out} ({count} trace events; "
              "open in Perfetto or chrome://tracing)")
    if metrics_out is not None:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(observer.metrics.to_json())
        print(f"wrote {metrics_out}")
    if events_out is not None:
        with open(events_out, "w", encoding="utf-8") as fh:
            fh.write(events_jsonl(observer.tracer))
        print(f"wrote {events_out}")


def _parse_tenant_weights(spec):
    """``"alice=2,bob=1"`` (or bare names, weight 1.0) -> weight dict."""
    if not spec:
        return None
    weights = {}
    for item in spec.split(","):
        name, _, value = item.strip().partition("=")
        if not name:
            raise SystemExit(f"bad --tenants entry {item!r}")
        weights[name] = float(value) if value else 1.0
    return weights


def _policy_from_args(args: argparse.Namespace, **extra):
    """The batching policy the shared serving flags describe."""
    from repro.serve import ContinuousPolicy

    return ContinuousPolicy(
        max_batch_size=args.batch_size,
        quantum=args.quantum,
        preempt=not args.no_preempt,
        aging_s=args.aging,
        max_wait_s=args.max_wait,
        **extra,
    )


def _observer_from_args(args: argparse.Namespace):
    """An :class:`Observer` when an obs output was asked for, else None."""
    if not (args.metrics_out or args.trace_out):
        return None
    from repro.obs import Observer

    return Observer()


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.core.config import ExionConfig
    from repro.serve import ContinuousServer

    config = ExionConfig.for_model(args.model).ablation(args.ablation)
    observer = _observer_from_args(args)
    drain = not args.continuous
    # --simulate ACCEL: the server reads a simulated clock and prices
    # batches/ticks with the hardware latency model, so the report (and
    # any --json/--trace-out/--metrics-out output) is byte-identical
    # across runs and machines. Generation itself still executes.
    simulated = {}
    if args.simulate is not None:
        import functools

        from repro.cluster.replica import ServiceTimeModel, SimClock
        from repro.obs.scenario import drain_simulated

        service_model = ServiceTimeModel(
            args.simulate, iterations=args.iterations
        )
        simulated = dict(
            clock=SimClock(),
            price=functools.partial(
                service_model.price, args.model, args.ablation
            ),
        )
    weights = _parse_tenant_weights(args.tenants)
    server = ContinuousServer(
        args.model,
        config=config,
        policy=_policy_from_args(args, timeout_s=args.timeout, drain=drain),
        tenant_weights=weights,
        model_seed=args.model_seed,
        total_iterations=args.iterations,
        calibrate=args.calibrate,
        calibration_seed=args.calibration_seed,
        observer=observer,
        **simulated,
    )
    tenants = sorted(weights) if weights else ["default"]
    now_fn = simulated.get("clock", time.perf_counter)
    for i in range(args.requests):
        server.submit(
            seed=args.seed + i,
            prompt=args.prompt,
            class_label=args.class_label,
            tenant=tenants[i % len(tenants)],
            deadline_s=(
                now_fn() + args.deadline
                if args.deadline is not None else None
            ),
        )
    if simulated:
        results = drain_simulated(server, simulated["clock"])
    else:
        # Serve through step() so the batching policy governs
        # dispatch: full batches go immediately, a partial tail
        # waits --max-wait.
        results = []
        while server.has_work:
            results.extend(server.step())
            if not server.last_tick_phase:  # pending but not due
                time.sleep(min(0.05, max(args.max_wait, 0.001)))
        results.sort(key=lambda r: r.request_id)
    report = server.report()

    rows = [
        [r.request_id, r.request.seed, r.request.tenant, r.batch_size,
         f"{r.result.stats.ffn_output_sparsity * 100:.1f}%",
         f"{r.result.stats.attention_output_sparsity * 100:.1f}%"]
        for r in results
    ]
    print(format_table(
        ["request", "seed", "tenant", "batch", "FFN sparsity",
         "attn sparsity"],
        rows,
        title=f"Served {args.model} ablation={args.ablation}"
              + (" (continuous)" if args.continuous else ""),
    ))
    if not args.continuous:
        print(f"batches={report.batches_served} "
              f"mean_batch={report.mean_batch_size:.2f} "
              f"throughput={report.samples_per_s:.2f} samples/s")
    else:
        # "batches" are per-iteration ticks in continuous mode, so the
        # drain-style requests/batch ratio would read as nonsense here;
        # occupancy is the meaningful utilization figure.
        print(f"throughput={report.samples_per_s:.2f} samples/s")
        print(f"ticks={report.ticks} "
              f"mean_occupancy={report.mean_occupancy:.2f} "
              f"joins={report.joins} preemptions={report.preemptions} "
              f"expired={report.requests_expired}")

    if args.json is not None:
        from repro.program.encode import canonical_json

        doc = {
            "model": args.model,
            "ablation": args.ablation,
            "continuous": args.continuous,
            "simulate": args.simulate,
            "requests_submitted": args.requests,
            "summary": report.summary(),
            "requests": [
                {
                    "request_id": r.request_id,
                    "seed": r.request.seed,
                    "tenant": r.request.tenant,
                    "priority": int(r.request.priority),
                    "batch_size": r.batch_size,
                    "wait_s": r.wait_s,
                    "service_s": r.service_s,
                    "ffn_output_sparsity":
                        r.result.stats.ffn_output_sparsity,
                    "attention_output_sparsity":
                        r.result.stats.attention_output_sparsity,
                }
                for r in results
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        print(f"wrote {args.json}")
    if observer is not None:
        _write_obs_outputs(
            observer, metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )

    if args.compare_sequential and args.requests > 0:
        from repro.core.pipeline import ExionPipeline

        # Reuse the server's cached model and (with --calibrate) threshold
        # table so the comparison isolates batching: both paths run the
        # same computation, only the loop structure differs.
        model = server.cache.model(args.model, seed=args.model_seed,
                                   total_iterations=args.iterations)
        table = None
        if args.calibrate and config.enable_ffn_reuse:
            table = server.cache.table(
                args.model, config, model_seed=args.model_seed,
                total_iterations=args.iterations,
                calibration_seed=args.calibration_seed,
            )
        pipeline = ExionPipeline(model, config, threshold_table=table)
        start = time.perf_counter()
        for i in range(args.requests):
            pipeline.generate(seed=args.seed + i, prompt=args.prompt,
                              class_label=args.class_label)
        sequential_s = time.perf_counter() - start
        seq_rate = args.requests / sequential_s
        print(f"sequential  {seq_rate:.2f} samples/s")
        print(f"speedup     {report.samples_per_s / seq_rate:.2f}x")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import (
        DiurnalProcess,
        MMPPProcess,
        PoissonProcess,
        SLOPolicy,
        WorkloadMix,
        build_replicas,
        load_trace,
        make_router,
        save_trace,
        simulate_cluster,
        synthesize_trace,
    )

    if args.trace is not None:
        requests = load_trace(args.trace)
        arrival_doc = {"process": "trace_file", "path": str(args.trace)}
    else:
        if args.arrival == "poisson":
            process = PoissonProcess(rate_rps=args.rate)
        elif args.arrival == "mmpp":
            process = MMPPProcess(
                rate_low_rps=args.rate / 4.0,
                rate_high_rps=args.rate,
                mean_dwell_s=args.dwell,
            )
        else:  # diurnal
            process = DiurnalProcess(
                base_rate_rps=args.rate / 4.0,
                peak_rate_rps=args.rate,
                period_s=args.period,
            )
        mix = WorkloadMix(
            models=tuple(args.models.split(",")), ablation=args.ablation
        )
        requests = synthesize_trace(process, args.requests, mix=mix,
                                    rng=args.seed)
        arrival_doc = process.describe()
    if args.save_trace is not None:
        save_trace(args.save_trace, requests)

    slo = SLOPolicy(
        latency_target_s=args.slo_target,
        timeout_s=args.timeout,
        max_queue_depth=args.max_queue_depth,
    )
    replicas = build_replicas(
        args.replicas,
        accelerator=args.accelerator,
        policy=_policy_from_args(args),
        execute=args.execute,
        execute_iterations=args.iterations,
        continuous=args.continuous,
        tenant_weights=_parse_tenant_weights(args.tenants),
        # Price the same (possibly truncated) schedule that is executed,
        # so reported service times match the claimed samples.
        iterations=args.iterations,
    )
    # Cluster time is simulated end to end, so the trace and metrics
    # written below are byte-deterministic per (seed, fleet).
    observer = _observer_from_args(args)
    report = simulate_cluster(
        requests,
        replicas=replicas,
        router=make_router(args.router),
        slo=slo,
        scenario={"arrival": arrival_doc, "seed": args.seed},
        observer=observer,
    )
    print(report.render())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    if observer is not None:
        _write_obs_outputs(
            observer, metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )
    return 0


def _run_scenario(args: argparse.Namespace, **extra):
    """Run the trace scenario the shared scenario flags describe;
    returns ``(observer, summary)``."""
    from repro.obs import Observer, run_trace_scenario

    observer = Observer()
    summary = run_trace_scenario(
        model=args.model,
        ablation=args.ablation,
        accelerator=args.accelerator,
        continuous=args.continuous,
        requests=args.requests,
        iterations=args.iterations,
        batch_size=args.batch_size,
        seed=args.seed,
        observer=observer,
        **extra,
    )
    return observer, summary


def _cmd_trace(args: argparse.Namespace) -> int:
    observer, summary = _run_scenario(args)
    _write_obs_outputs(
        observer,
        metrics_out=args.metrics_out,
        trace_out=args.out,
        events_out=args.events_out,
    )
    for key, value in summary.items():
        print(f"  {key:22s} {value}")
    return 0


def _parse_slo_flags(specs):
    """``--slo name:latency:<secs>:<target>`` flags -> SLOSpec list."""
    from repro.obs.analyze import parse_slo_spec

    if not specs:
        return None
    try:
        return [parse_slo_spec(spec) for spec in specs]
    except ValueError as exc:
        raise SystemExit(f"bad --slo: {exc}")


def _obs_build_report(args):
    """Build an :class:`AnalysisReport` for ``obs analyze``/``report``.

    With ``--input`` the trace artifact (Chrome trace JSON or event
    JSONL) is loaded from disk; otherwise the deterministic trace
    scenario runs inline, and ``--trace-out`` additionally exports its
    Chrome trace with the computed SLO alert instants appended — so the
    timeline viewer shows exactly the alerts the analyzer reported.
    """
    from repro.obs.analyze import alert_events, analyze_path, analyze_tracer

    slos = _parse_slo_flags(args.slo)
    if args.input is not None:
        return analyze_path(args.input, slos=slos)

    observer, _ = _run_scenario(args, cold_start=args.cold_start)
    report = analyze_tracer(
        observer.tracer, slos=slos,
        meta={"model": args.model, "scenario": True, "seed": args.seed},
    )
    if getattr(args, "trace_out", None):
        for name, ts_s, payload in alert_events(report.slo):
            observer.tracer.event(name, "obs/slo", ts_s, **payload)
        _write_obs_outputs(observer, trace_out=args.trace_out)
    return report


def _obs_print_summary(report) -> None:
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


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_html

    report = _obs_build_report(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"wrote {args.out}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(report))
        print(f"wrote {args.html}")
    _obs_print_summary(report)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_html

    report = _obs_build_report(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_html(report, title=args.title))
    print(f"wrote {args.out} (open in any browser; no assets needed)")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.analyze import diff_analyses

    with open(args.base, encoding="utf-8") as fh:
        base = _json.load(fh)
    with open(args.current, encoding="utf-8") as fh:
        current = _json.load(fh)
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


def _parse_set_expression(expression: str) -> tuple:
    """Parse one ``--set DIM=V1[,V2...]`` into ``(name, values)``."""
    import json as _json

    if "=" not in expression:
        raise SystemExit(
            f"--set expects DIM=V1[,V2...], got {expression!r}"
        )
    name, _, raw = expression.partition("=")
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(_json.loads(token))
        except ValueError:
            values.append(token)
    if not values:
        raise SystemExit(f"--set {name}= needs at least one value")
    return name.strip(), values


def _cmd_explore(args: argparse.Namespace) -> int:
    import json as _json

    from repro.explore import (
        ExploreRunner,
        GridSearch,
        PointEvaluator,
        RandomSearch,
        SearchSpace,
        cluster_space,
        default_space,
    )

    if args.space is not None:
        with open(args.space, "r", encoding="utf-8") as fh:
            space = SearchSpace.from_dict(_json.load(fh))
    elif args.cluster:
        space = cluster_space(args.model)
    else:
        space = default_space(args.model)
    for expression in args.set or []:
        name, values = _parse_set_expression(expression)
        space = space.restrict(name, values)

    if args.objectives is not None:
        objectives = tuple(
            t.strip() for t in args.objectives.split(",") if t.strip()
        )
    elif args.cluster:
        objectives = ("samples_per_s", "slo_attainment", "energy_j")
    else:
        objectives = ("latency_s", "energy_j", "accuracy_psnr_db")

    try:
        if args.strategy == "grid":
            strategy = GridSearch(levels=args.grid_levels)
        else:
            strategy = RandomSearch(budget=args.budget)
    except ValueError as exc:
        flag = "--grid-levels" if args.strategy == "grid" else "--budget"
        raise SystemExit(f"bad {flag}: {exc}")

    evaluator = PointEvaluator(
        objectives=objectives,
        model=args.model,
        iterations=args.iterations,
        base_seed=args.seed,
    )
    runner = ExploreRunner(
        space,
        strategy,
        evaluator,
        workers=args.workers,
        cache_dir=args.cache_dir,
        seed=args.seed,
    )
    report = runner.run()
    print(report.render())
    stats = runner.stats
    print(
        f"evaluated={stats.evaluated} cache_hits={stats.cache_hits} "
        f"cache_misses={stats.cache_misses} "
        f"(hit rate {stats.hit_rate * 100:.1f}%) workers={stats.workers}"
    )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines.gpu import GPUModel
    from repro.baselines.specs import EDGE_GPU, SERVER_GPU
    from repro.hw.accelerator import ExionAccelerator
    from repro.hw.profile import estimate_profile
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    profile = estimate_profile(spec, seed=0)
    accelerators = {
        "exion4": ExionAccelerator.exion4,
        "exion24": ExionAccelerator.exion24,
        "exion42": ExionAccelerator.exion42,
    }
    acc = accelerators[args.accelerator]()
    report = acc.simulate(spec, profile, batch=args.batch)
    gpu_spec = EDGE_GPU if args.accelerator == "exion4" else SERVER_GPU
    gpu = GPUModel(gpu_spec).simulate(spec, batch=args.batch)

    rows = [
        [gpu.gpu, f"{gpu.latency_s * 1e3:.3f} ms", f"{gpu.energy_j:.4f} J",
         f"{gpu.tops_per_watt:.4f}"],
        [report.accelerator, f"{report.latency_s * 1e3:.3f} ms",
         f"{report.energy_j:.4f} J", f"{report.tops_per_watt:.4f}"],
    ]
    print(format_table(
        ["device", "latency", "energy", "TOPS/W"],
        rows,
        title=f"{spec.display_name}, batch={args.batch}",
    ))
    print(f"speedup {gpu.latency_s / report.latency_s:.1f}x, "
          f"efficiency gain "
          f"{report.tops_per_watt / gpu.tops_per_watt:.1f}x")
    return 0


def _cmd_opcount(args: argparse.Namespace) -> int:
    from repro.analysis.opcount import operation_breakdown_table

    rows = operation_breakdown_table()
    print(format_table(
        ["model", "ops/iter", "qkv", "attention", "ffn", "etc"],
        [
            [
                r["model"],
                f"{r['total_ops']:.2e}",
                percent(r["qkv_share"]),
                percent(r["attention_share"]),
                percent(r["ffn_share"]),
                percent(r["etc_share"]),
            ]
            for r in rows
        ],
        title="Operation breakdown per iteration (paper Fig. 4)",
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_results,
        discover,
        format_report,
        load_results,
        run_benches,
    )

    if args.compare:
        baseline, current = args.compare
        report = compare_results(
            load_results(baseline), load_results(current),
            strict=args.strict,
        )
        print(format_report(report))
        return report.exit_code()

    registry = discover(args.benchmarks_dir)
    if args.list:
        rows = [
            [entry.name, ", ".join(entry.tags), entry.module]
            for name in registry.names()
            for entry in [registry.get(name)]
        ]
        print(format_table(
            ["bench", "tags", "module"], rows,
            title=f"Registered benches ({len(registry)})",
        ))
        return 0

    if not args.run:
        print("nothing to do: pass --list, --run, or --compare",
              file=sys.stderr)
        return 2

    results = run_benches(
        args.run, out_dir=args.out, registry=registry,
        progress=print if args.verbose else None,
    )
    rows = [
        [name, len(result.metrics), len(result.series)]
        for name, result in sorted(results.items())
    ]
    print(format_table(
        ["bench", "metrics", "series"], rows,
        title=f"Ran {len(results)} benches -> {args.out}",
    ))
    if args.show:
        for name, result in sorted(results.items()):
            print(f"\n=== {name} ===")
            print(result.render())
    return 0


def _cmd_conmerge(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.conmerge.cvg import conmerge_tiled
    from repro.workloads.generator import ffn_output_bitmask
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    mask = ffn_output_bitmask(
        min(spec.paper_tokens, 128),
        min(spec.paper_ffn_mult * spec.paper_dim, 1024),
        spec.target_inter_sparsity,
        rng=np.random.default_rng(args.seed),
    )
    result = conmerge_tiled(mask)
    print(f"{spec.display_name}: {mask.rows}x{mask.cols} mask at "
          f"{percent(mask.sparsity)} sparsity")
    print(f"  condensing : {percent(result.condense_ratio)} columns remain")
    print(f"  + merging  : {percent(result.remaining_column_ratio)} "
          f"columns remain across {result.num_blocks} tile blocks")
    print(f"  utilization: {percent(result.utilization)} of DPUs active")
    print(f"  CVG cycles : {result.cycles}")
    return 0


_ABLATIONS = ["base", "ep", "ffnr", "all"]
_ACCELERATORS = ["exion4", "exion24", "exion42"]


def _add_serving_flags(p: argparse.ArgumentParser) -> None:
    """Batching-policy and obs-output flags of ``serve`` and ``cluster``
    (times are seconds on the command's clock: wall for a real server,
    simulated for ``--simulate`` and the fleet)."""
    p.add_argument("--batch-size", type=_count, default=8)
    p.add_argument("--max-wait", type=_non_negative, default=0.0,
                   help="hold a partial batch back this many seconds")
    p.add_argument("--continuous", action="store_true",
                   help="iteration-level continuous batching: requests "
                        "join/leave the live batch at dense-phase "
                        "boundaries instead of drain-and-refill")
    p.add_argument("--quantum", type=_positive, default=1.0,
                   help="fair-queuing deficit credit per round")
    p.add_argument("--aging", type=float, default=None,
                   help="promote a queued request one priority class "
                        "per this many seconds waited")
    p.add_argument("--no-preempt", action="store_true",
                   help="disable priority preemption at boundaries")
    p.add_argument("--tenants", default=None,
                   help="tenant fair-queuing weights 'alice=2,bob=1'; "
                        "requests are assigned round-robin")
    p.add_argument("--timeout", type=_non_negative, default=None,
                   help="drop queued requests older than this")
    p.add_argument("--metrics-out", default=None,
                   help="write the canonical JSON metrics snapshot here "
                        "afterwards")
    p.add_argument("--trace-out", default=None,
                   help="write a Chrome trace-event JSON of the run here "
                        "(deterministic in simulated time)")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The trace scenario's knobs (``trace`` and ``obs analyze|report``)."""
    p.add_argument("--model", default="dit")
    p.add_argument("--ablation", default="all", choices=_ABLATIONS)
    p.add_argument("--accelerator", default="exion24",
                   choices=_ACCELERATORS,
                   help="latency model pricing ticks and arrivals")
    p.add_argument("--continuous", action="store_true",
                   help="run the continuous-batching server "
                        "(joins/preemptions/evictions) instead of "
                        "drain-and-refill micro-batching")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--batch-size", type=_count, default=2)
    p.add_argument("--iterations", type=_count, default=None,
                   help="denoising iterations (default: paper scale)")
    p.add_argument("--seed", type=int, default=0,
                   help="first request seed; same seed -> "
                        "byte-identical trace")


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="EXION (HPCA 2025) reproduction CLI"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version (single-sourced from pyproject)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list benchmark models").set_defaults(
        func=_cmd_models
    )

    gen = sub.add_parser("generate", help="run EXION inference")
    gen.add_argument("--model", default="dit")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--model-seed", type=int, default=0)
    gen.add_argument("--iterations", type=_count, default=None)
    gen.add_argument("--prompt", default="a corgi surfing a wave")
    gen.add_argument("--class-label", type=int, default=None)
    gen.add_argument("--ablation", default="all",
                     choices=_ABLATIONS)
    gen.add_argument("--compare-vanilla", action="store_true")
    gen.set_defaults(func=_cmd_generate)

    srv = sub.add_parser("serve", help="batched multi-request serving")
    srv.add_argument("--model", default="dit")
    srv.add_argument("--requests", type=int, default=8)
    _add_serving_flags(srv)
    srv.add_argument("--seed", type=int, default=0,
                     help="first request seed; request i uses seed + i")
    srv.add_argument("--model-seed", type=int, default=0,
                     help="weight-initialization seed of the served model")
    srv.add_argument("--calibration-seed", type=int, default=0,
                     help="seed of the offline threshold calibration run")
    srv.add_argument("--iterations", type=_count, default=None)
    srv.add_argument("--prompt", default=None)
    srv.add_argument("--class-label", type=int, default=None)
    srv.add_argument("--ablation", default="all",
                     choices=_ABLATIONS)
    srv.add_argument("--calibrate", action="store_true",
                     help="use an offline-calibrated threshold table")
    srv.add_argument("--compare-sequential", action="store_true")
    srv.add_argument("--deadline", type=float, default=None,
                     help="relative deadline applied to every request")
    srv.add_argument("--simulate", default=None, metavar="ACCEL",
                     choices=_ACCELERATORS,
                     help="run in simulated time: batch/tick durations "
                          "come from this accelerator's latency model, "
                          "so the report and any --json/--trace-out "
                          "output are byte-identical across runs")
    srv.add_argument("--json", default=None,
                     help="write a canonical serve-report JSON here "
                          "(deterministic with --simulate)")
    srv.set_defaults(func=_cmd_serve)

    clu = sub.add_parser(
        "cluster", help="trace-driven multi-accelerator fleet simulation"
    )
    clu.add_argument("--models", default="dit",
                     help="comma-separated benchmark models in the mix")
    clu.add_argument("--ablation", default="all",
                     choices=_ABLATIONS)
    clu.add_argument("--replicas", type=_count, default=4)
    clu.add_argument("--accelerator", default="exion24",
                     choices=_ACCELERATORS)
    clu.add_argument("--router", default="jsq",
                     choices=["round_robin", "jsq", "cache_affinity"])
    clu.add_argument("--arrival", default="poisson",
                     choices=["poisson", "mmpp", "diurnal"])
    clu.add_argument("--rate", type=_positive, default=100.0,
                     help="arrival rate in requests/s (peak rate for "
                          "mmpp/diurnal; their trough is rate/4)")
    clu.add_argument("--dwell", type=_positive, default=1.0,
                     help="mean MMPP state dwell time in seconds")
    clu.add_argument("--period", type=_positive, default=60.0,
                     help="diurnal ramp period in seconds")
    clu.add_argument("--requests", type=_number(int, ">=", 0), default=64)
    clu.add_argument("--seed", type=int, default=0,
                     help="trace seed; same seed -> byte-identical report")
    _add_serving_flags(clu)
    clu.add_argument("--slo-target", type=_positive, default=None,
                     help="latency SLO target in seconds (attainment)")
    clu.add_argument("--max-queue-depth", type=_count, default=None,
                     help="per-replica admission-control bound")
    clu.add_argument("--trace", default=None,
                     help="replay a JSONL trace file instead of synthesizing")
    clu.add_argument("--save-trace", default=None,
                     help="write the synthesized trace to a JSONL file")
    clu.add_argument("--execute", action="store_true",
                     help="actually run the numeric generation per batch "
                          "(slow; default is accounting-only)")
    clu.add_argument("--iterations", type=_count, default=None,
                     help="truncate the denoising schedule: priced by the "
                          "hw model and, with --execute, actually run")
    clu.add_argument("--json", default=None,
                     help="write the canonical ClusterReport JSON here")
    clu.set_defaults(func=_cmd_cluster)

    exp = sub.add_parser(
        "explore",
        help="parallel design-space exploration with Pareto reporting",
    )
    exp.add_argument("--space", default=None,
                     help="JSON space file (SearchSpace.to_dict layout); "
                          "default is the built-in co-design space")
    exp.add_argument("--cluster", action="store_true",
                     help="explore the fleet scenario space (replicas, "
                          "router, arrival rate) instead of the default "
                          "hardware+ablation space")
    exp.add_argument("--set", action="append", default=[],
                     metavar="DIM=V1[,V2...]",
                     help="pin or restrict a dimension inline (repeatable); "
                          "values are parsed as JSON when possible")
    exp.add_argument("--model", default="dit",
                     help="benchmark model the default space is built for")
    exp.add_argument("--strategy", default="random",
                     choices=["grid", "random"])
    exp.add_argument("--budget", type=int, default=12,
                     help="points sampled by the random strategy")
    exp.add_argument("--grid-levels", type=int, default=2,
                     help="grid levels per range dimension")
    exp.add_argument("--objectives", default=None,
                     help="comma-separated objective names (default: "
                          "latency_s,energy_j,accuracy_psnr_db; cluster "
                          "mode: samples_per_s,slo_attainment,energy_j)")
    exp.add_argument("--iterations", type=_count, default=12,
                     help="denoising iterations the objectives price")
    exp.add_argument("--workers", type=int, default=1,
                     help="evaluation worker processes")
    exp.add_argument("--cache-dir", default=None,
                     help="content-addressed evaluation cache directory "
                          "(identical points are never re-evaluated)")
    exp.add_argument("--seed", type=int, default=0,
                     help="search + evaluation seed; same seed -> "
                          "byte-identical report")
    exp.add_argument("--json", default=None,
                     help="write the canonical ExploreReport JSON here")
    exp.set_defaults(func=_cmd_explore)

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
    obd.add_argument("--tolerance", type=float, default=0.0,
                     help="relative movement tolerated before a metric "
                          "counts as regressed/improved")
    obd.set_defaults(func=_cmd_obs_diff)

    prg = sub.add_parser(
        "program",
        help="inspect the lowered iteration-program IR for a model",
    )
    prg.add_argument("--model", default="dit")
    prg.add_argument("--ablation", default="all",
                     choices=_ABLATIONS)
    prg.add_argument("--iterations", type=_count, default=None,
                     help="phase-plan length (default: the spec's count)")
    prg.add_argument("--batch", type=_count, default=1)
    prg.add_argument("--json", action="store_true",
                     help="emit the canonical byte-stable plan JSON")
    prg.add_argument("--compile", action="store_true",
                     help="compile the plan and dump its phase schedule "
                          "and expected index-set sizes (with --json: "
                          "the stats dict as JSON)")
    prg.set_defaults(func=_cmd_program)

    sim = sub.add_parser("simulate", help="hardware simulation vs GPU")
    sim.add_argument("--model", default="dit")
    sim.add_argument("--accelerator", default="exion24",
                     choices=_ACCELERATORS)
    sim.add_argument("--batch", type=_count, default=1)
    sim.set_defaults(func=_cmd_simulate)

    sub.add_parser("opcount", help="Fig. 4 operation breakdown").set_defaults(
        func=_cmd_opcount
    )

    cm = sub.add_parser("conmerge", help="ConMerge compaction demo")
    cm.add_argument("--model", default="stable_diffusion")
    cm.add_argument("--seed", type=int, default=0)
    cm.set_defaults(func=_cmd_conmerge)

    bench = sub.add_parser(
        "bench", help="structured benchmark harness (run / list / compare)"
    )
    bench.add_argument("--list", action="store_true",
                       help="list registered benches and exit")
    bench.add_argument("--run", metavar="SELECTOR", default=None,
                       help="comma-separated: 'all', bench names, tag:<tag>")
    bench.add_argument("--out", default="bench_results",
                       help="directory for BENCH_<name>.json results")
    bench.add_argument("--compare", nargs=2,
                       metavar=("BASELINE", "CURRENT"), default=None,
                       help="diff two result sets (file or directory each)")
    bench.add_argument("--strict", action="store_true",
                       help="treat missing benches/metrics as regressions")
    bench.add_argument("--benchmarks-dir", default=None,
                       help="override the benchmarks/ directory to discover")
    bench.add_argument("--show", action="store_true",
                       help="print each bench's rendered tables after running")
    bench.add_argument("--verbose", action="store_true",
                       help="print per-bench progress while running")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
