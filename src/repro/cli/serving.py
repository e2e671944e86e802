"""``serve`` (one batched server) and ``cluster`` (a simulated fleet):
the batching-policy flags they share, and each command's own flags
beside its handler."""

import argparse
import math

from repro.analysis.report import format_table
from repro.cli.common import (ACCELERATOR_NAMES, count, model_name, model_names,
                              non_negative, number, positive, read, write,
                              write_obs_outputs)
from repro.core.config import ABLATIONS


def _tenants(text: str):
    """An argparse type: ``"alice=2,bob=1"`` (or bare names, weight 1.0)
    -> weight dict; each weight a finite number > 0."""
    if not text:
        return None
    weights = {}
    for item in text.split(","):
        name, _, value = item.strip().partition("=")
        if not name:
            raise argparse.ArgumentTypeError(f"bad entry {item!r}")
        try:
            weight = float(value) if value else 1.0
        except ValueError:
            weight = math.nan
        if not 0.0 < weight < math.inf:
            raise argparse.ArgumentTypeError(
                f"weight of {name!r} must be a finite number > 0, "
                f"got {value!r}"
            )
        weights[name] = weight
    return weights


def _add_serving_flags(p: argparse.ArgumentParser) -> None:
    """Batching-policy and obs-output flags of ``serve`` and ``cluster``
    (times are seconds on the command's clock: wall for a real server,
    simulated for ``--simulate`` and the fleet)."""
    p.add_argument("--batch-size", type=count, default=8)
    p.add_argument("--max-wait", type=non_negative, default=0.0,
                   help="hold a partial batch back this many seconds")
    p.add_argument("--continuous", action="store_true",
                   help="iteration-level continuous batching: requests "
                        "join/leave the live batch at dense-phase "
                        "boundaries instead of drain-and-refill")
    p.add_argument("--quantum", type=positive, default=1.0,
                   help="fair-queuing deficit credit per round")
    p.add_argument("--aging", type=positive, default=None,
                   help="promote a queued request one priority class "
                        "per this many seconds waited")
    p.add_argument("--no-preempt", action="store_true",
                   help="disable priority preemption at boundaries")
    p.add_argument("--tenants", type=_tenants, default=None,
                   help="tenant fair-queuing weights 'alice=2,bob=1'; "
                        "requests are assigned round-robin")
    p.add_argument("--timeout", type=non_negative, default=None,
                   help="drop queued requests older than this")
    p.add_argument("--metrics-out", default=None,
                   help="write the canonical JSON metrics snapshot here "
                        "afterwards")
    p.add_argument("--trace-out", default=None,
                   help="write a Chrome trace-event JSON of the run here "
                        "(deterministic in simulated time)")


def _policy_from_args(args: argparse.Namespace, **extra):
    """The batching policy the shared serving flags describe."""
    from repro.serve import ContinuousPolicy

    return ContinuousPolicy(
        max_batch_size=args.batch_size, quantum=args.quantum,
        preempt=not args.no_preempt, aging_s=args.aging, max_wait_s=args.max_wait,
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
    server = ContinuousServer(
        args.model,
        config=config,
        policy=_policy_from_args(args, timeout_s=args.timeout, drain=drain),
        tenant_weights=args.tenants,
        model_seed=args.model_seed,
        total_iterations=args.iterations,
        calibrate=args.calibrate,
        calibration_seed=args.calibration_seed,
        observer=observer,
        **simulated,
    )
    tenants = sorted(args.tenants) if args.tenants else ["default"]
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
        print(f"batches={report.ticks} "
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
        from repro.canon import canonical_json

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
        write(args.json, canonical_json(doc))
    if observer is not None:
        write_obs_outputs(observer, metrics_out=args.metrics_out, trace_out=args.trace_out)

    if args.compare_sequential:
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


def add_serve(sub) -> None:
    srv = sub.add_parser("serve", help="batched multi-request serving")
    srv.add_argument("--model", type=model_name, default="dit")
    srv.add_argument("--requests", type=count, default=8)
    _add_serving_flags(srv)
    srv.add_argument("--seed", type=int, default=0,
                     help="first request seed; request i uses seed + i")
    srv.add_argument("--model-seed", type=int, default=0,
                     help="weight-initialization seed of the served model")
    srv.add_argument("--calibration-seed", type=int, default=0,
                     help="seed of the offline threshold calibration run")
    srv.add_argument("--iterations", type=count, default=None)
    conditioning = srv.add_mutually_exclusive_group()
    conditioning.add_argument("--prompt", default=None)
    conditioning.add_argument("--class-label", type=int, default=None)
    srv.add_argument("--ablation", default="all", choices=ABLATIONS)
    srv.add_argument("--calibrate", action="store_true",
                     help="use an offline-calibrated threshold table")
    srv.add_argument("--compare-sequential", action="store_true")
    srv.add_argument("--deadline", type=non_negative, default=None,
                     help="relative deadline applied to every request")
    srv.add_argument("--simulate", default=None, metavar="ACCEL",
                     choices=ACCELERATOR_NAMES,
                     help="run in simulated time: batch/tick durations "
                          "come from this accelerator's latency model, "
                          "so the report and any --json/--trace-out "
                          "output are byte-identical across runs")
    srv.add_argument("--json", default=None,
                     help="write a canonical serve-report JSON here "
                          "(deterministic with --simulate)")
    srv.set_defaults(func=_cmd_serve)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import (DiurnalProcess, MMPPProcess, PoissonProcess, SLOPolicy,
                               WorkloadMix, build_replicas, load_trace, make_router,
                               save_trace, simulate_cluster, synthesize_trace)

    if args.tenants is not None and not args.continuous:
        raise SystemExit("bad --tenants: tenant weights need --continuous")
    if args.trace is not None:
        requests = read("--trace", load_trace, args.trace)
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

    slo = SLOPolicy(latency_target_s=args.slo_target, timeout_s=args.timeout,
                    max_queue_depth=args.max_queue_depth)
    replicas = build_replicas(
        args.replicas,
        accelerator=args.accelerator,
        policy=_policy_from_args(args),
        execute=args.execute,
        continuous=args.continuous,
        tenant_weights=args.tenants,
        # Price the same (possibly truncated) schedule that is executed,
        # so reported service times match the claimed samples.
        iterations=args.iterations,
    )
    # Cluster time is simulated end to end, so the trace and metrics
    # written below are byte-deterministic per (seed, fleet).
    observer = _observer_from_args(args)
    report = simulate_cluster(
        requests, replicas=replicas, router=make_router(args.router), slo=slo,
        scenario={"arrival": arrival_doc, "seed": args.seed}, observer=observer,
    )
    print(report.render())
    if args.json is not None:
        write(args.json, report.to_json())
    if observer is not None:
        write_obs_outputs(observer, metrics_out=args.metrics_out, trace_out=args.trace_out)
    return 0


def add_cluster(sub) -> None:
    clu = sub.add_parser(
        "cluster", help="trace-driven multi-accelerator fleet simulation"
    )
    clu.add_argument("--models", type=model_names, default="dit",
                     help="comma-separated benchmark models in the mix")
    clu.add_argument("--ablation", default="all", choices=ABLATIONS)
    clu.add_argument("--replicas", type=count, default=4)
    clu.add_argument("--accelerator", default="exion24",
                     choices=ACCELERATOR_NAMES)
    clu.add_argument("--router", default="jsq",
                     choices=["round_robin", "jsq", "cache_affinity"])
    clu.add_argument("--arrival", default="poisson",
                     choices=["poisson", "mmpp", "diurnal"])
    clu.add_argument("--rate", type=positive, default=100.0,
                     help="arrival rate in requests/s (peak rate for "
                          "mmpp/diurnal; their trough is rate/4)")
    clu.add_argument("--dwell", type=positive, default=1.0,
                     help="mean MMPP state dwell time in seconds")
    clu.add_argument("--period", type=positive, default=60.0,
                     help="diurnal ramp period in seconds")
    clu.add_argument("--requests", type=number(int, ">=", 0), default=64)
    clu.add_argument("--seed", type=int, default=0,
                     help="trace seed; same seed -> byte-identical report")
    _add_serving_flags(clu)
    clu.add_argument("--slo-target", type=positive, default=None,
                     help="latency SLO target in seconds (attainment)")
    clu.add_argument("--max-queue-depth", type=count, default=None,
                     help="per-replica admission-control bound")
    clu.add_argument("--trace", default=None,
                     help="replay a JSONL trace file instead of synthesizing")
    clu.add_argument("--save-trace", default=None,
                     help="write the synthesized trace to a JSONL file")
    clu.add_argument("--execute", action="store_true",
                     help="actually run the numeric generation per batch "
                          "(slow; default is accounting-only)")
    clu.add_argument("--iterations", type=count, default=None,
                     help="truncate the denoising schedule: priced by the "
                          "hw model and, with --execute, actually run")
    clu.add_argument("--json", default=None,
                     help="write the canonical ClusterReport JSON here")
    clu.set_defaults(func=_cmd_cluster)
