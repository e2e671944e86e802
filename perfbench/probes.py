"""Per-layer probes: small, fixed pieces of work timed at a layer's door.

A traced run of any workload runs all of them, because a result lists
every per-layer metric. They are sized by ``scale`` (the op-count scale
factor) and take their inputs from ``--seed`` like the workloads. Each
call into ``repro`` sits in a recorder span, so the trace file shows the
same timings the metrics are computed from.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro import ExionConfig
from repro.cluster import (
    PoissonProcess,
    ServiceTimeModel,
    WorkloadMix,
    synthesize_trace,
)
from repro.core.eager_prediction import CompiledPrediction, ep_attention_step
from repro.core.logdomain import (
    leading_one_position,
    log_domain_matmul,
    quantize_symmetric,
    ts_lod_approximate,
)
from repro.core.pipeline import ExionPipeline
from repro.core.sparsity import RunStats
from repro.exec import ContinuousExecutor
from repro.hw.accelerator import ExionAccelerator
from repro.models.activations import gelu
from repro.models.norm import LayerNorm
from repro.models.zoo import build_model
from repro.obs import Observer, chrome_trace_json
from repro.obs.analyze import (
    AnalysisReport,
    TraceRecords,
    analyze_records,
    build_critical_path,
    default_slos,
    evaluate_slos,
    render_html,
)
from repro.program import (
    compile_plan,
    fresh_plan_cache,
    get_plan_cache,
    lower_plan,
    plan_digest,
)
from repro.serve import GenerationRequest

from perfbench.stats import percentile
from perfbench.workloads import FleetSim, ServeSaturated, SingleStream, text_digest

MS = 1e3
US = 1e6


def _timed(rec, name, layer, fn):
    with rec.span(name, layer):
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value


def _kernel_us(rec, name, layer, fn, reps: int, inner: int) -> float:
    """Median over ``reps`` of the mean time of ``inner`` back-to-back calls."""
    samples = []
    for _ in range(reps):
        def burst():
            for _ in range(inner):
                fn()
        elapsed, _ = _timed(rec, name, layer, burst)
        samples.append(elapsed / inner)
    return statistics.median(samples) * US


def probe_kernels(rec, rng, model, config, reps: int, inner: int) -> dict:
    """``models`` and ``core`` kernels at the DiT block shape."""
    network = model.network
    tokens, dim = network.tokens, network.dim
    block = network.blocks[0]
    x = rng.standard_normal((tokens, dim))
    hidden = rng.standard_normal((tokens, block.ffn.hidden_dim))
    weight = rng.standard_normal((dim, dim))
    ints, _ = quantize_symmetric(x, config.prediction_bits)
    norm = LayerNorm(dim)
    attention = block.self_attn
    pred = CompiledPrediction.for_layer(
        attention, config.lod_mode, config.prediction_bits
    )
    bits = config.prediction_bits
    kernels = {
        "models.gelu_us": ("models", lambda: gelu(hidden)),
        "models.layernorm_us": ("models", lambda: norm(x)),
        "core.ts_lod_us": ("core", lambda: ts_lod_approximate(ints)),
        "core.quantize_symmetric_us": ("core", lambda: quantize_symmetric(x, bits)),
        "core.leading_one_us": ("core", lambda: leading_one_position(ints)),
        "core.log_matmul_us": (
            "core", lambda: log_domain_matmul(x, weight, config.lod_mode, bits)),
        "core.ep_attention_step_us": (
            "core",
            lambda: ep_attention_step(attention, x, None, pred, config, RunStats())),
    }
    return {
        name: _kernel_us(rec, name, layer, fn, reps, inner)
        for name, (layer, fn) in kernels.items()
    }


def probe_program_hw(rec, specs: dict) -> dict:
    """Cold plan construction and pricing, in an empty PlanCache."""
    out = {}
    spec, config = specs["dit"]
    t_lower, plan = _timed(rec, "lower_plan", "program",
                           lambda: lower_plan(spec, config=config, scale="sim"))
    t_compile, _ = _timed(rec, "compile_plan", "program", lambda: compile_plan(plan))
    t_digest, _ = _timed(rec, "plan_digest", "program", lambda: plan_digest(plan))
    out["program.lower_ms"] = t_lower * MS
    out["program.compile_ms"] = t_compile * MS
    out["program.digest_ms"] = t_digest * MS

    accelerator = ExionAccelerator.exion24()
    with fresh_plan_cache() as cache:
        profile_s = 0.0
        price_s = []
        for name, (model_spec, model_config) in specs.items():
            elapsed, profile = _timed(
                rec, f"profile.{name}", "hw", lambda s=model_spec: cache.profile(s))
            profile_s += elapsed
            for batch in (1, 8):
                paper_plan = cache.plan(model_spec, config=model_config, batch=batch)
                elapsed, _ = _timed(
                    rec, f"simulate_plan.{name}.b{batch}", "hw",
                    lambda p=paper_plan, q=profile: accelerator.simulate_plan(p, q))
                price_s.append(elapsed)
        out["hw.profile_s"] = profile_s
        out["hw.price_ms"] = statistics.median(price_s) * MS
        # Cold is the cache's write path, steady state its read path.
        service = ServiceTimeModel("exion24")
        for name in specs:
            service.latency_s(name, "all", 4)
        out["program.cache_misses_setup"] = cache.misses
        hits, misses = cache.hits, cache.misses
        for name in specs:
            ServiceTimeModel("exion24").latency_s(name, "all", 4)
        steady = (cache.hits - hits) + (cache.misses - misses)
        out["program.cache_hit_rate_steady"] = (cache.hits - hits) / steady
    return out


def probe_exec(rec, rng, workload: SingleStream, calls: int) -> dict:
    """Executor construction, first call, per-model rate and tick costs."""
    out = {}
    model, config, _ = workload.built["dit"]
    get_plan_cache().compiled(model.spec, config=config)  # warm: exec cost only
    builds = [
        _timed(rec, "ContinuousExecutor", "exec",
               lambda: ContinuousExecutor(model, config))
        for _ in range(3)
    ]
    out["exec.construct_s"] = statistics.median(t for t, _ in builds)
    executor = builds[-1][1]

    pipeline = ExionPipeline(model, config, compiled=True)
    seeds, labels = workload._draw(1 + calls)
    times = [
        _timed(rec, "generate.dit", "exec",
               lambda s=s, v=v: pipeline.generate(seed=s, class_label=v))[0]
        for s, v in zip(seeds, labels)
    ]
    out["exec.first_call_extra_ms"] = (times[0] - statistics.median(times[1:])) * MS

    outcome = workload.run(calls * len(workload.models), rec)
    for name, samples in outcome.extra["per_model_s"].items():
        out[f"exec.samples_per_s.{name}"] = 1.0 / statistics.median(samples)
    stats = outcome.extra["dit_stats"]
    out["core.ffn_output_sparsity"] = stats["ffn_output_sparsity"]
    out["core.attention_output_sparsity"] = stats["attention_output_sparsity"]
    out["core.ffn_ops_reduction"] = stats["ffn_ops_reduction"]
    out["core.dense_iterations"] = stats["dense_iterations"]

    def start(count):
        return [
            executor.start_run(GenerationRequest(
                request_id=int(rng.integers(1 << 30)), seed=int(s), class_label=int(v)))
            for s, v in zip(*workload._draw(count))
        ]

    def tick(runs):
        elapsed, _ = _timed(rec, "run_tick", "exec", lambda: executor.run_tick(runs))
        return elapsed

    flags = executor.compiled_plan.dense_flags
    solo = start(1)
    solo_ticks = [tick(solo) for _ in flags]
    dense = [t for t, d in zip(solo_ticks, flags) if d]
    sparse = [t for t, d in zip(solo_ticks, flags) if not d]
    out["exec.dense_iter_ms"] = statistics.median(dense) * MS
    out["exec.sparse_iter_ms"] = statistics.median(sparse or dense) * MS
    out["exec.tick_ms_occ1"] = statistics.median(solo_ticks) * MS

    # Occupancy 8. After every other dense tick one member leaves mid-phase
    # (as a finished run does when the last phase is short), so the next
    # sparse tick restacks the survivors' phase state; the sparse tick after
    # it is steady at the same occupancy. A fresh run joins at the next
    # dense boundary.
    runs = start(8)
    steady, edited, every = [], [], []
    phase = since_dense = 0
    for step, is_dense in enumerate(flags):
        if is_dense and len(runs) < 8:
            runs = runs + start(1)
        since_dense = 0 if is_dense else since_dense + 1
        elapsed = tick(runs)
        if len(runs) == 8:
            every.append(elapsed)
        elif since_dense == 1:
            edited.append(elapsed)
        elif since_dense == 2:
            steady.append(elapsed)
        if is_dense:
            phase += 1
            if phase % 2 == 0 and step + 2 < len(flags) and not flags[step + 2]:
                runs = runs[1:]
    out["exec.tick_ms_occ8"] = statistics.median(every) * MS
    out["exec.restack_extra_ms"] = (
        statistics.median(edited or every) - statistics.median(steady or every)
    ) * MS
    return out


def probe_serve(rec, workload: ServeSaturated, requests: int, open_s: float) -> dict:
    """A saturated session, then an open-loop phase on the same server."""
    outcome = workload.run(requests, rec)
    out = dict(outcome.exact)
    out["serve.queue_wait_p50_ms"] = statistics.median(outcome.extra["wait_s"]) * MS
    out["serve.sched_us_per_tick"] = statistics.median(outcome.extra["sched_s"]) * US
    out.update(_open_loop(rec, workload, outcome.extra["server"], open_s))
    return out


def _open_loop(rec, workload, server, duration_s, rate_rps=4.0, deadline_s=1.5) -> dict:
    """Poisson arrivals on a schedule, each timed from when it was due."""
    count = max(4, int(duration_s * rate_rps))
    gaps = workload.rng.exponential(1.0 / rate_rps, size=count)
    seeds, labels = workload._draw(count)
    origin = time.perf_counter()
    due = [origin + float(t) for t in np.cumsum(gaps)]
    sent_at: dict = {}
    due_at: dict = {}
    latency, join_wait, lag = [], [], []
    sent = met = 0
    while sent < count or server.has_work:
        now = time.perf_counter()
        while sent < count and due[sent] <= now:
            rid = server.submit(
                seed=seeds[sent], class_label=labels[sent],
                deadline_s=due[sent] + deadline_s,
            )
            lag.append(time.perf_counter() - due[sent])
            if rid is not None:
                sent_at[rid] = time.perf_counter()
                due_at[rid] = due[sent]
            sent += 1
        if not server.has_work:
            time.sleep(max(0.0, due[sent] - time.perf_counter()))
            continue
        with rec.span("step.open", "serve"):
            finished = server.step()
        end = time.perf_counter()
        for record in finished:
            rid = record.request_id
            latency.append(end - due_at[rid])
            join_wait.append(record.wait_s + sent_at[rid] - due_at[rid])
            met += end - due_at[rid] <= deadline_s
    server.pop_dropped()
    # A request that was refused or evicted misses its deadline; with no
    # completion at all the latency figures fall back to the deadline.
    latency = latency or [deadline_s]
    join_wait = join_wait or [deadline_s]
    return {
        "serve.open.latency_p50_ms": statistics.median(latency) * MS,
        "serve.open.latency_p90_ms": percentile(latency, 90) * MS,
        "serve.open.join_wait_p50_ms": statistics.median(join_wait) * MS,
        "serve.open.deadline_met_share": met / count,
        "serve.open.generator_lag_p99_ms": percentile(lag, 99) * MS,
    }


def probe_fleet(rec, workload: FleetSim, pairs: int, backlog_requests: int) -> dict:
    """One observed cell taken apart stage by stage, plus its variants."""
    out = {}
    workload.cell(0)  # warm the PlanCache: profiles, plans, prices
    t_synth, trace = _timed(rec, "synthesize_trace", "cluster",
                            lambda: workload.trace(0))
    observer = Observer()
    t_sim, report = _timed(rec, "simulate_cluster", "cluster",
                           lambda: workload.simulate(trace, observer=observer))
    tracer = observer.tracer
    ticks = sum(1 for span in tracer.spans if span.name.startswith("dispatch"))
    out["cluster.sim_req_per_s"] = len(trace) / t_sim
    out["cluster.host_us_per_tick"] = t_sim / max(ticks, 1) * US
    out["cluster.trace_synth_ms"] = t_synth * MS
    t_encode, report_json = _timed(rec, "ClusterReport.to_json", "cluster",
                                   report.to_json)
    out["cluster.report_encode_ms"] = t_encode * MS
    t_drain, _ = _timed(rec, "simulate_cluster.drain", "cluster",
                        lambda: workload.simulate(trace, continuous=False))
    out["cluster.drain_req_per_s"] = len(trace) / t_drain

    t_export, _ = _timed(rec, "chrome_trace_json", "obs",
                         lambda: chrome_trace_json(tracer))
    out["obs.export_ms"] = t_export * MS
    t_records, records = _timed(rec, "TraceRecords.from_tracer", "obs.analyze",
                                lambda: TraceRecords.from_tracer(tracer))
    t_attr, attribution = _timed(rec, "analyze_records", "obs.analyze",
                                 lambda: analyze_records(records))
    t_path, path = _timed(rec, "build_critical_path", "obs.analyze",
                          lambda: build_critical_path(attribution))
    t_slo, slo = _timed(rec, "evaluate_slos", "obs.analyze",
                        lambda: evaluate_slos(attribution, default_slos()))
    analysis = AnalysisReport(attribution=attribution, path=path, slo=slo)
    t_json, _ = _timed(rec, "AnalysisReport.to_json", "obs.analyze", analysis.to_json)
    t_html, _ = _timed(rec, "render_html", "obs.analyze", lambda: render_html(analysis))
    spans = len(tracer.spans)
    out["obs.analyze.spans_per_s"] = spans / (t_records + t_attr + t_path + t_slo)
    out["obs.analyze.attribution_ms"] = (t_records + t_attr) * MS
    out["obs.analyze.critical_path_ms"] = t_path * MS
    out["obs.analyze.slo_ms"] = t_slo * MS
    out["obs.analyze.to_json_ms"] = t_json * MS
    out["obs.analyze.render_html_ms"] = t_html * MS

    out["cluster.served"] = report.served
    out["cluster.drops"] = report.dropped
    out["cluster.mean_utilization"] = report.mean_utilization
    out["cluster.report_digest"] = int(text_digest(report_json)[:12], 16)
    out["obs.spans"] = spans
    out["obs.analyze.max_residual_ns"] = attribution.max_request_residual_ns()

    # Observer on against off, interleaved, compared by median.
    on, off = [], []
    for _ in range(pairs):
        off.append(_timed(rec, "simulate_cluster.unobserved", "cluster",
                          lambda: workload.simulate(trace))[0])
        on.append(_timed(rec, "simulate_cluster.observed", "cluster",
                         lambda: workload.simulate(trace, observer=Observer()))[0])
    out["obs.enabled_overhead_ratio"] = statistics.median(on) / statistics.median(off)

    # Sustained overload, no deadline: how host time grows with backlog.
    def overload(requests):
        burst = synthesize_trace(
            PoissonProcess(400.0), requests, WorkloadMix(workload.mix),
            rng=workload._cell_seed(0),
        )
        return _timed(rec, f"simulate_cluster.overload{requests}", "cluster",
                      lambda: workload.simulate(burst))[0]

    small, large = overload(backlog_requests), overload(2 * backlog_requests)
    out["cluster.backlog_scaling_exp"] = math.log2(large / small)
    return out


def run_all(rec, seed: int, scale: float, quick: bool) -> dict:
    """Every probe once; ``scale`` sizes the repeated parts."""
    rng = np.random.default_rng([seed, 99])
    single = SingleStream(seed + 1, quick)
    t_build, _ = _timed(rec, "build_models", "models", lambda: single.prepare())
    single.first_op()
    out = {"models.build_s": t_build}
    model, config, _ = single.built["dit"]
    specs = {
        name: (build_model(name, seed=0).spec, ExionConfig.for_model(name))
        for name, _ in single.models
    }
    reps, inner = (2, 5) if quick else (max(5, round(60 * scale)), 50)
    out.update(probe_kernels(rec, rng, model, config, reps, inner))
    out.update(probe_program_hw(rec, specs))
    out.update(probe_exec(rec, rng, single, 1 if quick else max(3, round(12 * scale))))

    serve = ServeSaturated(seed + 2, quick)
    serve.prepare()
    requests = 8 if quick else max(16, round(72 * scale))
    out.update(probe_serve(rec, serve, requests, 0.2 if quick else 15.0 * scale))

    fleet = FleetSim(seed + 3, quick)
    out.update(probe_fleet(
        rec, fleet, pairs=1 if quick else max(3, round(9 * scale)),
        backlog_requests=12 if quick else 80,
    ))
    return out
