"""Continuous batching vs drain-and-refill under bursty, deadline traffic.

The serving claim of :mod:`repro.serve.continuous`: on a bursty MMPP
trace whose requests carry completion deadlines, iteration-level
continuous batching (join at dense-phase boundaries, leave any tick,
SLA-aware admission) beats the drain-and-refill server on the metrics an
operator is paged for:

- **goodput** — deadline-met completions per simulated second is at
  least 1.3x drain-and-refill. Both systems are work-conserving with
  identical hw tick pricing, so raw saturation throughput ties; the gap
  is structural: drain's queue waits are lumpy (multiples of a full
  generation — a request landing just after a dispatch waits the whole
  run), so deadline traffic expires in its queue or finishes late, while
  the continuous scheduler seats requests at the next dense boundary and
  refuses at admission the ones that could never make it;
- **tail wait** — p99 queue wait of served requests is *strictly* lower;
- **equivalence** — the continuous executor's per-request outputs are
  byte-identical to solo sequential generation (spot-checked here at
  bench scale; the exhaustive differential and property suites live in
  ``tests/serve/``);
- **determinism** — same-seed reruns produce byte-identical
  :class:`~repro.cluster.report.ClusterReport` JSON.

All fleet numbers are simulated time from the EXION4 latency model
(:meth:`~repro.cluster.replica.ServiceTimeModel.price` prices
each denoising iteration by differencing plan lowerings), so the
determinism metric is exact; rate/latency metrics carry a 10% tolerance
for cross-version NumPy RNG stream drift.

Run with::

    pytest benchmarks/bench_serve_continuous.py --import-mode=importlib -s
"""

import numpy as np

from repro.bench import BenchResult, register_bench
from repro.cluster import (
    MMPPProcess,
    ServiceTimeModel,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.serve import ContinuousPolicy, ContinuousServer

from .conftest import emit_result

MODEL = "dit"
ABLATION = "all"
ACCELERATOR = "exion4"  # sublinear batch pricing: the regime batching pays
REQUESTS = 60
RATE_LOW_RPS = 0.8
RATE_HIGH_RPS = 4.0
DWELL_S = 5.0
DEADLINE_S = 7.0  # relative completion deadline on every request
SEED = 0
MAX_BATCH = 8

# Real-mode equivalence spot check (wall-clock, kept tiny).
EQUIV_ITERATIONS = 12
EQUIV_REQUESTS = 4


def _trace():
    return synthesize_trace(
        MMPPProcess(RATE_LOW_RPS, RATE_HIGH_RPS, DWELL_S),
        REQUESTS,
        mix=WorkloadMix(models=(MODEL,), ablation=ABLATION),
        rng=SEED,
        deadline_s=DEADLINE_S,
    )


def _run_fleet(service_model, continuous):
    if continuous:
        policy = ContinuousPolicy(
            max_batch_size=MAX_BATCH,
            # SLA admission floor: the full-occupancy generation price.
            min_service_s=service_model.latency_s(MODEL, ABLATION, MAX_BATCH),
        )
    else:
        policy = ContinuousPolicy(
            drain=True, max_batch_size=MAX_BATCH, max_wait_s=0.0
        )
    return simulate_cluster(
        _trace(),
        replicas=build_replicas(
            1, policy=policy, service_model=service_model,
            continuous=continuous,
        ),
        router=make_router("round_robin"),
        slo=SLOPolicy(latency_target_s=DEADLINE_S),
        scenario={"seed": SEED, "deadline_s": DEADLINE_S},
    )


def _goodput_rps(report):
    """Deadline-met completions per simulated second.

    ``slo_attainment`` already counts drops as misses (denominator is
    served + dropped = submitted), so attainment x submitted is the
    on-time completion count.
    """
    return (report.slo_attainment or 0.0) * report.submitted / report.makespan_s


def _equivalence():
    """Continuous executor outputs == solo sequential generation (1.0/0.0)."""
    config = ExionConfig.for_model(MODEL).ablation(ABLATION)
    server = ContinuousServer(
        MODEL, config=config,
        policy=ContinuousPolicy(max_batch_size=EQUIV_REQUESTS),
        total_iterations=EQUIV_ITERATIONS,
    )
    for i in range(EQUIV_REQUESTS - 1):
        server.submit(seed=i, class_label=207)
    server.step()  # start the early batch so the last request joins late
    server.submit(seed=99, class_label=207)
    results = server.run_until_drained()

    model = server.cache.model(MODEL, 0, EQUIV_ITERATIONS, None)
    pipeline = ExionPipeline(model, config, compiled=False)
    for record in results:
        solo = pipeline.generate(
            seed=record.request.seed, class_label=record.request.class_label
        )
        if not np.array_equal(solo.sample, record.result.sample):
            return 0.0
        if solo.stats.summary() != record.result.stats.summary():
            return 0.0
    return 1.0


@register_bench("serve_continuous", tags=("serve", "cluster", "smoke"))
def build_serve_continuous(ctx):
    service_model = ServiceTimeModel(ACCELERATOR)
    continuous = _run_fleet(service_model, continuous=True)
    drain = _run_fleet(service_model, continuous=False)
    rerun = _run_fleet(ServiceTimeModel(ACCELERATOR), continuous=True)
    deterministic = continuous.to_json() == rerun.to_json()
    equivalence = _equivalence()

    rows = []
    for label, report in (("continuous", continuous), ("drain", drain)):
        lat = report.latency
        usage = report.replicas[0]
        rows.append([
            label,
            report.served,
            report.admission_drops + report.timeout_drops,
            f"{(report.slo_attainment or 0.0) * 100:.1f}%",
            f"{_goodput_rps(report):.3f}",
            f"{lat['wait_p99_s'] * 1e3:.0f}",
            f"{usage.get('mean_occupancy', usage['mean_batch_size']):.2f}",
        ])

    goodput_c = _goodput_rps(continuous)
    goodput_d = _goodput_rps(drain)

    result = BenchResult("serve_continuous", model=MODEL)
    result.add_series(
        f"Continuous vs drain ({REQUESTS} MMPP arrivals "
        f"{RATE_LOW_RPS}/{RATE_HIGH_RPS} rps, deadline {DEADLINE_S:.0f}s, "
        f"1x {ACCELERATOR.upper()})",
        ["mode", "served", "dropped", "attainment", "goodput/s",
         "p99 wait ms", "mean occupancy"],
        rows,
    )
    result.add_metric(
        "goodput_continuous_rps", goodput_c,
        unit="req/s", direction="higher_better", tolerance=0.10,
    )
    result.add_metric(
        "goodput_drain_rps", goodput_d,
        unit="req/s", direction="higher_better", tolerance=0.10,
    )
    result.add_metric(
        "goodput_ratio", goodput_c / goodput_d,
        unit="x", direction="higher_better", tolerance=0.10,
    )
    result.add_metric(
        "wait_p99_continuous_s", continuous.latency["wait_p99_s"],
        unit="s", direction="lower_better", tolerance=0.10,
    )
    result.add_metric(
        "wait_p99_drain_s", drain.latency["wait_p99_s"],
        unit="s", direction="lower_better", tolerance=0.10,
    )
    result.add_metric(
        "mean_occupancy_continuous",
        continuous.replicas[0]["mean_occupancy"],
        direction="higher_better", tolerance=0.10,
    )
    result.add_metric(
        "deterministic_report", 1.0 if deterministic else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    result.add_metric(
        "equivalence_continuous", equivalence,
        direction="higher_better", tolerance=0.0,
    )
    result.add_note(
        "Goodput counts deadline-met completions only (attainment x "
        "submitted / makespan); drain serves more requests but most "
        "finish past their deadline. Fleet numbers are simulated EXION4 "
        "time; the equivalence metric runs the real numerics."
    )
    return result


def test_serve_continuous(bench_ctx):
    result = build_serve_continuous(bench_ctx)
    emit_result(result)

    # The acceptance bar: continuous batching's goodput is >= 1.3x the
    # drain-and-refill server on the bursty deadline trace, with a
    # strictly lower p99 queue wait.
    ratio = result.value("goodput_ratio")
    assert ratio >= 1.3, f"continuous goodput only {ratio:.2f}x drain"
    assert (
        result.value("wait_p99_continuous_s")
        < result.value("wait_p99_drain_s")
    )
    assert result.value("equivalence_continuous") == 1.0
    assert result.value("deterministic_report") == 1.0
