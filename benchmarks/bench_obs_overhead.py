"""The observability hard gate: inert when off, deterministic when on.

:mod:`repro.obs` instruments the serving/cluster hot paths behind a
nil-by-default ``Observer``. This bench enforces the two promises that
make that acceptable in a reproduction whose outputs must stay
byte-stable:

- **inert when disabled** — a run without an observer produces
  byte-identical generation outputs and identical report summaries to
  an observed run (every hook site is one ``is not None`` branch);
- **deterministic artifacts** — same-seed ``repro trace`` scenarios
  export byte-identical Chrome trace JSON and metrics snapshots.

Both are checked on the real (numeric) continuous server. What full
instrumentation costs in host time is ``perfbench``'s
``obs.enabled_overhead_ratio`` (interleaved cells, medians).

Run with::

    pytest benchmarks/bench_obs_overhead.py --import-mode=importlib -s
"""

import numpy as np

from repro.bench import BenchResult, register_bench
from repro.obs import Observer, chrome_trace_json, run_trace_scenario
from repro.serve import ContinuousPolicy, ContinuousServer

from .conftest import emit_result

MODEL = "dit"
ITERATIONS = 12
REQUESTS = 6
MAX_BATCH = 2
SCENARIO_REQUESTS = 8


def _serve(observer):
    """One real continuous-serving run; returns (results, report)."""
    server = ContinuousServer(
        MODEL,
        policy=ContinuousPolicy(max_batch_size=MAX_BATCH),
        total_iterations=ITERATIONS,
        observer=observer,
    )
    for i in range(REQUESTS):
        server.submit(seed=i)
    return server.run_until_drained(), server.report()


def _identical_outputs(plain, observed):
    """Whether two result lists carry byte-identical samples and stats."""
    if len(plain) != len(observed):
        return False
    for a, b in zip(plain, observed):
        if not np.array_equal(a.result.sample, b.result.sample):
            return False
        if a.result.stats.summary() != b.result.stats.summary():
            return False
    return True


def _scenario_artifacts():
    obs = Observer()
    run_trace_scenario(
        model=MODEL, continuous=True, requests=SCENARIO_REQUESTS,
        iterations=ITERATIONS, observer=obs,
    )
    return chrome_trace_json(obs.tracer), obs.metrics.to_json()


@register_bench("obs_overhead", tags=("obs", "serve", "smoke"))
def build_obs_overhead(ctx):
    # Inertness: identical outputs and (timing aside) identical reports.
    plain, plain_report = _serve(None)
    observed, obs_report = _serve(Observer())
    identical = _identical_outputs(plain, observed)
    skip = (
        "busy_s", "queue_wait_s", "mean_wait_s", "samples_per_s",
        "latency_p50_s", "latency_p95_s", "latency_p99_s",
    )
    summaries_match = all(
        plain_report.summary()[k] == obs_report.summary()[k]
        for k in plain_report.summary()
        if k not in skip  # wall-clock fields: nondeterministic by nature
    )

    # Artifact determinism: same-seed trace scenario, byte-compared.
    trace1, metrics1 = _scenario_artifacts()
    trace2, metrics2 = _scenario_artifacts()
    artifacts_deterministic = trace1 == trace2 and metrics1 == metrics2

    result = BenchResult("obs_overhead", model=MODEL)
    result.add_series(
        f"Observer off vs on ({REQUESTS} requests, {ITERATIONS} iterations, "
        f"batch {MAX_BATCH}); same-seed trace scenario run twice",
        ["compared", "outcome"],
        [[what, "identical" if same else "DIVERGED"] for what, same in (
            ("generation outputs", identical),
            ("report summaries", summaries_match),
            ("trace + metrics artifacts", artifacts_deterministic),
        )],
    )
    result.add_metric(
        "outputs_identical_when_disabled", 1.0 if identical else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    result.add_metric(
        "reports_identical_when_disabled",
        1.0 if summaries_match else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    result.add_metric(
        "artifacts_deterministic",
        1.0 if artifacts_deterministic else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    result.add_note(
        "Instrumentation is nil-by-default: with no observer installed "
        "every hook site is a single `is not None` branch, so disabled "
        "runs are byte-identical to the pre-obs code path. Enabled "
        "overhead is metrics + tracing on every tick/membership edit."
    )
    return result


def test_obs_overhead(bench_ctx):
    result = build_obs_overhead(bench_ctx)
    emit_result(result)

    assert result.value("outputs_identical_when_disabled") == 1.0
    assert result.value("reports_identical_when_disabled") == 1.0
    assert result.value("artifacts_deterministic") == 1.0
