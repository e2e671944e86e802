"""Batched serving throughput versus sequential generation.

The serving claim of ``repro.serve``: coalescing concurrent requests into
one vectorized denoising loop multiplies samples/sec without changing any
request's output. This bench measures both halves of that claim on the
DiT benchmark model at the paper's Table I EXION configuration:

- **equivalence** — a batch of one (and each request of a batch of
  eight) on the batched engine reproduces the interpreted
  ``ExionPipeline(compiled=False).generate()`` sample and statistics bit
  for bit;
- **throughput** — batch-8 serving reaches at least twice the
  samples/sec of a sequential request loop over that interpreted oracle.

Run with::

    pytest benchmarks/bench_serve_throughput.py --import-mode=importlib -s
"""

import time
from functools import lru_cache

import numpy as np

from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.exec import ContinuousExecutor
from repro.models.zoo import build_model
from repro.serve import GenerationRequest

from .conftest import emit_result

ITERATIONS = 50
BATCH = 8
CLASS_LABEL = 207


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@lru_cache(maxsize=1)
def _dit_model():
    """One 50-iteration model build shared by builder and pytest kernel."""
    return build_model("dit", seed=0, total_iterations=ITERATIONS)


def _requests(seeds):
    return [GenerationRequest(request_id=i, seed=s, class_label=CLASS_LABEL)
            for i, s in enumerate(seeds)]


@register_bench("serve_throughput", tags=("serve",))
def build_serve_throughput(ctx):
    model = _dit_model()
    config = ExionConfig.for_model("dit")
    # The baseline's speedup is over the interpreted loop; a default
    # pipeline would loop the compiled 2-D engine instead.
    sequential = ExionPipeline(model, config, compiled=False)
    batched = ContinuousExecutor(model, config)
    seeds = list(range(BATCH))

    # ------------------------------------------------------------------
    # equivalence: per-request results match sequential runs bit for bit
    # ------------------------------------------------------------------
    reference = [
        sequential.generate(seed=s, class_label=CLASS_LABEL) for s in seeds
    ]
    single = batched.run_batch(_requests(seeds[:1]))[0]
    single_ok = (
        np.array_equal(single.sample, reference[0].sample)
        and single.stats.summary() == reference[0].stats.summary()
        and single.stats.ffn_sparsities == reference[0].stats.ffn_sparsities
    )

    batch_results = batched.run_batch(_requests(seeds))
    batch_ok = all(
        np.array_equal(got.sample, want.sample)
        and got.stats.summary() == want.stats.summary()
        for got, want in zip(batch_results, reference)
    )

    # ------------------------------------------------------------------
    # throughput: batch-8 serving vs a sequential request loop
    # ------------------------------------------------------------------
    def run_sequential():
        for s in seeds:
            sequential.generate(seed=s, class_label=CLASS_LABEL)

    def run_batched():
        batched.run_batch(_requests(seeds))

    sequential_s = _best_of(run_sequential)
    batched_s = _best_of(run_batched)
    sequential_rate = BATCH / sequential_s
    batched_rate = BATCH / batched_s
    speedup = batched_rate / sequential_rate

    scaling_rows = []
    for size in (1, 2, 4, BATCH):
        elapsed = _best_of(
            lambda: batched.run_batch(_requests(seeds[:size])),
            repeats=1,
        )
        scaling_rows.append([size, f"{size / elapsed:.2f}",
                             f"{(size / elapsed) / sequential_rate:.2f}x"])

    result = BenchResult("serve_throughput", model="dit")
    result.add_series(
        f"DiT serving throughput ({ITERATIONS} iterations)",
        ["batch size", "samples/s", "vs sequential"],
        [[f"sequential x{BATCH}", f"{sequential_rate:.2f}", "1.00x"]]
        + scaling_rows,
    )
    result.add_metric("equivalence_single", 1.0 if single_ok else 0.0,
                      direction="higher_better", tolerance=0.0)
    result.add_metric("equivalence_batch", 1.0 if batch_ok else 0.0,
                      direction="higher_better", tolerance=0.0)
    # The absolute rates come from time.perf_counter() and vary with the
    # machine class and its load, so their compare tolerances are wide —
    # the pytest wrapper's >= 2x speedup assertion (same-machine, same
    # run) is the real quality gate. The speedup ratio cancels most
    # machine dependence and gets a tighter band.
    result.add_metric("sequential_samples_per_s", sequential_rate,
                      unit="samples/s", direction="higher_better",
                      tolerance=0.75)
    result.add_metric("batched_samples_per_s", batched_rate,
                      unit="samples/s", direction="higher_better",
                      tolerance=0.75)
    result.add_metric("speedup_batch8", speedup, unit="x",
                      direction="higher_better", tolerance=0.35)
    return result


def test_batched_serving_throughput(benchmark, bench_ctx):
    result = build_serve_throughput(bench_ctx)
    emit_result(result)

    assert result.value("equivalence_single") == 1.0
    assert result.value("equivalence_batch") == 1.0

    # The acceptance bar of the serving layer: >= 2x at batch 8.
    speedup = result.value("speedup_batch8")
    assert speedup >= 2.0, (
        f"batched serving reached only {speedup:.2f}x sequential throughput"
    )

    batched = ContinuousExecutor(_dit_model(), ExionConfig.for_model("dit"))
    benchmark(batched.run_batch, _requests(range(4)))
