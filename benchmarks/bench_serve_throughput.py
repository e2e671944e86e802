"""Batched serving parity with sequential generation.

The serving claim of ``repro.serve``: coalescing concurrent requests into
one vectorized denoising loop changes no request's output. This bench
holds that claim at full scale (50 iterations, full-depth DiT, the
paper's Table I EXION configuration): a batch of one, and each request
of a batch of eight, on the batched engine reproduces the interpreted
``ExionPipeline(compiled=False).generate()`` sample and statistics bit
for bit. ``tests/exec/`` runs the same grid at ``depth=2``, 6 iterations.

What batching buys in samples/sec is host time, measured by
``perfbench`` (the ``batch8`` workload against ``single_stream``).

Run with::

    pytest benchmarks/bench_serve_throughput.py --import-mode=importlib -s
"""

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


def _requests(seeds):
    return [GenerationRequest(request_id=i, seed=s, class_label=CLASS_LABEL)
            for i, s in enumerate(seeds)]


@register_bench("serve_throughput", tags=("serve",))
def build_serve_throughput(ctx):
    model = build_model("dit", seed=0, total_iterations=ITERATIONS)
    config = ExionConfig.for_model("dit")
    # The reference is the interpreted loop; a default pipeline would
    # loop the compiled engine at a batch of one instead.
    sequential = ExionPipeline(model, config, compiled=False)
    batched = ContinuousExecutor(model, config)
    seeds = list(range(BATCH))

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
    matching = sum(
        np.array_equal(got.sample, want.sample)
        and got.stats.summary() == want.stats.summary()
        for got, want in zip(batch_results, reference)
    )
    batch_ok = matching == BATCH

    result = BenchResult("serve_throughput", model="dit")
    result.add_series(
        f"DiT batched serving ({ITERATIONS} iterations) vs the sequential "
        f"interpreted loop",
        ["batch size", "requests identical"],
        [[1, f"{int(single_ok)}/1"], [BATCH, f"{matching}/{BATCH}"]],
    )
    result.add_metric("equivalence_single", 1.0 if single_ok else 0.0,
                      direction="higher_better", tolerance=0.0)
    result.add_metric("equivalence_batch", 1.0 if batch_ok else 0.0,
                      direction="higher_better", tolerance=0.0)
    return result


def test_batched_serving_throughput(bench_ctx):
    result = build_serve_throughput(bench_ctx)
    emit_result(result)

    assert result.value("equivalence_single") == 1.0
    assert result.value("equivalence_batch") == 1.0
