"""Table I — model accuracy evaluation across optimization levels.

For every benchmark model, runs vanilla / FFN-Reuse / FFN-Reuse+EP /
FFN-Reuse+EP+Quant at the Table I configuration and reports:

- PSNR versus the vanilla run (the paper's exact metric),
- a Frechet-distance proxy between vanilla and optimized sample batches
  (stands in for FID/FAD; see DESIGN.md substitutions),
- an Inception-Score proxy of each optimized batch (stands in for IS),
- the measured inter- and intra-iteration sparsity levels.

The claim under test is the paper's: optimization-induced degradation is
small at the Table I sparsity levels, and each additional optimization
costs a little more accuracy.
"""

import numpy as np
import pytest

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.metrics import fid_proxy, inception_score_proxy, psnr
from repro.workloads.specs import BENCHMARK_ORDER, get_spec

from .conftest import emit_result

N_SAMPLES = 6
ITERATIONS = 15

METHOD_KEYS = {
    "FFN-Reuse": "ffnr",
    "FFN-Reuse+EP": "ffnr_ep",
    "FFN-Reuse+EP+Quant": "ffnr_ep_quant",
}


def evaluate_model(name):
    """Each method's six samples against vanilla's, one batch per method."""
    model = build_model(name, seed=0, total_iterations=ITERATIONS)
    seeds = list(range(N_SAMPLES))
    config = ExionConfig.for_model(name)
    vanilla, _ = ExionPipeline(model, config.ablation("base")).generate_batch(
        seeds, prompt="bench")
    pipelines = {
        "FFN-Reuse": ExionPipeline(model, config.ablation("ffnr")),
        "FFN-Reuse+EP": ExionPipeline(model, config),
        "FFN-Reuse+EP+Quant": ExionPipeline(model, config, activation_bits=12),
    }
    rows = []
    for label, pipeline in pipelines.items():
        batch, results = pipeline.generate_batch(seeds, prompt="bench")
        stats = results[-1].stats
        psnrs = [psnr(v, s) for v, s in zip(vanilla, batch)]
        rows.append(
            {
                "method": label,
                "psnr": float(np.mean(psnrs)),
                "fid_proxy": fid_proxy(vanilla, batch),
                "is_proxy": inception_score_proxy(batch),
                "inter": stats.ffn_output_sparsity,
                "intra": stats.attention_output_sparsity,
            }
        )
    return rows


@register_bench("table1_accuracy", tags=("table", "core"))
def build_table1(ctx):
    result = BenchResult("table1_accuracy", model="all")
    printable = []
    for name in BENCHMARK_ORDER:
        spec = get_spec(name)
        rows = evaluate_model(name)
        for row in rows:
            method = METHOD_KEYS[row["method"]]
            result.add_metric(
                f"{name}.{method}.psnr_db", row["psnr"], unit="dB",
                direction="higher_better", tolerance=0.15,
            )
            result.add_metric(
                f"{name}.{method}.fid_proxy", row["fid_proxy"],
                direction="lower_better", tolerance=0.25,
            )
            result.add_metric(
                f"{name}.{method}.is_proxy", row["is_proxy"],
                direction="higher_better", tolerance=0.25,
            )
            printable.append(
                [
                    spec.display_name,
                    row["method"],
                    f"{row['psnr']:.2f} dB",
                    f"{row['fid_proxy']:.3f}",
                    percent(row["inter"]),
                    percent(row["intra"]),
                ]
            )
    result.add_series(
        (
            "Table I — accuracy under EXION optimizations "
            "(paper PSNR ~10-33 dB; metric deltas small vs vanilla)"
        ),
        ["model", "method", "PSNR vs vanilla", "FID proxy",
         "inter-iter sparsity", "intra-iter sparsity"],
        printable,
    )
    return result


def test_table1_accuracy(bench_ctx):
    result = build_table1(bench_ctx)
    emit_result(result)

    rows = result.series[0].rows
    for name in BENCHMARK_ORDER:
        spec = get_spec(name)
        inter = {row[4] for row in rows if row[0] == spec.display_name}
        # The three methods share one FFN-Reuse schedule, and its
        # sparsity lands on the Table I target.
        assert len(inter) == 1, (name, inter)
        assert float(inter.pop().rstrip("%")) / 100 == pytest.approx(
            spec.target_inter_sparsity, abs=0.05
        ), name
        # Outputs remain correlated with vanilla in the paper's PSNR band.
        for method in METHOD_KEYS.values():
            assert result.value(f"{name}.{method}.psnr_db") > 4.0, (
                name, method,
            )
