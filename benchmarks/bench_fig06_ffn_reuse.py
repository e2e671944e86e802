"""Fig. 6 (table) — FFN-Reuse configurations and operation reduction.

Runs each model with FFN-Reuse only, at its Table I configuration
(N sparse iterations, target sparsity), and reports the measured 1st-FFN
output sparsity plus the fraction of FFN operations skipped over the whole
diffusion process, next to the paper's numbers.
"""

import pytest

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.specs import BENCHMARK_ORDER, get_spec

from .conftest import emit_result


def run_ffn_reuse(name, iterations=None):
    spec = get_spec(name)
    model = build_model(name, seed=0, total_iterations=iterations)
    cfg = ExionConfig.for_model(name, enable_eager_prediction=False)
    result = ExionPipeline(model, cfg).generate(seed=1, prompt="bench")
    return spec, result.stats


@register_bench("fig06_ffn_reuse", tags=("figure", "core"))
def build_fig06(ctx):
    rows = []
    for name in BENCHMARK_ORDER:
        # Full schedules at simulation scale are cheap; keep a couple of
        # dense/sparse periods at least.
        spec, stats = run_ffn_reuse(name, iterations=min(
            get_spec(name).total_iterations, 30
        ))
        rows.append((name, spec, stats))

    result = BenchResult("fig06_ffn_reuse", model="all")
    result.add_series(
        "Fig. 6 — FFN-Reuse inter-iteration sparsity and op reduction",
        ["model", "N", "sparsity", "paper", "FFN ops cut", "paper cut"],
        [
            [
                spec.display_name,
                spec.sparse_iters_n,
                percent(stats.ffn_output_sparsity),
                percent(spec.target_inter_sparsity, 0),
                percent(stats.ffn_ops_reduction),
                percent(spec.paper_ffn_ops_reduction),
            ]
            for _, spec, stats in rows
        ],
    )
    for name, spec, stats in rows:
        result.add_metric(
            f"{name}.ffn_output_sparsity", stats.ffn_output_sparsity,
            direction="two_sided", tolerance=0.07,
        )
        result.add_metric(
            f"{name}.ffn_ops_reduction", stats.ffn_ops_reduction,
            paper=spec.paper_ffn_ops_reduction, direction="higher_better",
            tolerance=0.10,
        )
    return result


def test_fig06_ffn_reuse_table(bench_ctx):
    result = build_fig06(bench_ctx)
    emit_result(result)

    for name in BENCHMARK_ORDER:
        spec = get_spec(name)
        # Measured sparsity tracks the Table I target.
        assert result.value(f"{name}.ffn_output_sparsity") == pytest.approx(
            spec.target_inter_sparsity, abs=0.05
        )
        # Paper range: 52.47% - 85.41% of FFN ops skipped.
        assert 0.35 <= result.value(f"{name}.ffn_ops_reduction") <= 0.95
