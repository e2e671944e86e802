"""Fig. 4 — operation-count breakdown per benchmark model.

Regenerates the per-iteration operation totals and category shares (QKV
projection / attention / FFN / etc.) for all seven models, alongside the
paper's reported totals and transformer shares.
"""

from repro.analysis.opcount import operation_breakdown_table
from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.workloads.specs import BENCHMARK_ORDER

from .conftest import emit_result


@register_bench("fig04_opcount", tags=("figure", "analysis", "smoke"))
def build_fig04(ctx):
    rows = operation_breakdown_table()
    result = BenchResult("fig04_opcount", model="all")
    result.add_series(
        "Fig. 4 — number-of-operations breakdown (per iteration)",
        ["model", "total ops/iter", "paper", "qkv", "attn", "ffn", "etc",
         "transformer", "paper tx"],
        [
            [
                r["model"],
                f"{r['total_ops']:.2e}",
                f"{r['paper_total_ops']:.1e}",
                percent(r["qkv_share"]),
                percent(r["attention_share"]),
                percent(r["ffn_share"]),
                percent(r["etc_share"]),
                percent(r["transformer_share"]),
                percent(r["paper_transformer_share"]),
            ]
            for r in rows
        ],
    )
    # Rows come back in BENCHMARK_ORDER; key metrics by the spec name,
    # not the display name the table prints.
    for name, r in zip(BENCHMARK_ORDER, rows):
        result.add_metric(
            f"{name}.transformer_share", r["transformer_share"],
            paper=r["paper_transformer_share"], direction="two_sided",
            tolerance=0.05,
        )
        result.add_metric(
            f"{name}.ffn_share_of_transformer", r["ffn_share_of_transformer"],
            direction="higher_better", tolerance=0.10,
        )
        result.add_metric(
            f"{name}.total_ops", r["total_ops"], unit="ops/iter",
            paper=r["paper_total_ops"], direction="two_sided", tolerance=0.05,
        )
    return result


def test_fig04_operation_breakdown(bench_ctx):
    result = build_fig04(bench_ctx)
    emit_result(result)

    # Shape assertions: transformer shares match the paper's figure and
    # FFN is the dominant transformer category everywhere.
    for name in BENCHMARK_ORDER:
        metric = result.metric(f"{name}.transformer_share")
        assert abs(metric.value - metric.paper) < 0.03
        assert result.value(f"{name}.ffn_share_of_transformer") >= 0.4
