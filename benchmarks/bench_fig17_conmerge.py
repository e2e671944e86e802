"""Fig. 17 — ConMerge efficiency across all seven models.

For the 1st FFN layer and the attention score of every model, reports the
remaining-column percentage after condensing and after merging. Paper
averages: FFN 60.3% (condense) -> 16.2% (merge); attention 80.0% -> 50.0%.
"""

import numpy as np

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.workloads.specs import BENCHMARK_ORDER, get_spec

from .conftest import emit_result

PAPER_AVG = {"ffn_condense": 0.603, "ffn_remaining": 0.162,
             "attn_condense": 0.800, "attn_remaining": 0.500}


@register_bench("fig17_conmerge", tags=("figure", "conmerge"))
def build_fig17(ctx):
    profiles = ctx.profiles
    result = BenchResult("fig17_conmerge", model="all")
    rows = []
    for name in BENCHMARK_ORDER:
        spec = get_spec(name)
        p = profiles[name]
        rows.append(
            [
                spec.display_name,
                percent(p.ffn_condense_ratio),
                percent(p.ffn_remaining_ratio),
                percent(p.attn_condense_ratio),
                percent(p.attn_remaining_ratio),
            ]
        )
        for field in ("ffn_condense_ratio", "ffn_remaining_ratio",
                      "attn_condense_ratio", "attn_remaining_ratio"):
            result.add_metric(
                f"{name}.{field}", getattr(p, field),
                direction="lower_better", tolerance=0.15,
            )
    averages = {
        "ffn_condense": np.mean(
            [profiles[n].ffn_condense_ratio for n in BENCHMARK_ORDER]),
        "ffn_remaining": np.mean(
            [profiles[n].ffn_remaining_ratio for n in BENCHMARK_ORDER]),
        "attn_condense": np.mean(
            [profiles[n].attn_condense_ratio for n in BENCHMARK_ORDER]),
        "attn_remaining": np.mean(
            [profiles[n].attn_remaining_ratio for n in BENCHMARK_ORDER]),
    }
    rows.append(
        ["AVERAGE", percent(averages["ffn_condense"]),
         percent(averages["ffn_remaining"]),
         percent(averages["attn_condense"]),
         percent(averages["attn_remaining"])]
    )
    rows.append(["paper avg", "60.3%", "16.2%", "80.0%", "50.0%"])
    result.add_series(
        "Fig. 17 — remaining columns after condensing / merging",
        ["model", "FFN condense", "FFN +merge", "attn condense",
         "attn +merge"],
        rows,
    )
    for key, value in averages.items():
        result.add_metric(
            f"avg.{key}", float(value), paper=PAPER_AVG[key],
            direction="lower_better", tolerance=0.15,
        )
    return result


def test_fig17_conmerge_efficiency(bench_ctx):
    result = build_fig17(bench_ctx)
    emit_result(result)

    # Shape: merging always improves on condensing; FFN compacts further
    # than attention (paper's averages 16.2% vs 50.0%).
    for name in BENCHMARK_ORDER:
        assert result.value(f"{name}.ffn_remaining_ratio") <= (
            result.value(f"{name}.ffn_condense_ratio") + 1e-9
        )
        assert result.value(f"{name}.attn_remaining_ratio") <= (
            result.value(f"{name}.attn_condense_ratio") + 1e-9
        )
    assert result.value("avg.ffn_remaining") < result.value("avg.attn_remaining")
