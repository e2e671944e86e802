"""Fig. 8 — condensing efficiency (remaining columns, MLD vs SD).

The paper reports ~13.8% of columns remaining for MLD (4-row output
matrices condense well) versus ~77.4% for Stable Diffusion (1024 rows make
all-sparse columns rare). Masks are synthesized at paper scale with the
measured sparsity levels and column structure.
"""

import numpy as np

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.core.conmerge.condense import condense
from repro.workloads.generator import ffn_output_bitmask
from repro.workloads.specs import get_spec

from .conftest import emit_result

PAPER_REMAINING = {"mld": 0.138, "stable_diffusion": 0.774}


def condensing_ratio(name, seed=0):
    spec = get_spec(name)
    rng = np.random.default_rng(seed)
    mask = ffn_output_bitmask(
        rows=spec.paper_tokens,
        cols=min(spec.paper_ffn_mult * spec.paper_dim, 2048),
        sparsity=spec.target_inter_sparsity,
        rng=rng,
    )
    return condense(mask).remaining_ratio


@register_bench("fig08_condensing", tags=("figure", "conmerge", "smoke"))
def build_fig08(ctx):
    ratios = {
        name: condensing_ratio(name) for name in PAPER_REMAINING
    }
    result = BenchResult("fig08_condensing", model="mld,stable_diffusion")
    result.add_series(
        "Fig. 8 — remaining columns after condensing (1st FFN layer)",
        ["model", "remaining columns", "paper"],
        [
            [get_spec(name).display_name, percent(ratio), percent(paper)]
            for (name, ratio), paper in zip(
                ratios.items(), PAPER_REMAINING.values()
            )
        ],
    )
    for name, ratio in ratios.items():
        result.add_metric(
            f"{name}.remaining_ratio", ratio,
            paper=PAPER_REMAINING[name], direction="lower_better",
            tolerance=0.10,
        )
    return result


def test_fig08_condensing(bench_ctx):
    result = build_fig08(bench_ctx)
    emit_result(result)

    # Shape: MLD condenses dramatically; Stable Diffusion barely.
    mld = result.value("mld.remaining_ratio")
    sd = result.value("stable_diffusion.remaining_ratio")
    assert mld < 0.35
    assert sd > 0.60
    assert mld < sd / 2
