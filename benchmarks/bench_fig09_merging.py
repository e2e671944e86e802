"""Fig. 9 — merging rescues models condensing cannot help.

The paper's Stable Diffusion case: 77.4% of columns remain after
condensing on the full matrix, but tiled ConMerge (per-16-row condensing
plus two-round merging under conflict-vector constraints) compacts it to
single digits (8.4% in the paper).
"""

import numpy as np

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.core.conmerge.condense import condense
from repro.core.conmerge.cvg import conmerge_tiled
from repro.workloads.generator import ffn_output_bitmask
from repro.workloads.specs import get_spec

from .conftest import emit_result


def sd_mask(rows=256, cols=1024, seed=0):
    spec = get_spec("stable_diffusion")
    return ffn_output_bitmask(
        rows, cols, spec.target_inter_sparsity,
        dead_col_fraction=0.25, rng=np.random.default_rng(seed),
    )


@register_bench("fig09_merging", tags=("figure", "conmerge", "smoke"))
def build_fig09(ctx):
    mask = sd_mask()
    whole_matrix_condense = condense(mask).remaining_ratio
    merged = conmerge_tiled(mask)

    result = BenchResult("fig09_merging", model="stable_diffusion")
    result.add_series(
        "Fig. 9 — Stable Diffusion remaining columns through ConMerge",
        ["stage", "remaining columns", "paper"],
        [
            ["condensing (whole matrix)", percent(whole_matrix_condense),
             "77.4%"],
            ["condensing (per 16-row tile)", percent(merged.condense_ratio),
             "-"],
            ["+ merging (ConMerge)", percent(merged.remaining_column_ratio),
             "8.4%"],
        ],
    )
    result.add_metric(
        "whole_matrix_condense_ratio", whole_matrix_condense,
        paper=0.774, direction="two_sided", tolerance=0.15,
    )
    result.add_metric(
        "tile_condense_ratio", merged.condense_ratio,
        direction="lower_better", tolerance=0.15,
    )
    result.add_metric(
        "conmerge_remaining_ratio", merged.remaining_column_ratio,
        paper=0.084, direction="lower_better", tolerance=0.15,
    )
    result.add_metric(
        "utilization", merged.utilization,
        direction="higher_better", tolerance=0.15,
    )
    return result


def test_fig09_merging(bench_ctx):
    result = build_fig09(bench_ctx)
    emit_result(result)

    # Shape: condensing alone leaves most columns; ConMerge collapses them.
    whole = result.value("whole_matrix_condense_ratio")
    remaining = result.value("conmerge_remaining_ratio")
    assert whole > 0.6
    assert remaining < 0.45
    assert remaining < whole / 2
    # Merged blocks execute at decent utilization.
    assert result.value("utilization") > 0.2
