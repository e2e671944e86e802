"""Fig. 7 — inter-iteration cosine similarity and adjacent differences.

Reproduces the DiT study: (a) the cosine-similarity heatmap of the second
block's GELU output across iterations, and (b) the observation that
adjacent-iteration differences are heavy-tailed with recurring positions.
"""

import numpy as np

from repro.analysis.similarity import (
    adjacent_differences,
    cosine_similarity_matrix,
    difference_position_overlap,
    gelu_outputs_by_iteration,
)
from repro.bench import BenchResult, register_bench
from repro.models.zoo import build_model

from .conftest import emit_result


def collect(iterations=24):
    model = build_model("dit", seed=0, total_iterations=iterations)
    return gelu_outputs_by_iteration(model, block=1, seed=3, class_label=2)


@register_bench("fig07_similarity", tags=("figure", "analysis"))
def build_fig07(ctx):
    outputs = collect()
    matrix = cosine_similarity_matrix(outputs)

    result = BenchResult("fig07_similarity", model="dit")

    # Coarse heatmap summary: mean similarity by iteration distance.
    n = len(outputs)
    by_distance = []
    for d in (1, 2, 4, 8, n - 1):
        vals = np.diag(matrix, k=d)
        by_distance.append([f"|i-j| = {d}", f"{vals.mean():.3f}"])
    result.add_series(
        "Fig. 7 (a) — GELU-output similarity across DiT iterations",
        ["iteration distance", "mean cosine similarity"],
        by_distance,
    )

    diffs = adjacent_differences(outputs)
    stacked = np.concatenate([d.ravel() for d in diffs])
    overlap = difference_position_overlap(outputs, quantile=0.9)
    p99 = np.quantile(stacked, 0.99)
    result.add_series(
        "Fig. 7 (b) — adjacent-iteration difference structure",
        ["statistic", "value"],
        [
            ["mean |delta|", f"{stacked.mean():.4f}"],
            ["p99 |delta|", f"{p99:.4f}"],
            ["p99 / mean (heavy tail)", f"{p99 / stacked.mean():.1f}x"],
            ["top-10% position recurrence (Jaccard)", f"{overlap:.3f}"],
        ],
    )

    result.add_metric(
        "adjacent_mean_cosine", float(np.diag(matrix, k=1).mean()),
        direction="higher_better", tolerance=0.05,
    )
    result.add_metric(
        "p99_over_mean_delta", float(p99 / stacked.mean()),
        direction="higher_better", tolerance=0.20,
    )
    result.add_metric(
        "position_overlap_jaccard", float(overlap),
        direction="higher_better", tolerance=0.20,
    )
    return result


def test_fig07_cosine_similarity(bench_ctx):
    result = build_fig07(bench_ctx)
    emit_result(result)

    assert result.value("adjacent_mean_cosine") > 0.75  # temporal redundancy
    assert result.value("p99_over_mean_delta") > 3.0  # spiky diffs
    assert result.value("position_overlap_jaccard") > 0.1  # recurring positions
