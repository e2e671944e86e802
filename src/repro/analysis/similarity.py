"""Inter-iteration similarity analysis (paper Fig. 7).

The rationale behind FFN-Reuse: GELU outputs of the same block are highly
similar across adjacent denoising iterations, and where they differ, the
differing positions recur. These helpers reproduce the paper's heatmap and
adjacent-difference study on any benchmark model.
"""

from __future__ import annotations

import numpy as np

from repro.models.zoo import BenchmarkModel
from repro.workloads.metrics import cosine_similarity


def gelu_outputs_by_iteration(
    model: BenchmarkModel,
    block: int = 1,
    seed: int = 0,
    class_label: int = None,
) -> list:
    """Non-linearity outputs of one block for every denoising iteration."""
    # Traces come from the interpreted network hooks; no optimization (and
    # so no ExionPipeline) is involved in the vanilla run they describe.
    result = model.make_pipeline().generate(
        seed=seed, class_label=class_label, collect_traces=True
    )
    return [traces[block].ffn.hidden.copy() for traces in result.block_traces]


def cosine_similarity_matrix(outputs: list) -> np.ndarray:
    """Pairwise cosine-similarity heatmap across iterations (Fig. 7 (a))."""
    n = len(outputs)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            sim = cosine_similarity(outputs[i], outputs[j])
            matrix[i, j] = sim
            matrix[j, i] = sim
    return matrix


def adjacent_differences(outputs: list) -> list:
    """|delta| between adjacent iterations' outputs (Fig. 7 (b))."""
    return [
        np.abs(outputs[i + 1] - outputs[i]) for i in range(len(outputs) - 1)
    ]


def difference_position_overlap(outputs: list, quantile: float = 0.95) -> float:
    """How consistently the large-difference positions recur.

    For each adjacent pair, take the positions whose |delta| exceeds the
    per-pair quantile; return the mean Jaccard overlap between consecutive
    position sets. High overlap is what makes a *fixed* per-dense-iteration
    bitmask safe for N sparse iterations.
    """
    diffs = adjacent_differences(outputs)
    if len(diffs) < 2:
        return 1.0
    sets = []
    for diff in diffs:
        threshold = np.quantile(diff, quantile)
        sets.append(set(map(tuple, np.argwhere(diff > threshold))))
    overlaps = []
    for a, b in zip(sets[:-1], sets[1:]):
        union = a | b
        if union:
            overlaps.append(len(a & b) / len(union))
    return float(np.mean(overlaps)) if overlaps else 1.0
