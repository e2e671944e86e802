"""Benchmark workload specifications, generators and evaluation metrics."""

from repro.workloads.metrics import (
    beat_alignment_proxy,
    cosine_similarity,
    fid_proxy,
    inception_score_proxy,
    psnr,
)
from repro.workloads.specs import (
    ALL_MODEL_ORDER,
    BENCHMARK_ORDER,
    EXTENDED_ORDER,
    MODEL_SPECS,
    ModelSpec,
    get_spec,
)

__all__ = [
    "ALL_MODEL_ORDER",
    "BENCHMARK_ORDER",
    "EXTENDED_ORDER",
    "MODEL_SPECS",
    "ModelSpec",
    "beat_alignment_proxy",
    "cosine_similarity",
    "fid_proxy",
    "get_spec",
    "inception_score_proxy",
    "psnr",
]
