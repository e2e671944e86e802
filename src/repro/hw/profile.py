"""Sparsity profiles: what the performance model knows about a workload.

A profile captures the output-sparsity structure EXION's algorithms produce
for one model — either measured from a simulation-scale run
(:func:`profile_from_stats`) or estimated at paper scale by synthesizing
masks and running real ConMerge passes over sampled tiles
(:func:`estimate_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import conmerge_tiled
from repro.core.sparsity import RunStats
from repro.hw.constants import HardwareConstants
from repro.workloads.generator import attention_keepmask, ffn_output_bitmask
from repro.workloads.specs import ModelSpec


@dataclass
class SparsityProfile:
    """Inputs to the DSC performance model for one benchmark model."""

    name: str
    dense_period: int
    # FFN (inter-iteration) structure during sparse iterations.
    ffn_sparsity: float
    ffn_condense_ratio: float  # columns left after condensing (per tile)
    ffn_remaining_ratio: float  # columns left after full ConMerge
    ffn_utilization: float  # active-DPU fraction of merged blocks
    # Attention (intra-iteration) structure, every iteration.
    attn_sparsity: float
    attn_condense_ratio: float
    attn_remaining_ratio: float
    attn_utilization: float
    q_skip: float
    kv_skip: float

    def __post_init__(self) -> None:
        for field_name in (
            "ffn_sparsity",
            "ffn_condense_ratio",
            "ffn_remaining_ratio",
            "ffn_utilization",
            "attn_sparsity",
            "attn_condense_ratio",
            "attn_remaining_ratio",
            "attn_utilization",
            "q_skip",
            "kv_skip",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name}={value} out of [0, 1]")


def one_hot_rate_from_spec(spec: ModelSpec) -> float:
    """Dominance-skip rate consistent with Table I's sparsity and k.

    Total intra sparsity decomposes as
    ``one_hot + (1 - one_hot) * (1 - k)``; solving for ``one_hot`` and
    clamping keeps the synthetic masks consistent with the paper's figures.
    """
    k = spec.top_k_ratio
    s = spec.target_intra_sparsity
    if k <= 0.0:
        return 0.0
    rate = (s - (1.0 - k)) / k
    return float(min(max(rate, 0.0), 1.0))


def _conmerge_summary(mask: Bitmask) -> tuple:
    result = conmerge_tiled(mask, tile_rows=16, width=16, sort=True)
    return (
        result.condense_ratio,
        result.remaining_column_ratio,
        result.utilization,
    )


def estimate_profile(
    spec: ModelSpec, constants: HardwareConstants, seed: int = 0
) -> SparsityProfile:
    """Paper-scale profile from synthetic masks + real ConMerge passes.

    Sampling keeps the pass cheap: ConMerge statistics are per-tile, so a
    ``constants.sample_rows`` x ``constants.sample_cols`` sample of the
    full output matrix estimates them unbiasedly. The FFN masks'
    dead-column fraction and the projection skip rates come from
    ``constants`` too.
    """
    rng = np.random.default_rng(seed)
    hidden = spec.paper_ffn_mult * spec.paper_dim
    rows = min(spec.paper_tokens, constants.sample_rows)
    cols = min(hidden, constants.sample_cols)
    ffn_mask = ffn_output_bitmask(
        rows,
        cols,
        spec.target_inter_sparsity,
        dead_col_fraction=constants.dead_col_fraction,
        rng=rng,
    )
    ffn_cond, ffn_remain, ffn_util = _conmerge_summary(ffn_mask)

    tq = min(spec.paper_tokens, constants.sample_rows)
    tk = min(spec.paper_tokens, constants.sample_cols)
    attn_mask = attention_keepmask(
        tq,
        tk,
        spec.top_k_ratio,
        one_hot_rate=one_hot_rate_from_spec(spec),
        rng=rng,
    )
    attn_cond, attn_remain, attn_util = _conmerge_summary(attn_mask)

    return SparsityProfile(
        name=spec.name,
        dense_period=spec.dense_period,
        ffn_sparsity=spec.target_inter_sparsity,
        ffn_condense_ratio=ffn_cond,
        ffn_remaining_ratio=ffn_remain,
        ffn_utilization=ffn_util,
        attn_sparsity=spec.target_intra_sparsity,
        attn_condense_ratio=attn_cond,
        attn_remaining_ratio=attn_remain,
        attn_utilization=attn_util,
        q_skip=constants.q_skip,
        kv_skip=constants.kv_skip,
    )


def profile_from_stats(
    spec: ModelSpec,
    stats: RunStats,
    constants: HardwareConstants,
) -> SparsityProfile:
    """Profile using *measured* sparsities from a simulation-scale run.

    ConMerge compaction ratios still come from paper-scale synthetic masks
    (tile structure depends on matrix size), but the element sparsities and
    projection skip rates are the run's own. A rate falls back to the
    spec's target or the estimate's (``constants``) only when the run
    recorded nothing for it; a measured 0 stays 0.
    """
    base = estimate_profile(spec, constants)
    ffn_s = stats.ffn_output_sparsity if stats.ffn_sparsities else base.ffn_sparsity
    attn_s = stats.attention_output_sparsity if stats.attention_sparsities else base.attn_sparsity
    return replace(
        base, ffn_sparsity=ffn_s, attn_sparsity=attn_s,
        q_skip=stats.q_projection_skip_rate if stats.q_projection.dense else base.q_skip,
        kv_skip=stats.kv_projection_skip_rate if stats.kv_projection.dense else base.kv_skip,
    )
