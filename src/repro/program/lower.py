"""Lowering: model spec + ablation config -> IR.

A :class:`~repro.workloads.specs.ModelSpec` is lowered once into an
:class:`~repro.program.ir.IterationProgram` (the ordered MMUL ops of one
denoising iteration) and, with an ablation configuration, into a
:class:`~repro.program.ir.PhasePlan` (the dense/sparse phase of every
iteration under FFN-Reuse plus residency/sparsity annotations). Every
backend — the EXION simulator, GPU roofline, Cambricon-D, Delta-DiT
accounting, explore objectives, cluster service-time pricing — consumes
these objects; none walks the model itself.

The topology comes from :func:`repro.models.network.network_stages`,
the stages :meth:`~repro.models.network.DiffusionNetwork.walk` runs, so
the network that is priced is the network that runs. Paper-scale
programs use the published model dimensions (``paper_*`` spec fields)
so tile counts and DRAM traffic match the scale the paper evaluates;
sim-scale programs use the runnable numpy dimensions, and their MACs
per op kind are what one oracle iteration executes.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from math import isqrt
from typing import Optional

from repro.core.config import ExionConfig
from repro.core.ffn_reuse import schedule_phases
from repro.models.conditioning import ConditioningEncoder
from repro.models.network import TIMESTEP_DIM, NetworkType, network_stages
from repro.program.ir import IterationProgram, Op, PhasePlan, PhaseStep
from repro.workloads.specs import ModelSpec


def block_ops(
    tokens: int,
    dim: int,
    heads: int,
    ffn_mult: int,
    activation: str = "gelu",
    context_tokens: Optional[int] = None,
    temporal_frames: Optional[int] = None,
) -> list:
    """MMUL ops of one transformer block at the given dimensions.

    ``context_tokens`` adds a cross-attention group; ``temporal_frames``
    factorizes self-attention into per-frame spatial attention plus a
    temporal-attention group attending across frames at each spatial
    location (video-DiT-style blocks). All emitted ops carry standard
    :class:`~repro.program.ir.OpKind` categories, so backends price
    temporal attention with zero special-casing.
    """
    if dim % heads != 0:
        raise ValueError(f"dim {dim} must divide into {heads} heads")
    head_dim = dim // heads
    hidden = ffn_mult * dim
    ffn1_cols = 2 * hidden if activation == "geglu" else hidden

    ops = [
        Op("q_proj", "qkv", tokens, dim, dim),
        Op("k_proj", "qkv", tokens, dim, dim),
        Op("v_proj", "qkv", tokens, dim, dim),
    ]
    if temporal_frames:
        if tokens % temporal_frames != 0:
            raise ValueError(
                f"temporal attention needs tokens ({tokens}) divisible by "
                f"frames ({temporal_frames})"
            )
        spatial = tokens // temporal_frames
        if spatial < 2 or temporal_frames < 2:
            raise ValueError(
                "temporal attention needs >= 2 frames and >= 2 spatial "
                "tokens per frame"
            )
        # Spatial attention runs per frame; temporal attention attends
        # across frames at each spatial location with its own projections.
        ops.extend(
            [
                Op("attn_score", "attention", spatial, head_dim, spatial,
                   count=heads * temporal_frames, has_weights=False),
                Op("attn_av", "attention", spatial, spatial, head_dim,
                   count=heads * temporal_frames, has_weights=False),
                Op("out_proj", "attention", tokens, dim, dim),
                Op("temporal_q_proj", "qkv", tokens, dim, dim),
                Op("temporal_k_proj", "qkv", tokens, dim, dim),
                Op("temporal_v_proj", "qkv", tokens, dim, dim),
                Op("temporal_attn_score", "attention", temporal_frames,
                   head_dim, temporal_frames, count=heads * spatial,
                   has_weights=False),
                Op("temporal_attn_av", "attention", temporal_frames,
                   temporal_frames, head_dim, count=heads * spatial,
                   has_weights=False),
                Op("temporal_out_proj", "attention", tokens, dim, dim),
            ]
        )
    else:
        ops.extend(
            [
                Op("attn_score", "attention", tokens, head_dim, tokens,
                   count=heads, has_weights=False),
                Op("attn_av", "attention", tokens, tokens, head_dim,
                   count=heads, has_weights=False),
                Op("out_proj", "attention", tokens, dim, dim),
            ]
        )
    ops.extend(
        [
            Op("ffn_linear1", "ffn1", tokens, dim, ffn1_cols),
            Op("ffn_linear2", "ffn2", tokens, hidden, dim),
        ]
    )
    if context_tokens:
        ops.extend(
            [
                Op("xattn_q_proj", "qkv", tokens, dim, dim),
                Op("xattn_k_proj", "qkv", context_tokens, dim, dim),
                Op("xattn_v_proj", "qkv", context_tokens, dim, dim),
                Op("xattn_score", "attention", tokens, head_dim,
                   context_tokens, count=heads, has_weights=False),
                Op("xattn_av", "attention", tokens, context_tokens,
                   head_dim, count=heads, has_weights=False),
                Op("xattn_out_proj", "attention", tokens, dim, dim),
            ]
        )
    return ops


@lru_cache(maxsize=256)
def lower_program(spec: ModelSpec, scale: str = "paper") -> IterationProgram:
    """Lower one denoising iteration of ``spec`` into an IR program.

    Transformer blocks run in the stages
    :func:`~repro.models.network.network_stages` gives, the ones
    :meth:`~repro.models.network.DiffusionNetwork.walk` runs: each
    stage's block ops repeat once per block (encoded as op ``count``) at
    that stage's token count. Everything else is dense ``etc`` work
    (Fig. 4's "Etc." category). At sim scale the ``etc`` ops are the
    MMULs the numpy network runs around its blocks (:func:`_sim_etc_ops`),
    so the program's MACs per kind are the ones one oracle iteration
    executes on the longest context: the sim program prices
    ``ConditioningEncoder.max_tokens`` cross-attention keys, and a
    shorter prompt executes fewer K/V projection and score MACs than it
    prices; at paper scale the non-transformer remainder (ResBlocks,
    projections, VAE/conditioning amortized per iteration) is one op
    sized from the spec's transformer share.
    """
    if scale == "paper":
        tokens, dim = spec.paper_tokens, spec.paper_dim
        heads, depth = spec.paper_heads, spec.paper_depth
        ffn_mult = spec.paper_ffn_mult
        context = spec.paper_context_tokens
        frames = spec.paper_temporal_frames
    elif scale == "sim":
        tokens, dim = spec.tokens, spec.dim
        heads, depth = spec.num_heads, spec.depth
        ffn_mult = spec.ffn_mult
        context = ConditioningEncoder.max_tokens if spec.context_dim else None
        frames = None
    else:
        raise ValueError(f"scale must be 'paper' or 'sim', got {scale!r}")

    stages = network_stages(spec.network_type, tokens, depth)
    ops = [
        replace(op, count=op.count * len(stage.blocks))
        for stage in stages
        if stage.blocks
        for op in block_ops(stage.tokens, dim, heads, ffn_mult,
                            activation=spec.activation,
                            context_tokens=context, temporal_frames=frames)
    ]
    if scale == "sim":
        ops.extend(_sim_etc_ops(spec, stages))
    elif spec.paper_transformer_share < 1.0:
        share = spec.paper_transformer_share
        etc_macs = sum(op.macs for op in ops) * (1.0 - share) / share
        # Shape the remainder as square-ish MMUL tiles at model width.
        r = max(1, int(round(etc_macs / (dim * dim))))
        ops.append(Op("non_transformer", "etc", r, dim, dim))
    return IterationProgram(
        model=spec.name,
        scale=scale,
        tokens=tokens,
        dim=dim,
        heads=heads,
        depth=depth,
        ffn_mult=ffn_mult,
        activation=spec.activation,
        context_tokens=context,
        temporal_frames=frames,
        ops=tuple(ops),
    )


def _sim_etc_ops(spec: ModelSpec, stages: tuple) -> list:
    """The MMULs the numpy network runs outside its transformer blocks.

    The two-layer time MLP, one adaLN modulation per block
    (``t_embed @ weight``), per ResBlock its two 3x3 convolutions (im2col
    products on the square crop ``_apply_resblock`` takes) and its
    timestep projection, a UNet's down/up projections, and the output
    projection.
    """
    dim, width = spec.dim, TIMESTEP_DIM
    ops = [Op("time_mlp", "etc", 1, width, width, count=2)]
    if spec.use_adaln:
        ops.append(Op("adaln", "etc", 1, width, 3 * dim, count=spec.depth))
    if NetworkType(spec.network_type) is NetworkType.RESBLOCK_UNET:
        ops.extend(
            Op("resblock_conv", "etc", isqrt(stage.tokens) ** 2, 9 * dim, dim,
               count=2 * len(stage.blocks))
            for stage in stages
            if stage.blocks
        )
        ops.append(Op("resblock_time_proj", "etc", 1, width, dim,
                      count=spec.depth))
    if len(stages) > 1:
        ops.append(Op("down_proj", "etc", stages[1].tokens, dim, dim))
        ops.append(Op("up_proj", "etc", spec.tokens, dim, dim))
    ops.append(Op("final_proj", "etc", spec.tokens, dim, dim))
    return ops


def lower_plan(
    spec: ModelSpec,
    config: Optional[ExionConfig] = None,
    iterations: Optional[int] = None,
    batch: int = 1,
    scale: str = "paper",
) -> PhasePlan:
    """Lower a full generation of ``spec`` under ``config`` into a phase plan.

    ``config`` (an :class:`~repro.core.config.ExionConfig`, by default
    :meth:`~repro.core.config.ExionConfig.for_spec` of ``spec``) is the
    one description of what is priced: the ablation enable flags and the
    schedule-shaping knobs — the FFN-Reuse period ``sparse_iters_n``,
    sparsity targets, top-k and log-domain bits — exactly as the runnable
    pipeline would execute them. The dense/sparse cadence comes from
    :func:`repro.core.ffn_reuse.schedule_phases` — the same phase math
    the runnable FFN-Reuse manager uses, so priced and executed
    schedules cannot drift.
    """
    if config is None:
        config = ExionConfig.for_spec(spec)
    total = iterations if iterations is not None else spec.total_iterations
    if config.enable_ffn_reuse:
        phases = schedule_phases(total, config.sparse_iters_n)
    else:
        phases = [True] * total
    steps = tuple(
        PhaseStep(
            index=index,
            is_dense=is_dense,
            weight_fetch="cold" if index == 0 else "resident",
        )
        for index, is_dense in enumerate(phases)
    )
    return PhasePlan(
        program=lower_program(spec, scale),
        steps=steps,
        enable_ffn_reuse=config.enable_ffn_reuse,
        enable_eager_prediction=config.enable_eager_prediction,
        batch=batch,
        sparse_iters_n=config.sparse_iters_n,
        ffn_target_sparsity=config.ffn_target_sparsity,
        intra_sparsity_target=spec.target_intra_sparsity,
        top_k_ratio=config.top_k_ratio,
        q_threshold=config.q_threshold,
        prediction_bits=config.prediction_bits,
    )


__all__ = [
    "block_ops",
    "lower_plan",
    "lower_program",
    "schedule_phases",
]
