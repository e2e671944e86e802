"""Transformer block of the paper's Fig. 3 (b).

Pre-norm design: self-attention, optional cross-attention on a conditioning
context, then the FFN, each with a residual add. DiT-style models additionally
modulate the block with adaptive layer-norm driven by the timestep embedding,
which is the mechanism that makes activations drift smoothly across denoising
iterations (the redundancy FFN-Reuse exploits). A block returns its output
alone; each sub-layer runs through its optional executor in
:class:`Executors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.attention import AttentionExecutor, MultiHeadAttention
from repro.models.ffn import FeedForward, FFNExecutor
from repro.models.norm import AdaLNModulation, LayerNorm


@dataclass
class Executors:
    """Per-block bundle of optional sparsity-aware executors."""

    self_attention: Optional[AttentionExecutor] = None
    cross_attention: Optional[AttentionExecutor] = None
    ffn: Optional[FFNExecutor] = None


class TransformerBlock:
    """One transformer block over ``(tokens, dim)`` activations."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_mult: int,
        rng: np.random.Generator,
        activation: str = "gelu",
        context_dim: Optional[int] = None,
        timestep_dim: Optional[int] = None,
    ) -> None:
        self.dim = dim
        self.norm1 = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(dim, num_heads, rng)
        self.cross_attn: Optional[MultiHeadAttention] = None
        self.norm_cross: Optional[LayerNorm] = None
        if context_dim is not None:
            self.norm_cross = LayerNorm(dim)
            self.cross_attn = MultiHeadAttention(
                dim, num_heads, rng, context_dim=context_dim
            )
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_mult * dim, rng, activation=activation)
        self.adaln: Optional[AdaLNModulation] = None
        if timestep_dim is not None:
            self.adaln = AdaLNModulation(timestep_dim, dim, rng)

    def __call__(
        self,
        x: np.ndarray,
        context: Optional[np.ndarray] = None,
        t_embed: Optional[np.ndarray] = None,
        executors: Optional[Executors] = None,
    ) -> np.ndarray:
        ex = executors or Executors()

        h = self.norm1(x)
        if self.adaln is not None and t_embed is not None:
            shift, scale, gate = self.adaln(t_embed)
            h = h * (1.0 + scale) + shift
        else:
            gate = 1.0
        x = x + gate * self.self_attn(h, executor=ex.self_attention)

        if self.cross_attn is not None and context is not None:
            assert self.norm_cross is not None
            x = x + self.cross_attn(
                self.norm_cross(x), context=context, executor=ex.cross_attention
            )

        return x + self.ffn(self.norm2(x), executor=ex.ffn)
