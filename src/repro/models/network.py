"""Diffusion denoising networks (the three types of paper Fig. 3 (a)).

Type 1 is a UNet-shaped stack of transformer blocks without ResBlocks
(e.g. MLD), Type 2 interleaves convolutional ResBlocks with transformer
blocks (e.g. Stable Diffusion), and Type 3 is a plain transformer stack
(e.g. DiT, MDM). All three consume a latent of shape ``(tokens, dim)`` and
predict the noise at timestep ``t``.
"""

from __future__ import annotations

import enum
from math import isqrt
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.models.activations import silu
from repro.models.linear import Linear
from repro.models.norm import LayerNorm
from repro.models.resblock import ResBlock
from repro.models.transformer import Executors, TransformerBlock


class NetworkType(enum.Enum):
    """The three diffusion-network topologies of paper Fig. 3 (a)."""

    TRANSFORMER_UNET = 1  # UNet without ResBlocks
    RESBLOCK_UNET = 2  # UNet with ResBlocks
    TRANSFORMER_ONLY = 3  # plain transformer stack


ExecutorProvider = Union[Sequence[Executors], Callable[[int], Optional[Executors]]]

#: Width of the sinusoidal timestep embedding, the time MLP, and the
#: embedding adaLN and the ResBlocks read.
TIMESTEP_DIM = 64


class Stage(NamedTuple):
    """Transformer blocks ``blocks`` run on ``tokens`` tokens."""

    tokens: int
    blocks: range


def network_stages(
    network_type: Union[NetworkType, int], tokens: int, depth: int
) -> tuple:
    """Which transformer blocks run at which token count.

    ``network_type`` is a :class:`NetworkType` or its paper number. A
    transformer-only stack is one stage at full resolution; a UNet runs
    its encoder half at ``tokens`` and its decoder half at
    ``ceil(tokens / 2)``, between a token-pair downsample and an upsample
    with a skip across them (the decoder stage may hold no block).
    :meth:`DiffusionNetwork.walk` runs these stages and
    :func:`repro.program.lower.lower_program` prices them.
    """
    if NetworkType(network_type) is NetworkType.TRANSFORMER_ONLY:
        return (Stage(tokens, range(depth)),)
    half = max(1, depth // 2)
    return (Stage(tokens, range(half)), Stage(-(-tokens // 2), range(half, depth)))


def timestep_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal timestep embedding as in DDPM/DiT (max period 10000)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = float(t) * freqs
    embed = np.concatenate([np.cos(args), np.sin(args)])
    if dim % 2 == 1:
        embed = np.concatenate([embed, np.zeros(1)])
    return embed


class DiffusionNetwork:
    """Noise-prediction network over a ``(tokens, dim)`` latent.

    Parameters mirror the benchmark model specs; ``use_adaln`` enables
    DiT-style timestep modulation of each block.
    """

    def __init__(
        self,
        network_type: NetworkType,
        tokens: int,
        dim: int,
        num_heads: int,
        depth: int,
        ffn_mult: int,
        rng: np.random.Generator,
        activation: str = "gelu",
        context_dim: Optional[int] = None,
        use_adaln: bool = False,
    ) -> None:
        if tokens < 2:
            raise ValueError("need at least 2 tokens")
        if network_type is NetworkType.RESBLOCK_UNET and isqrt(tokens) ** 2 != tokens:
            raise ValueError(
                "RESBLOCK_UNET needs a square token count for its 2D latent"
            )
        self.network_type = network_type
        self.tokens = tokens
        self.dim = dim
        self.depth = depth
        self.context_dim = context_dim
        self.stages = network_stages(network_type, tokens, depth)

        self.time_mlp1 = Linear(TIMESTEP_DIM, TIMESTEP_DIM, rng)
        self.time_mlp2 = Linear(TIMESTEP_DIM, TIMESTEP_DIM, rng)

        def make_block() -> TransformerBlock:
            return TransformerBlock(
                dim,
                num_heads,
                ffn_mult,
                rng,
                activation=activation,
                context_dim=context_dim,
                timestep_dim=TIMESTEP_DIM if use_adaln else None,
            )

        self.blocks = [make_block() for _ in range(depth)]
        self.resblocks: list[ResBlock] = []
        if network_type is NetworkType.RESBLOCK_UNET:
            self.resblocks = [ResBlock(dim, TIMESTEP_DIM, rng) for _ in range(depth)]

        if len(self.stages) > 1:
            # Token-axis down/up-sampling for the UNet shape.
            self.down_proj = Linear(dim, dim, rng)
            self.up_proj = Linear(dim, dim, rng)

        self.final_norm = LayerNorm(dim)
        self.out_proj = Linear(dim, dim, rng)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    @property
    def num_transformer_blocks(self) -> int:
        return len(self.blocks)

    def _resolve_executors(
        self, provider: Optional[ExecutorProvider], index: int
    ) -> Optional[Executors]:
        if provider is None:
            return None
        if callable(provider):
            return provider(index)
        return provider[index]

    def _embed_timestep(self, t: int) -> np.ndarray:
        embed = timestep_embedding(t, TIMESTEP_DIM)
        return self.time_mlp2(silu(self.time_mlp1(embed)))

    def __call__(
        self,
        x: np.ndarray,
        t: int,
        context: Optional[np.ndarray] = None,
        executors: Optional[ExecutorProvider] = None,
    ) -> np.ndarray:
        """Predict noise for latent ``x`` at timestep ``t``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.tokens, self.dim):
            raise ValueError(
                f"expected latent shape {(self.tokens, self.dim)}, got {x.shape}"
            )
        t_embed = self._embed_timestep(t)

        def block(index: int, h: np.ndarray) -> np.ndarray:
            return self.blocks[index](
                h,
                context=context,
                t_embed=t_embed,
                executors=self._resolve_executors(executors, index),
            )

        return self.walk(x, t_embed, block)

    def walk(
        self,
        x: np.ndarray,
        t_embed: np.ndarray,
        block: Callable[[int, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """The network's topology around its transformer blocks.

        ``x`` is ``(..., tokens, dim)`` and ``t_embed`` the matching
        ``(..., TIMESTEP_DIM)`` embedding(s) the ResBlocks read;
        ``block(index, h)`` runs transformer block ``index`` on ``h``. The
        oracle passes its executor-hooked blocks, the engines their compiled
        ones, so ResBlocks, pooling and the UNet skip have this one
        definition; the blocks run in :attr:`stages` order.
        """
        def stage(h: np.ndarray, indices: range) -> np.ndarray:
            for i in indices:
                if self.resblocks:
                    h = self._apply_resblock(self.resblocks[i], h, t_embed)
                h = block(i, h)
            return h

        h = stage(x, self.stages[0].blocks)
        if len(self.stages) > 1:
            # UNet shape: residual path across the downsampled stage.
            down = stage(self._downsample(h), self.stages[1].blocks)
            h = self._upsample(down, self.tokens) + h
        return self.out_proj(self.final_norm(h))

    def _apply_resblock(
        self, resblock: ResBlock, h: np.ndarray, t_embed: np.ndarray
    ) -> np.ndarray:
        """``h`` is ``(tokens, dim)`` with one timestep embedding, or a
        ``(batch, tokens, dim)`` stack with one embedding per request."""
        *batch, tokens, _ = h.shape
        # Downsampled token counts may not be square; ResBlocks then run
        # on the largest square crop with a pass-through remainder.
        side = isqrt(tokens)
        square = side * side
        grid = np.swapaxes(h[..., :square, :], -1, -2).reshape(
            *batch, self.dim, side, side
        )
        out = resblock(grid, t_embed).reshape(*batch, self.dim, square)
        return np.concatenate(
            [np.swapaxes(out, -1, -2), h[..., square:, :]], axis=-2
        )

    def _downsample(self, h: np.ndarray) -> np.ndarray:
        """Pool token pairs along axis -2 (an odd last token pairs with
        itself)."""
        if h.shape[-2] % 2 == 1:
            h = np.concatenate([h, h[..., -1:, :]], axis=-2)
        pooled = 0.5 * (h[..., 0::2, :] + h[..., 1::2, :])
        return self.down_proj(pooled)

    def _upsample(self, h: np.ndarray, target_tokens: int) -> np.ndarray:
        """Repeat tokens along axis -2 to ``target_tokens``."""
        up = np.repeat(h, 2, axis=-2)[..., :target_tokens, :]
        if up.shape[-2] < target_tokens:
            pad = np.repeat(up[..., -1:, :], target_tokens - up.shape[-2], axis=-2)
            up = np.concatenate([up, pad], axis=-2)
        return self.up_proj(up)
