"""Diffusion denoising networks (the three types of paper Fig. 3 (a)).

Type 1 is a UNet-shaped stack of transformer blocks without ResBlocks
(e.g. MLD), Type 2 interleaves convolutional ResBlocks with transformer
blocks (e.g. Stable Diffusion), and Type 3 is a plain transformer stack
(e.g. DiT, MDM). All three consume a latent of shape ``(tokens, dim)`` and
predict the noise at timestep ``t``.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.models.activations import silu
from repro.models.linear import Linear
from repro.models.norm import LayerNorm
from repro.models.resblock import ResBlock
from repro.models.transformer import BlockTrace, Executors, TransformerBlock


class NetworkType(enum.Enum):
    """The three diffusion-network topologies of paper Fig. 3 (a)."""

    TRANSFORMER_UNET = 1  # UNet without ResBlocks
    RESBLOCK_UNET = 2  # UNet with ResBlocks
    TRANSFORMER_ONLY = 3  # plain transformer stack


ExecutorProvider = Union[Sequence[Executors], Callable[[int], Optional[Executors]]]


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
        if network_type is NetworkType.RESBLOCK_UNET:
            side = int(round(np.sqrt(tokens)))
            if side * side != tokens:
                raise ValueError(
                    "RESBLOCK_UNET needs a square token count for its 2D latent"
                )
            self._side = side
        self.network_type = network_type
        self.tokens = tokens
        self.dim = dim
        self.depth = depth
        self.context_dim = context_dim
        self.timestep_dim = timestep_dim = 64

        self.time_mlp1 = Linear(timestep_dim, timestep_dim, rng)
        self.time_mlp2 = Linear(timestep_dim, timestep_dim, rng)

        def make_block() -> TransformerBlock:
            return TransformerBlock(
                dim,
                num_heads,
                ffn_mult,
                rng,
                activation=activation,
                context_dim=context_dim,
                timestep_dim=timestep_dim if use_adaln else None,
            )

        self.blocks = [make_block() for _ in range(depth)]
        self.resblocks: list[ResBlock] = []
        if network_type is NetworkType.RESBLOCK_UNET:
            self.resblocks = [ResBlock(dim, timestep_dim, rng) for _ in range(depth)]

        self._is_unet = network_type in (
            NetworkType.TRANSFORMER_UNET,
            NetworkType.RESBLOCK_UNET,
        )
        if self._is_unet:
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
        embed = timestep_embedding(t, self.timestep_dim)
        return self.time_mlp2(silu(self.time_mlp1(embed)))

    def __call__(
        self,
        x: np.ndarray,
        t: int,
        context: Optional[np.ndarray] = None,
        executors: Optional[ExecutorProvider] = None,
    ) -> tuple[np.ndarray, list[BlockTrace]]:
        """Predict noise for latent ``x`` at timestep ``t``.

        Returns the prediction and the per-transformer-block traces.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.tokens, self.dim):
            raise ValueError(
                f"expected latent shape {(self.tokens, self.dim)}, got {x.shape}"
            )
        t_embed = self._embed_timestep(t)
        traces: list[BlockTrace] = []

        def traced(index: int, h: np.ndarray) -> np.ndarray:
            h, trace = self.blocks[index](
                h,
                context=context,
                t_embed=t_embed,
                executors=self._resolve_executors(executors, index),
            )
            traces.append(trace)
            return h

        return self.walk(x, t_embed, traced), traces

    def walk(
        self,
        x: np.ndarray,
        t_embed: np.ndarray,
        block: Callable[[int, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """The network's topology around its transformer blocks.

        ``x`` is ``(..., tokens, dim)`` and ``t_embed`` the matching
        ``(..., timestep_dim)`` embedding(s) the ResBlocks read;
        ``block(index, h)`` runs transformer block ``index`` on ``h``. The
        oracle passes its traced blocks, the engines their compiled ones,
        so ResBlocks, pooling and the UNet skip have this one definition.
        """
        def stage(h: np.ndarray, indices: range) -> np.ndarray:
            for i in indices:
                if self.resblocks:
                    h = self._apply_resblock(self.resblocks[i], h, t_embed)
                h = block(i, h)
            return h

        if self.network_type is NetworkType.TRANSFORMER_ONLY:
            h = stage(x, range(self.depth))
        else:
            # UNet shape: encoder half at full resolution, decoder half at
            # half resolution, residual path across the downsample.
            half = max(1, self.depth // 2)
            skip = stage(x, range(half))
            h = stage(self._downsample(skip), range(half, self.depth))
            h = self._upsample(h, self.tokens) + skip
        return self.out_proj(self.final_norm(h))

    def _apply_resblock(
        self, resblock: ResBlock, h: np.ndarray, t_embed: np.ndarray
    ) -> np.ndarray:
        """``h`` is ``(tokens, dim)`` with one timestep embedding, or a
        ``(batch, tokens, dim)`` stack with one embedding per request."""
        *batch, tokens, _ = h.shape
        side = int(round(np.sqrt(tokens)))
        if side * side != tokens:
            # Downsampled token counts may not be square; ResBlocks then run
            # on the nearest square crop with a pass-through remainder.
            side = int(np.floor(np.sqrt(tokens)))
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
