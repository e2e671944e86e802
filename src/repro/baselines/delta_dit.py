"""Delta-DiT-style block caching baseline (paper Related Work [4]).

Delta-DiT accelerates diffusion *transformers* on GPUs by caching whole
transformer-block residual deltas across iterations and re-applying them
instead of recomputing the block. It is the closest software competitor to
FFN-Reuse: both exploit inter-iteration redundancy, but block caching is
coarse-grained (all-or-nothing per block) where FFN-Reuse is
element-grained. The comparison bench shows the accuracy difference at
matched compute savings — the gap EXION's Related Work section points at.

Only transformer-only networks (DiT, MDM, EDGE) are supported, matching
Delta-DiT's own scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.network import NetworkType
from repro.models.zoo import BenchmarkModel
from repro.program.lower import block_ops


@dataclass
class DeltaDiTResult:
    """Sample plus compute accounting for a block-caching run."""

    sample: np.ndarray
    iterations: int
    blocks_executed: int
    blocks_skipped: int
    macs_dense: int
    macs_computed: int

    @property
    def ops_reduction(self) -> float:
        if self.macs_dense == 0:
            return 0.0
        return 1.0 - self.macs_computed / self.macs_dense


class DeltaDiTPipeline:
    """Runs a transformer-only benchmark model with block caching.

    ``cache_interval`` plays the role of FFN-Reuse's ``N``: cached blocks
    execute exactly every ``cache_interval + 1`` iterations, refreshing
    their residual delta (block output minus block input); on the
    iterations in between, the cached delta is re-applied to the current
    input instead of running the block.
    """

    def __init__(
        self,
        model: BenchmarkModel,
        cache_interval: int = 2,
    ) -> None:
        if model.network.network_type is not NetworkType.TRANSFORMER_ONLY:
            raise ValueError(
                "Delta-DiT block caching applies to transformer-only "
                "networks (DiT / MDM / EDGE)"
            )
        if cache_interval < 0:
            raise ValueError("cache_interval must be >= 0")
        self.model = model
        self.cache_interval = cache_interval
        depth = model.network.num_transformer_blocks
        # Delta-DiT leaves the front (structure) and rear (detail) blocks
        # exact and caches the middle.
        front = max(1, depth // 4)
        self.cached_blocks = set(range(front, depth - front)) or {depth // 2}

    def _block_macs(self, tokens: int) -> int:
        # MAC accounting comes from the shared lowering (sim-scale block
        # ops, self-attention only — caching skips the block's own work,
        # not the conditioning path), not from a private model walk.
        spec = self.model.spec
        return sum(
            op.macs
            for op in block_ops(
                tokens,
                spec.dim,
                spec.num_heads,
                spec.ffn_mult,
                activation=spec.activation,
            )
        )

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> DeltaDiTResult:
        """Generate one sample with block caching."""
        network = self.model.network
        pipeline = self.model.make_pipeline()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((network.tokens, network.dim))
        context = pipeline.embed_prompt(prompt, class_label)
        timesteps = self.model.scheduler.timesteps(
            self.model.spec.total_iterations
        )

        deltas: dict = {}
        executed = 0
        skipped = 0
        block_macs = self._block_macs(network.tokens)

        for i, t in enumerate(timesteps):
            t_embed = network._embed_timestep(int(t))
            refresh = i % (self.cache_interval + 1) == 0
            h = x
            for b, block in enumerate(network.blocks):
                use_cache = (
                    b in self.cached_blocks and not refresh and b in deltas
                )
                if use_cache:
                    h = h + deltas[b]
                    skipped += 1
                else:
                    h_out, _ = block(h, context=context, t_embed=t_embed)
                    deltas[b] = h_out - h
                    h = h_out
                    executed += 1
            eps = network.out_proj(network.final_norm(h))
            prev_t = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            x = self.model.scheduler.step(eps, int(t), x, prev_t=prev_t,
                                          rng=rng)

        total_blocks = executed + skipped
        return DeltaDiTResult(
            sample=x,
            iterations=len(timesteps),
            blocks_executed=executed,
            blocks_skipped=skipped,
            macs_dense=total_blocks * block_macs,
            macs_computed=executed * block_macs,
        )
