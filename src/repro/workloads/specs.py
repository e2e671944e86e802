"""Benchmark model specifications.

Seven diffusion models spanning the paper's three network types
(Table I, Fig. 4). Each spec carries:

- **sim dims** — small, runnable dimensions for the numpy substrate; the
  sparsity algorithms operate on these activations directly;
- **paper dims** — the published model scale, used only for analytic
  operation counting (Fig. 4) and for driving the hardware simulator with
  realistic tile counts;
- **EXION configuration** — the per-model FFN-Reuse period ``N``,
  eager-prediction ``(q_th, k)`` and the paper's reported sparsity levels
  (Table I) used as calibration targets and reference points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one benchmark diffusion model."""

    name: str
    display_name: str
    task: str
    network_type: int  # 1, 2 or 3 per paper Fig. 3 (a)

    # Runnable (simulation) dimensions.
    tokens: int
    dim: int
    num_heads: int
    depth: int
    ffn_mult: int
    activation: str
    context_dim: Optional[int]
    use_adaln: bool
    total_iterations: int

    # Published model scale, for analytic op counting and HW tiling.
    paper_tokens: int
    paper_dim: int
    paper_heads: int
    paper_depth: int
    paper_ffn_mult: int
    paper_context_tokens: Optional[int]
    paper_total_ops: float  # ops per iteration, paper Fig. 4
    paper_transformer_share: float  # fraction of ops in transformer blocks

    # EXION configuration (paper Table I).
    sparse_iters_n: int  # sparse iterations per dense iteration
    target_inter_sparsity: float  # FFN-Reuse output sparsity
    target_intra_sparsity: float  # EP attention output sparsity
    q_threshold: float  # EP dominance threshold q_th
    top_k_ratio: float  # EP top-k keep ratio k

    # Reference results for benches (paper Fig. 6 and Section II-B).
    paper_ffn_ops_reduction: float

    # Video models: frames per latent. When set, the lowering pipeline
    # (:mod:`repro.program.lower`) factorizes self-attention into
    # per-frame spatial attention plus a temporal-attention group across
    # frames; ``paper_tokens`` must be divisible by this. ``None`` for
    # image/motion/audio models.
    paper_temporal_frames: Optional[int] = None

    @property
    def dense_period(self) -> int:
        """Iterations per FFN-Reuse period: one dense plus N sparse."""
        return self.sparse_iters_n + 1


MODEL_SPECS: dict[str, ModelSpec] = {
    "mld": ModelSpec(
        name="mld",
        display_name="MLD",
        task="text-to-motion",
        network_type=1,
        tokens=4,
        dim=64,
        num_heads=4,
        depth=3,
        ffn_mult=4,
        activation="gelu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=4,
        paper_dim=256,
        paper_heads=4,
        paper_depth=9,
        paper_ffn_mult=4,
        paper_context_tokens=4,
        paper_total_ops=9.1e7,
        paper_transformer_share=0.30,
        sparse_iters_n=9,
        target_inter_sparsity=0.95,
        target_intra_sparsity=0.30,
        q_threshold=0.3,
        top_k_ratio=0.7,
        paper_ffn_ops_reduction=0.7758,
    ),
    "mdm": ModelSpec(
        name="mdm",
        display_name="MDM",
        task="text-to-motion",
        network_type=3,
        tokens=24,
        dim=64,
        num_heads=4,
        depth=3,
        ffn_mult=4,
        activation="gelu",
        context_dim=None,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=196,
        paper_dim=512,
        paper_heads=8,
        paper_depth=8,
        paper_ffn_mult=4,
        paper_context_tokens=None,
        paper_total_ops=1.2e11,
        paper_transformer_share=0.91,
        sparse_iters_n=5,
        target_inter_sparsity=0.95,
        target_intra_sparsity=0.95,
        q_threshold=0.3,
        top_k_ratio=0.05,
        paper_ffn_ops_reduction=0.7951,
    ),
    "edge": ModelSpec(
        name="edge",
        display_name="EDGE",
        task="music-to-motion",
        network_type=3,
        tokens=20,
        dim=64,
        num_heads=4,
        depth=3,
        ffn_mult=4,
        activation="gelu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=150,
        paper_dim=512,
        paper_heads=8,
        paper_depth=12,
        paper_ffn_mult=4,
        paper_context_tokens=77,
        paper_total_ops=9.1e9,
        paper_transformer_share=0.46,
        sparse_iters_n=5,
        target_inter_sparsity=0.95,
        target_intra_sparsity=0.50,
        q_threshold=0.9,
        top_k_ratio=0.5,
        paper_ffn_ops_reduction=0.7786,
    ),
    "make_an_audio": ModelSpec(
        name="make_an_audio",
        display_name="Make-an-Audio",
        task="text-to-audio",
        network_type=2,
        tokens=16,
        dim=64,
        num_heads=4,
        depth=2,
        ffn_mult=4,
        activation="gelu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=256,
        paper_dim=640,
        paper_heads=8,
        paper_depth=8,
        paper_ffn_mult=4,
        paper_context_tokens=77,
        paper_total_ops=1.9e11,
        paper_transformer_share=0.67,
        sparse_iters_n=5,
        target_inter_sparsity=0.97,
        target_intra_sparsity=0.80,
        q_threshold=0.7,
        top_k_ratio=0.2,
        paper_ffn_ops_reduction=0.5279,
    ),
    "stable_diffusion": ModelSpec(
        name="stable_diffusion",
        display_name="Stable Diffusion",
        task="text-to-image",
        network_type=2,
        tokens=16,
        dim=64,
        num_heads=4,
        depth=2,
        ffn_mult=4,
        activation="geglu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=1024,
        paper_dim=640,
        paper_heads=8,
        paper_depth=16,
        paper_ffn_mult=4,
        paper_context_tokens=77,
        paper_total_ops=3.6e11,
        paper_transformer_share=0.55,
        sparse_iters_n=4,
        target_inter_sparsity=0.97,
        target_intra_sparsity=0.20,
        q_threshold=0.8,
        top_k_ratio=0.8,
        paper_ffn_ops_reduction=0.5247,
    ),
    "dit": ModelSpec(
        name="dit",
        display_name="DiT",
        task="class-to-image",
        network_type=3,
        tokens=16,
        dim=64,
        num_heads=4,
        depth=4,
        ffn_mult=4,
        activation="gelu",
        context_dim=None,
        use_adaln=True,
        total_iterations=100,
        paper_tokens=256,
        paper_dim=1152,
        paper_heads=16,
        paper_depth=28,
        paper_ffn_mult=4,
        paper_context_tokens=None,
        paper_total_ops=2.5e13,
        paper_transformer_share=1.00,
        sparse_iters_n=2,
        target_inter_sparsity=0.80,
        target_intra_sparsity=0.95,
        q_threshold=0.15,
        top_k_ratio=0.05,
        paper_ffn_ops_reduction=0.8541,
    ),
    "videocrafter2": ModelSpec(
        name="videocrafter2",
        display_name="VideoCrafter2",
        task="text-to-video",
        network_type=2,
        tokens=16,
        dim=64,
        num_heads=4,
        depth=2,
        ffn_mult=4,
        activation="gelu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=2048,
        paper_dim=1024,
        paper_heads=16,
        paper_depth=16,
        paper_ffn_mult=4,
        paper_context_tokens=77,
        paper_total_ops=2.1e12,
        paper_transformer_share=0.93,
        sparse_iters_n=3,
        target_inter_sparsity=0.70,
        target_intra_sparsity=0.50,
        q_threshold=2.0,
        top_k_ratio=0.5,
        paper_ffn_ops_reduction=0.7789,
    ),
    # ------------------------------------------------------------------
    # Extended scenarios beyond the paper's Table I. These exercise the
    # lowering pipeline (repro.program): registering a spec here is all
    # it takes to run a model on every backend — the EXION configs, the
    # GPU/Cambricon-D/Delta-DiT baselines, `repro explore` and
    # `repro cluster` all price the lowered IR with no per-model code.
    # ------------------------------------------------------------------
    "latte_video_dit": ModelSpec(
        name="latte_video_dit",
        display_name="Latte-class video DiT",
        task="text-to-video",
        network_type=3,
        tokens=32,
        dim=64,
        num_heads=4,
        depth=3,
        ffn_mult=4,
        activation="gelu",
        context_dim=None,
        use_adaln=True,
        total_iterations=50,
        paper_tokens=4096,  # 16 frames x 256 spatial tokens
        paper_dim=1152,
        paper_heads=16,
        paper_depth=28,
        paper_ffn_mult=4,
        paper_context_tokens=None,
        paper_total_ops=4.6e13,
        paper_transformer_share=1.00,
        sparse_iters_n=3,
        target_inter_sparsity=0.80,
        target_intra_sparsity=0.90,
        q_threshold=0.2,
        top_k_ratio=0.1,
        paper_ffn_ops_reduction=0.80,
        paper_temporal_frames=16,
    ),
    "sdxl_unet": ModelSpec(
        name="sdxl_unet",
        display_name="SDXL-class UNet",
        task="text-to-image",
        network_type=2,
        tokens=16,
        dim=64,
        num_heads=4,
        depth=2,
        ffn_mult=4,
        activation="geglu",
        context_dim=64,
        use_adaln=False,
        total_iterations=50,
        paper_tokens=4096,
        paper_dim=1280,
        paper_heads=20,
        paper_depth=10,
        paper_ffn_mult=4,
        paper_context_tokens=77,
        paper_total_ops=3.0e12,
        paper_transformer_share=0.72,
        sparse_iters_n=4,
        target_inter_sparsity=0.95,
        target_intra_sparsity=0.30,
        q_threshold=0.8,
        top_k_ratio=0.7,
        paper_ffn_ops_reduction=0.55,
    ),
}

BENCHMARK_ORDER: tuple[str, ...] = (
    "mld",
    "mdm",
    "edge",
    "make_an_audio",
    "stable_diffusion",
    "dit",
    "videocrafter2",
)

#: Models beyond the paper's Table I set, enabled purely by the lowering
#: pipeline (no backend-specific code anywhere).
EXTENDED_ORDER: tuple[str, ...] = (
    "latte_video_dit",
    "sdxl_unet",
)

#: Every registered model: the Table I benchmarks plus the extended set.
ALL_MODEL_ORDER: tuple[str, ...] = BENCHMARK_ORDER + EXTENDED_ORDER


def get_spec(name: str) -> ModelSpec:
    """Look up a benchmark model spec by name.

    Raises ``KeyError`` with the list of known names on a miss.
    """
    try:
        return MODEL_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_SPECS))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None
