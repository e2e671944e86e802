"""Configuration for EXION's software-level optimizations."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExionConfig:
    """Knobs for the FFN-Reuse and eager-prediction algorithms.

    Defaults follow the paper's Table I conventions; per-model settings come
    from :meth:`for_model`. The four ablation configurations of the
    evaluation (Base / EP / FFNR / All) are expressed with the two enable
    flags.
    """

    enable_ffn_reuse: bool = True
    enable_eager_prediction: bool = True

    # FFN-Reuse (paper Section III-A).
    sparse_iters_n: int = 4  # sparse iterations after each dense iteration
    ffn_target_sparsity: float = 0.90  # quantile target absent a calibrated threshold

    # Eager prediction (paper Sections II-B, IV-D).
    q_threshold: float = 0.5  # dominance threshold q_th on predicted scores
    top_k_ratio: float = 0.5  # fraction of each score row kept
    lod_mode: str = "ts_lod"  # "lod", "ts_lod" or "exact" prediction
    prediction_bits: int = 12  # integer width of the log-domain operands

    def __post_init__(self) -> None:
        if self.sparse_iters_n < 0:
            raise ValueError("sparse_iters_n must be >= 0")
        if not 0.0 <= self.ffn_target_sparsity < 1.0:
            raise ValueError("ffn_target_sparsity must be in [0, 1)")
        if not 0.0 < self.top_k_ratio <= 1.0:
            raise ValueError("top_k_ratio must be in (0, 1]")
        if self.q_threshold < 0.0:
            raise ValueError("q_threshold must be >= 0")
        if self.lod_mode not in ("lod", "ts_lod", "exact"):
            raise ValueError(f"unknown lod_mode {self.lod_mode!r}")
        if not 2 <= self.prediction_bits <= 16:
            raise ValueError("prediction_bits must be in [2, 16]")

    @classmethod
    def for_model(
        cls,
        name: str,
        enable_ffn_reuse: bool = True,
        enable_eager_prediction: bool = True,
        lod_mode: str = "ts_lod",
    ) -> "ExionConfig":
        """Table I configuration for a benchmark model."""
        from repro.workloads.specs import get_spec

        spec = get_spec(name)
        return cls(
            enable_ffn_reuse=enable_ffn_reuse,
            enable_eager_prediction=enable_eager_prediction,
            sparse_iters_n=spec.sparse_iters_n,
            ffn_target_sparsity=spec.target_inter_sparsity,
            q_threshold=spec.q_threshold,
            top_k_ratio=spec.top_k_ratio,
            lod_mode=lod_mode,
        )

    def ablation(self, which: str) -> "ExionConfig":
        """Return the Base / EP / FFNR / All variant of this config."""
        variants = {
            "base": (False, False),
            "ep": (False, True),
            "ffnr": (True, False),
            "all": (True, True),
        }
        if which not in variants:
            raise ValueError(f"unknown ablation {which!r}; use base/ep/ffnr/all")
        ffnr, ep = variants[which]
        return replace(
            self, enable_ffn_reuse=ffnr, enable_eager_prediction=ep
        )
