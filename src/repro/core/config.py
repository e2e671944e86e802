"""Configuration for EXION's software-level optimizations."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

#: The evaluation's four ablations (Base / EP / FFNR / All), in the order
#: the paper and the CLI list them: name ->
#: ``(enable_ffn_reuse, enable_eager_prediction)``.
ABLATIONS = {
    "base": (False, False),
    "ep": (False, True),
    "ffnr": (True, False),
    "all": (True, True),
}


def require_ablation(name: str) -> None:
    """Refuse a name that is not one of :data:`ABLATIONS`."""
    if name not in ABLATIONS:
        raise ValueError(
            f"unknown ablation {name!r}; use {'/'.join(ABLATIONS)}")


@dataclass(frozen=True)
class ExionConfig:
    """Knobs for the FFN-Reuse and eager-prediction algorithms.

    Defaults follow the paper's Table I conventions; per-model settings come
    from :meth:`for_spec` / :meth:`for_model`. The four ablation
    configurations of the evaluation (Base / EP / FFNR / All) are expressed
    with the two enable flags, and a config is the one description of an
    ablation everywhere: what runs, what is lowered and what is priced.
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
        for name in ("sparse_iters_n", "prediction_bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.sparse_iters_n < 0:
            raise ValueError("sparse_iters_n must be >= 0")
        if not 0.0 <= self.ffn_target_sparsity < 1.0:
            raise ValueError("ffn_target_sparsity must be in [0, 1)")
        if not 0.0 < self.top_k_ratio <= 1.0:
            raise ValueError("top_k_ratio must be in (0, 1]")
        if not self.q_threshold >= 0.0:  # NaN fails too
            raise ValueError(f"q_threshold must be >= 0, got {self.q_threshold!r}")
        if self.lod_mode not in ("lod", "ts_lod", "exact"):
            raise ValueError(f"unknown lod_mode {self.lod_mode!r}")
        if not 2 <= self.prediction_bits <= 16:
            raise ValueError("prediction_bits must be in [2, 16]")

    @classmethod
    def for_spec(cls, spec) -> "ExionConfig":
        """Table I configuration of a model spec, every algorithm enabled.

        The knobs come from ``spec`` itself, so a knob-modified spec (an
        explore point) yields its own configuration.
        """
        return cls(
            sparse_iters_n=spec.sparse_iters_n,
            ffn_target_sparsity=spec.target_inter_sparsity,
            q_threshold=spec.q_threshold,
            top_k_ratio=spec.top_k_ratio,
        )

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

        return replace(
            cls.for_spec(get_spec(name)),
            enable_ffn_reuse=enable_ffn_reuse,
            enable_eager_prediction=enable_eager_prediction,
            lod_mode=lod_mode,
        )

    @property
    def ablation_name(self) -> str:
        """Which of :data:`ABLATIONS` this config's enable flags select."""
        flags = (self.enable_ffn_reuse, self.enable_eager_prediction)
        return next(name for name, value in ABLATIONS.items() if value == flags)

    def ablation(self, which: str) -> "ExionConfig":
        """Return the Base / EP / FFNR / All variant of this config."""
        require_ablation(which)
        ffnr, ep = ABLATIONS[which]
        return replace(
            self, enable_ffn_reuse=ffnr, enable_eager_prediction=ep
        )
