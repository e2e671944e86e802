"""Sparsity and operation-count statistics for an EXION run.

These aggregates drive both the accuracy tables and the hardware
performance model: the simulator consumes the measured output-sparsity
rates to size its tile workload. One :class:`RunStats` describes one
generation; servers hand each request its own, and nothing sums them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounter:
    """Dense-equivalent vs actually-computed MACs for one op category."""

    dense: int = 0
    computed: int = 0

    def add(self, dense: int, computed: int) -> None:
        if computed > dense:
            raise ValueError("computed ops cannot exceed dense-equivalent ops")
        self.dense += int(dense)
        self.computed += int(computed)

    @property
    def reduction(self) -> float:
        """Fraction of dense-equivalent ops skipped."""
        if self.dense == 0:
            return 0.0
        return 1.0 - self.computed / self.dense


@dataclass
class RunStats:
    """Aggregated statistics over one EXION generation."""

    # FFN-Reuse.
    ffn_layer1: OpCounter = field(default_factory=OpCounter)
    ffn_layer2: OpCounter = field(default_factory=OpCounter)
    ffn_sparsities: list = field(default_factory=list)  # per sparse-iter/block
    dense_iterations: int = 0
    sparse_iterations: int = 0

    # Eager prediction.
    attention_scores: OpCounter = field(default_factory=OpCounter)
    q_projection: OpCounter = field(default_factory=OpCounter)
    kv_projection: OpCounter = field(default_factory=OpCounter)
    attention_sparsities: list = field(default_factory=list)  # per layer call

    # ConMerge inputs: bitmasks collected during the run (optional).
    ffn_bitmasks: list = field(default_factory=list)
    attention_keepmasks: list = field(default_factory=list)

    @property
    def ffn_output_sparsity(self) -> float:
        """Mean 1st-FFN-layer output sparsity across sparse iterations."""
        if not self.ffn_sparsities:
            return 0.0
        return float(sum(self.ffn_sparsities) / len(self.ffn_sparsities))

    @property
    def attention_output_sparsity(self) -> float:
        """Mean attention-score output sparsity across layer calls."""
        if not self.attention_sparsities:
            return 0.0
        return float(sum(self.attention_sparsities) / len(self.attention_sparsities))

    @property
    def ffn_ops_reduction(self) -> float:
        """Fraction of FFN MACs skipped over the whole run (paper Fig. 6)."""
        total = OpCounter()
        total.add(self.ffn_layer1.dense, self.ffn_layer1.computed)
        total.add(self.ffn_layer2.dense, self.ffn_layer2.computed)
        return total.reduction

    @property
    def q_projection_skip_rate(self) -> float:
        return self.q_projection.reduction

    @property
    def kv_projection_skip_rate(self) -> float:
        return self.kv_projection.reduction

    def summary(self) -> dict:
        """Flat dict for report printing."""
        return {
            "ffn_output_sparsity": self.ffn_output_sparsity,
            "ffn_ops_reduction": self.ffn_ops_reduction,
            "attention_output_sparsity": self.attention_output_sparsity,
            "q_projection_skip_rate": self.q_projection_skip_rate,
            "kv_projection_skip_rate": self.kv_projection_skip_rate,
            "dense_iterations": self.dense_iterations,
            "sparse_iterations": self.sparse_iterations,
        }
