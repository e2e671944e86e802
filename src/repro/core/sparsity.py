"""Sparsity and operation-count statistics for an EXION run.

These aggregates drive both the accuracy tables and the hardware
performance model: the simulator consumes the measured output-sparsity
rates to size its tile workload. One :class:`RunStats` describes one
generation; servers hand each request its own, and nothing sums them.
:func:`add_attention_step` and :func:`add_ffn_step` alone write one: every
engine and the oracle hand them a step's per-request counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitmask import Bitmask


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

    # ConMerge inputs: the run's masks, kept only with ``collect_masks``.
    collect_masks: bool = False
    ffn_bitmasks: list = field(default_factory=list)
    attention_keepmasks: list = field(default_factory=list)

    @property
    def ffn_output_sparsity(self) -> float:
        """Mean 1st-FFN-layer output sparsity across sparse iterations."""
        values = self.ffn_sparsities
        return sum(values) / len(values) if values else 0.0

    @property
    def attention_output_sparsity(self) -> float:
        """Mean attention-score output sparsity across layer calls."""
        values = self.attention_sparsities
        return sum(values) / len(values) if values else 0.0

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


def add_attention_step(batch_stats, layer, tq: int, tk: int, kept, q_rows, kv_cols, keep) -> None:
    """One EP attention step's statistics, one entry per request (paper
    II-B projection skipping): ``kept[b]`` scores computed exactly, Q
    projections of ``q_rows[b]`` rows and K/V ones of ``kv_cols[b]``
    columns. A record that collects masks keeps a copy of ``keep[b]``
    (a view would pin the batch-wide array); ``keep=None`` is a one-key
    step, which keeps nothing."""
    total = layer.num_heads * tq * tk
    head_dim = layer.head_dim
    q_macs = layer.wq.in_features * layer.dim
    kv_macs = 2 * layer.wk.in_features * layer.dim
    for b, stats in enumerate(batch_stats):
        computed = int(kept[b])
        stats.attention_scores.add(total * head_dim, computed * head_dim)
        stats.q_projection.add(tq * q_macs, int(q_rows[b]) * q_macs)
        stats.kv_projection.add(tk * kv_macs, int(kv_cols[b]) * kv_macs)
        stats.attention_sparsities.append((total - computed) / total)
        if stats.collect_masks:
            mask = np.zeros((layer.num_heads, tq, tk), bool) if keep is None else keep[b].copy()
            stats.attention_keepmasks.append(mask)


def add_ffn_step(batch_stats, layer, tokens: int, nnz=None, masks=None) -> None:
    """One FFN-Reuse step's statistics, one entry per request.
    ``nnz=None`` is a dense step: every MAC runs, and a record that
    collects masks keeps a :class:`Bitmask` copy of ``masks[b]``. A
    sparse step recomputes ``nnz[b]`` hidden elements, each a
    length-``dim`` dot product in the 1st layer (two for GEGLU's value
    and gate) feeding ``dim`` outputs of the 2nd."""
    full_l1 = layer.linear1.macs(tokens)
    full_l2 = layer.linear2.macs(tokens)
    l1_macs = layer.dim * (layer.linear1.out_features // layer.hidden_dim)
    elements = tokens * layer.hidden_dim
    for b, stats in enumerate(batch_stats):
        if nnz is None:
            stats.ffn_layer1.add(full_l1, full_l1)
            stats.ffn_layer2.add(full_l2, full_l2)
            if stats.collect_masks:
                stats.ffn_bitmasks.append(Bitmask(masks[b]))
            continue
        count = int(nnz[b])
        stats.ffn_layer1.add(full_l1, count * l1_macs)
        stats.ffn_layer2.add(full_l2, count * layer.dim)
        stats.ffn_sparsities.append(1.0 - count / elements)
