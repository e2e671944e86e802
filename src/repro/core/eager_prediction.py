"""Eager prediction: intra-iteration output sparsity (paper II-B, IV-D).

The predictor approximates the attention score in the log domain (cheap
shift-add hardware), then uses the prediction to decide what the exact
engine may skip:

- per predicted-score row, only the top-k elements are kept; the rest are
  treated as zero after softmax (their probability is negligible);
- if the gap between a row's largest and second-largest predicted score
  exceeds ``q_th``, the whole row collapses to a one-hot distribution: the
  exact score row, the softmax and the row's Q projection are all skipped;
- a source column whose predicted scores are dropped in *every* row needs
  no K or V projection at all.

The paper's TS-LOD refinement (two-step leading-one detection) is what
makes the prediction accurate enough for diffusion models (Fig. 15).

:class:`EagerPredictor` is the interpreted predictor for one generation
(the reference oracle); :func:`ep_attention_step` is its plan-compiled
step, and :mod:`repro.exec.batched` applies the same decisions over a
leading batch axis for the serving layer, with per-request quantization
scales and per-request statistics so each request computes exactly what
a sequential run would. Plan-static in a compiled step: the weight
operands, the ``(mode, bits)`` approximation table and the
cross-attention K/V. Per step: one quantize + table lookup per
activation, :func:`ep_decide`, and the exact work the decision keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExionConfig
from repro.core.logdomain import (
    LogOperand,
    log_domain_matmul,
    log_domain_matmul_prepared,
    prepare_log_operand,
)
from repro.core.sparsity import RunStats
from repro.models.activations import softmax
from repro.models.attention import AttentionTrace, MultiHeadAttention


@dataclass
class HeadDecision:
    """Skip decisions for one attention head."""

    keep: np.ndarray  # (tq, tk) bool: score elements to compute exactly
    one_hot_rows: np.ndarray  # (tq,) bool: rows collapsed by dominance
    one_hot_cols: np.ndarray  # (tq,) int: argmax column of one-hot rows

    @property
    def skipped_elements(self) -> int:
        return int(self.keep.size - self.keep.sum())


class EagerPredictor:
    """Builds attention executors implementing eager prediction."""

    def __init__(self, config: ExionConfig, stats: Optional[RunStats] = None,
                 collect_keepmasks: bool = False) -> None:
        self.config = config
        self.stats = stats if stats is not None else RunStats()
        self.collect_keepmasks = collect_keepmasks

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_scores(
        self, layer: MultiHeadAttention, x: np.ndarray, kv_input: np.ndarray
    ) -> np.ndarray:
        """Log-domain predicted attention scores, shape ``(h, tq, tk)``."""
        mode = self.config.lod_mode
        bits = self.config.prediction_bits
        q_pred = log_domain_matmul(x, layer.wq.weight, mode, bits)
        k_pred = log_domain_matmul(kv_input, layer.wk.weight, mode, bits)
        q_pred = q_pred + layer.wq.bias
        k_pred = k_pred + layer.wk.bias
        qh = layer.split_heads(q_pred)
        kh = layer.split_heads(k_pred)
        return np.matmul(qh, kh.transpose(0, 2, 1)) * layer.scale

    def decide(self, predicted: np.ndarray) -> list[HeadDecision]:
        """Per-head keep masks and one-hot rows from predicted scores."""
        decisions = []
        for head_scores in predicted:
            decisions.append(self._decide_head(head_scores))
        return decisions

    def _decide_head(self, scores: np.ndarray) -> HeadDecision:
        tq, tk = scores.shape
        keep_count = max(1, int(np.ceil(self.config.top_k_ratio * tk)))

        keep = np.zeros((tq, tk), dtype=bool)
        if keep_count >= tk:
            keep[:] = True
        else:
            # Indices of the top-k predicted scores per row.
            top_idx = np.argpartition(-scores, keep_count - 1, axis=1)[:, :keep_count]
            np.put_along_axis(keep, top_idx, True, axis=1)

        one_hot_cols = np.argmax(scores, axis=1)
        if tk >= 2:
            sorted_scores = np.sort(scores, axis=1)
            gap = sorted_scores[:, -1] - sorted_scores[:, -2]
            one_hot_rows = gap > self.config.q_threshold
        else:
            one_hot_rows = np.ones(tq, dtype=bool)
        # A one-hot row skips its entire exact-score computation.
        keep[one_hot_rows] = False
        return HeadDecision(keep=keep, one_hot_rows=one_hot_rows,
                            one_hot_cols=one_hot_cols)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def executor(self):
        """An ``AttentionExecutor`` running EP-guided sparse attention."""

        def run(layer: MultiHeadAttention, x: np.ndarray,
                context: Optional[np.ndarray]):
            return self._run(layer, x, context)

        return run

    def _run(self, layer: MultiHeadAttention, x: np.ndarray,
             context: Optional[np.ndarray]):
        kv_input = x if context is None else context
        tq = x.shape[0]
        tk = kv_input.shape[0]
        heads = layer.num_heads

        predicted = self.predict_scores(layer, x, kv_input)
        decisions = self.decide(predicted)

        # Projection skipping derived from the decisions (paper II-B):
        # rows one-hot in every head skip Q projection; columns dropped in
        # every row of every head skip K and V projection.
        q_row_needed = np.zeros(tq, dtype=bool)
        kv_col_needed = np.zeros(tk, dtype=bool)
        for dec in decisions:
            q_row_needed |= ~dec.one_hot_rows
            kv_col_needed |= dec.keep.any(axis=0)
            # One-hot rows still read V at their argmax column.
            kv_col_needed[np.unique(dec.one_hot_cols[dec.one_hot_rows])] = True

        q = layer.split_heads(layer.wq(x))
        k, v = layer.kv(kv_input)

        scores = np.full((heads, tq, tk), -np.inf)
        probs = np.zeros((heads, tq, tk))
        attended = np.zeros((heads, tq, layer.head_dim))
        skipped = 0
        for h, dec in enumerate(decisions):
            exact = (q[h] @ k[h].T) * layer.scale
            masked = np.where(dec.keep, exact, -np.inf)
            # Rows with nothing kept and no dominance fall back to the
            # predicted argmax like the one-hot rows (never happens with
            # top_k >= 1 but keeps the executor total).
            normal = ~dec.one_hot_rows & dec.keep.any(axis=1)
            probs[h, normal] = softmax(masked[normal], axis=-1)
            rows = np.flatnonzero(~normal)
            probs[h, rows, dec.one_hot_cols[rows]] = 1.0
            # One product over all rows: a collapsed row's probabilities
            # are exactly one-hot, so it reads back v at its argmax column.
            attended[h] = probs[h] @ v[h]
            scores[h] = masked
            skipped += dec.skipped_elements

        out = layer.wo(layer.merge_heads(attended))

        # ------------------------------------------------------------------
        # statistics
        # ------------------------------------------------------------------
        total_scores = heads * tq * tk
        head_dim = layer.head_dim
        self.stats.attention_scores.add(
            total_scores * head_dim, (total_scores - skipped) * head_dim
        )
        q_rows_skipped = int(tq - q_row_needed.sum())
        kv_cols_skipped = int(tk - kv_col_needed.sum())
        dim_in = layer.wq.in_features
        self.stats.q_projection.add(
            tq * dim_in * layer.dim, int(q_row_needed.sum()) * dim_in * layer.dim
        )
        self.stats.kv_projection.add(
            2 * tk * layer.wk.in_features * layer.dim,
            2 * int(kv_col_needed.sum()) * layer.wk.in_features * layer.dim,
        )
        sparsity = skipped / total_scores if total_scores else 0.0
        self.stats.attention_sparsities.append(sparsity)
        # Log-domain prediction overhead (counted against EXION in the HW
        # model): Q/K prediction plus predicted-score MMUL.
        self.stats.prediction_overhead_macs += (
            (tq + tk) * dim_in * layer.dim + total_scores * head_dim
        )

        keep_all = np.stack([d.keep for d in decisions])
        if self.collect_keepmasks:
            self.stats.attention_keepmasks.append(keep_all)

        trace = AttentionTrace(
            scores=scores,
            probs=probs,
            output_sparsity=sparsity,
            skipped_score_elements=skipped,
            total_score_elements=total_scores,
            q_rows_skipped=q_rows_skipped * heads,
            q_rows_total=tq * heads,
            kv_cols_skipped=kv_cols_skipped * heads,
            kv_cols_total=tk * heads,
        )
        return out, trace


# ----------------------------------------------------------------------
# compiled halves (repro.exec)
# ----------------------------------------------------------------------
@dataclass
class CompiledPrediction:
    """Plan-time half of eager prediction for one attention layer.

    The Q/K weight matrices are constant across every iteration, so their
    quantize + TS-LOD approximation (the dominant cost of
    :func:`log_domain_matmul`) is hoisted out of the step loop.
    """

    wq_operand: LogOperand
    wk_operand: LogOperand

    @classmethod
    def for_layer(
        cls, layer: MultiHeadAttention, mode: str, bits: int
    ) -> "CompiledPrediction":
        return cls(
            wq_operand=prepare_log_operand(layer.wq.weight, mode, bits),
            wk_operand=prepare_log_operand(layer.wk.weight, mode, bits),
        )


def ep_decide(
    predicted: np.ndarray, top_k_ratio: float, q_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`EagerPredictor._decide_head` over stacked heads.

    Top-k selection, dominance gap and argmax all act along the last axis
    only, so each head slice gets exactly the per-head decision. Returns
    ``(keep, one_hot_rows, one_hot_cols)`` shaped ``(heads, tq, tk)``,
    ``(heads, tq)``, ``(heads, tq)``.
    """
    tk = predicted.shape[-1]
    keep_count = max(1, int(np.ceil(top_k_ratio * tk)))

    if keep_count >= tk:
        keep = np.ones(predicted.shape, dtype=bool)
    else:
        keep = np.zeros(predicted.shape, dtype=bool)
        rows = predicted.size // tk
        top_idx = np.argpartition(
            -predicted, keep_count - 1, axis=-1
        ).reshape(rows, tk)[:, :keep_count]
        # Scatter through flat indices: row r of the stack starts at r * tk.
        keep.put(top_idx + np.arange(0, rows * tk, tk)[:, None], True)

    one_hot_cols = np.argmax(predicted, axis=-1)
    if tk >= 2:
        # Only the two largest scores matter, not their full order.
        top_two = np.partition(predicted, tk - 2, axis=-1)
        one_hot_rows = top_two[..., -1] - top_two[..., -2] > q_threshold
    else:
        one_hot_rows = np.ones(predicted.shape[:-1], dtype=bool)
    keep[one_hot_rows] = False
    return keep, one_hot_rows, one_hot_cols


def ep_attention_step(
    layer: MultiHeadAttention,
    x: np.ndarray,
    context: Optional[np.ndarray],
    pred: CompiledPrediction,
    config: ExionConfig,
    stats: RunStats,
    collect_keepmasks: bool = False,
    kv: Optional[tuple] = None,
) -> np.ndarray:
    """Step-time half of one EP attention layer, bit-identical to
    :meth:`EagerPredictor._run` minus the trace.

    Differences are purely plan-time hoists: the weight operands come
    prepared in ``pred``; for self-attention the activation is quantized
    once and shared between the Q and K predictions (both interpreted
    calls quantize the same ``x``, deterministically); for cross-attention
    the caller may pass ``kv = (kh_pred, k, v)`` computed once per
    generation since the context never changes between iterations. The
    score and value contractions are one stacked ``matmul`` over the
    heads, byte-equal to the oracle's per-head products
    (``tests/core/test_eager_prediction.py`` pins that equality).
    """
    kv_input = x if context is None else context
    tq = x.shape[0]
    tk = kv_input.shape[0]
    heads = layer.num_heads
    mode = config.lod_mode
    bits = config.prediction_bits

    x_operand = prepare_log_operand(x, mode, bits)
    q_pred = log_domain_matmul_prepared(x_operand, pred.wq_operand)
    q_pred += layer.wq.bias
    qh = layer.split_heads(q_pred)

    if kv is not None:
        kh, k, v = kv
    else:
        k_operand = (
            x_operand if context is None
            else prepare_log_operand(kv_input, mode, bits)
        )
        k_pred = log_domain_matmul_prepared(k_operand, pred.wk_operand)
        k_pred += layer.wk.bias
        kh = layer.split_heads(k_pred)
        k, v = layer.kv(kv_input)

    predicted = np.matmul(qh, kh.transpose(0, 2, 1))
    predicted *= layer.scale
    keep, one_hot_rows, one_hot_cols = ep_decide(
        predicted, config.top_k_ratio, config.q_threshold
    )

    q = layer.split_heads(layer.wq(x))

    exact = np.matmul(q, k.transpose(0, 2, 1))
    exact *= layer.scale

    # A collapsed row (one-hot, or the oracle's nothing-kept fallback)
    # attends its argmax column alone: a single kept score softmaxes to
    # exactly 1.0, so one softmax and one product serve every row.
    attend = keep.copy()
    hh, rr = np.nonzero(one_hot_rows | ~keep.any(axis=-1))
    attend[hh, rr, one_hot_cols[hh, rr]] = True
    probs = softmax(np.where(attend, exact, -np.inf), axis=-1)
    attended = np.matmul(probs, v)

    out = layer.wo(layer.merge_heads(attended))

    # Statistics: same arithmetic as EagerPredictor._run.
    skipped = keep.size - np.count_nonzero(keep)
    total_scores = heads * tq * tk
    head_dim = layer.head_dim
    dim_in = layer.wq.in_features
    stats.attention_scores.add(
        total_scores * head_dim, (total_scores - skipped) * head_dim
    )
    kv_col_needed = keep.any(axis=(0, 1))
    kv_col_needed[one_hot_cols[one_hot_rows]] = True
    stats.q_projection.add(
        tq * dim_in * layer.dim,
        np.count_nonzero(~one_hot_rows.all(axis=0)) * dim_in * layer.dim,
    )
    stats.kv_projection.add(
        2 * tk * layer.wk.in_features * layer.dim,
        2 * np.count_nonzero(kv_col_needed) * layer.wk.in_features * layer.dim,
    )
    sparsity = skipped / total_scores if total_scores else 0.0
    stats.attention_sparsities.append(sparsity)
    stats.prediction_overhead_macs += (
        (tq + tk) * dim_in * layer.dim + total_scores * head_dim
    )
    if collect_keepmasks:
        stats.attention_keepmasks.append(keep)
    return out


def ep_cross_kv(
    layer: MultiHeadAttention,
    context: np.ndarray,
    pred: CompiledPrediction,
    config: ExionConfig,
) -> tuple:
    """Per-generation cross-attention constants for :func:`ep_attention_step`.

    The conditioning context is fixed for a whole generation, so the
    predicted-K, exact-K and exact-V head stacks it induces are too.
    """
    c_operand = prepare_log_operand(
        context, config.lod_mode, config.prediction_bits
    )
    k_pred = log_domain_matmul_prepared(c_operand, pred.wk_operand)
    k_pred = k_pred + layer.wk.bias
    return (layer.split_heads(k_pred), *layer.kv(context))

