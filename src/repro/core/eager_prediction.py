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
(the reference oracle); its executor returns the layer output alone and
writes what it skipped into its :class:`~repro.core.sparsity.RunStats`.
The plan-compiled step is one function for every batch size:
:func:`ep_attention_step_batched` applies the oracle's decisions over a
leading batch axis with per-request quantization scales and statistics,
so each request computes exactly what a sequential run would, a single
seed being a batch of one. :func:`ep_cross_kv` builds its
cross-attention constants. Plan-static in a compiled step: the weight
operands, the ``(mode, bits)`` approximation table and the
cross-attention K/V. Per step: one quantize + table lookup per
activation, then :func:`ep_decide` and one masked softmax, the oracle's
bytes from fewer numpy calls. When every score row of a step attends a
single column (a collapsed row, or ``keep_count == 1``), that column's
probability is exactly 1.0, so the step skips the exact Q and K
projections, the scores and the softmax outright: exact self-attention
K is projected only when some row attends two or more columns. A step
with one key (a one-token conditioning context, such as a class label)
returns before the prediction too: that key is every row's argmax, so
there is nothing to predict or decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExionConfig
from repro.core.logdomain import (
    LogOperand,
    approximation_table,
    log_domain_matmul,
    prepare_log_operand,
    quantize_symmetric_batched,
)
from repro.core.sparsity import RunStats, add_attention_step
from repro.models.activations import softmax
from repro.models.attention import MultiHeadAttention


@dataclass
class HeadDecision:
    """Skip decisions for one attention head."""

    keep: np.ndarray  # (tq, tk) bool: score elements to compute exactly
    one_hot_rows: np.ndarray  # (tq,) bool: rows collapsed by dominance
    one_hot_cols: np.ndarray  # (tq,) int: argmax column of one-hot rows


class EagerPredictor:
    """Builds attention executors implementing eager prediction."""

    def __init__(self, config: ExionConfig, stats: Optional[RunStats] = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else RunStats()

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
        return self._run

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

        probs = np.zeros((heads, tq, tk))
        attended = np.zeros((heads, tq, layer.head_dim))
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

        out = layer.wo(layer.merge_heads(attended))
        keep = np.stack([dec.keep for dec in decisions])
        add_attention_step([self.stats], layer, tq, tk, [keep.sum()],
                           [q_row_needed.sum()], [kv_col_needed.sum()], [keep])
        return out


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
    ``(keep, one_hot_rows, one_hot_cols)`` shaped ``(..., tq, tk)``,
    ``(..., tq)``, ``(..., tq)``, for ``tk >= 2`` (a one-key step never
    predicts: :func:`ep_attention_step_batched`). One sort per row gives
    the dominance gap and the k-th largest score; where the (k+1)-th is
    smaller the top-k set is unique, ``row >= kth``. Only rows tied there
    run the oracle's ``argpartition``, which reads each row alone, so its
    tie order holds.
    """
    shape = predicted.shape
    tk = shape[-1]
    keep_count = max(1, int(np.ceil(top_k_ratio * tk)))
    one_hot_cols = predicted.argmax(axis=-1)
    rows = predicted.reshape(-1, tk)
    ordered = np.sort(rows, axis=-1)
    one_hot_rows = ordered[:, -1] - ordered[:, -2] > q_threshold
    if keep_count >= tk:
        keep = np.ones(rows.shape, dtype=bool)
    else:
        kth = ordered[:, tk - keep_count]
        keep = rows >= kth[:, None]
        tied = (ordered[:, tk - keep_count - 1] == kth).nonzero()[0]
        if tied.size:
            # A tied row's ``>= kth`` holds every top-k set; drop what the
            # oracle's introselect placed past the k-th position.
            ties = rows[tied]
            order = np.argpartition(
                np.negative(ties, out=ties), keep_count - 1, axis=-1
            )
            keep[tied[:, None], order[:, keep_count:]] = False
    keep[one_hot_rows] = False
    return keep.reshape(shape), one_hot_rows.reshape(shape[:-1]), one_hot_cols


def _masked_softmax(scores: np.ndarray, attend: np.ndarray) -> np.ndarray:
    """``softmax(np.where(attend, scores, -np.inf), axis=-1)`` byte for
    byte, where every row attends some score. The row max is a halving
    tree of ``np.maximum`` (exact in any order); a dropped score is filled
    with it, so ``exp`` sees no ``-inf`` (its slow path) and nothing above
    0, and the mask turns its 1.0 into the +0.0 ``exp(-inf)`` gives."""
    peak = np.where(attend, scores, -np.inf)
    width = peak.shape[-1]
    while width > 1:
        half = width // 2
        folded = np.maximum(peak[..., :half], peak[..., half:2 * half])
        if width % 2:
            np.maximum(folded[..., :1], peak[..., -1:], out=folded[..., :1])
        peak, width = folded, half
    probs = np.where(attend, scores, peak)
    probs -= peak
    np.exp(probs, out=probs)
    probs *= attend
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs


def _prepare_per_request(
    x: np.ndarray, mode: str, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-request quantize + LOD-approximate: :func:`prepare_log_operand`
    over a leading batch axis (each ``x[b]`` gets its own scale)."""
    table = approximation_table(mode, bits)
    ints, scales = quantize_symmetric_batched(x, bits)
    ints += table.size // 2  # index i + qmax, as prepare_log_operand
    return table.take(ints), scales


def _predict_per_request(
    a_approx: np.ndarray, a_scales: np.ndarray, weight: LogOperand
) -> np.ndarray:
    """:func:`log_domain_matmul_prepared` of a per-request prepared
    activation against a cached weight operand."""
    out = a_approx @ weight.approx
    out *= a_scales[:, None, None] * weight.scale
    return out


def ep_cross_kv(
    layer: MultiHeadAttention,
    context: np.ndarray,
    pred: CompiledPrediction,
    config: ExionConfig,
) -> tuple:
    """Cross-attention constants ``(kh_pred, k, v)`` of a batch of contexts.

    The conditioning context is fixed for a whole generation, so the
    predicted-K, exact-K and exact-V head stacks it induces are too.
    ``context`` is ``(batch, tokens, dim)``. A one-token context builds V
    alone: :func:`ep_attention_step_batched` returns at ``tk == 1``
    before reading either K.
    """
    if context.shape[1] == 1:
        return None, None, layer.split_heads(layer.wv(context))
    operand = _prepare_per_request(context, config.lod_mode, config.prediction_bits)
    k_pred = _predict_per_request(*operand, pred.wk_operand)
    return (layer.split_heads(k_pred), *layer.kv(context))


def ep_attention_step_batched(
    layer: MultiHeadAttention,
    x: np.ndarray,
    context: Optional[np.ndarray],
    pred: CompiledPrediction,
    config: ExionConfig,
    batch_stats: list,
    kv: Optional[tuple] = None,
) -> np.ndarray:
    """Step-time half of one EP attention layer over a leading batch axis:
    per request, bit-identical to :meth:`EagerPredictor._run` in output
    and statistics (``batch_stats[b]`` is request ``b``'s
    :class:`~repro.core.sparsity.RunStats`), with per-request
    quantization scales.

    Differences are purely plan-time hoists: the weight operands come
    prepared in ``pred``; for self-attention the activation is quantized
    once and shared between the Q and K predictions (both interpreted
    calls quantize the same ``x``, deterministically); for cross-attention
    the caller may pass ``kv = (kh_pred, k, v)`` from :func:`ep_cross_kv`,
    computed once per generation since the context never changes between
    iterations. The score and value contractions are stacked ``matmul``
    calls over the batch and the heads, byte-equal to the oracle's
    per-head products (``tests/core/test_eager_prediction.py`` pins that
    equality).

    A step with one key returns before the prediction: the lone key is
    every row's argmax, so the oracle keeps nothing, collapses every row
    onto it and reads its value back with probability exactly 1.0, here
    through the same ``probs @ v`` product. Otherwise a collapsed row
    attends its argmax column alone: one kept score softmaxes to exactly
    1.0, so one softmax and one product serve every row. Every row
    attends at least one column, so when the step attends as many columns
    as it has rows, each row attends exactly one and its probabilities
    are ``attend`` itself; the exact Q and K projections, the scores and
    the softmax are then skipped, and an exact K not passed in ``kv`` is
    never projected.
    """
    kv_input = x if context is None else context
    batch, tq, _ = x.shape
    tk = kv_input.shape[1]
    mode, bits = config.lod_mode, config.prediction_bits

    if kv is not None:
        kh, k, v = kv
    else:
        kh, k, v = None, None, layer.split_heads(layer.wv(kv_input))
    if tk == 1:
        # The one-key decision's statistics: 0 scores kept, 0 Q rows and
        # 1 K/V column.
        add_attention_step(batch_stats, layer, tq, 1, [0] * batch, [0] * batch, [1] * batch,
                           None)
        return layer.wo(layer.merge_heads(np.matmul(np.ones((*v.shape[:-2], tq, 1)), v)))

    operand = _prepare_per_request(x, mode, bits)
    qh = layer.split_heads(_predict_per_request(*operand, pred.wq_operand))
    if kh is None:
        # Self-attention shares x's operand (the interpreted path
        # re-derives the identical quantization); a cross step without
        # cached K/V prepares its context's own, as the oracle does.
        if context is not None:
            operand = _prepare_per_request(context, mode, bits)
        kh = layer.split_heads(_predict_per_request(*operand, pred.wk_operand))
    predicted = np.matmul(qh, kh.swapaxes(-1, -2))
    predicted *= layer.scale
    keep, one_hot_rows, one_hot_cols = ep_decide(
        predicted, config.top_k_ratio, config.q_threshold
    )

    attend = one_hot_cols[..., None] == np.arange(tk)
    attend &= one_hot_rows[..., None]
    attend |= keep
    if np.count_nonzero(attend) == one_hot_rows.size:
        probs = attend.astype(np.float64)
    else:
        if k is None:
            k = layer.split_heads(layer.wk(kv_input))
        q = layer.split_heads(layer.wq(x))
        exact = np.matmul(q, k.swapaxes(-1, -2))
        exact *= layer.scale
        probs = _masked_softmax(exact, attend)
    out = layer.wo(layer.merge_heads(np.matmul(probs, v)))

    # Per request: a column is needed where some row attends it (kept, or
    # the argmax of a one-hot row); a row where some head is not one-hot
    # needs Q.
    add_attention_step(batch_stats, layer, tq, tk, keep.reshape(batch, -1).sum(axis=1).tolist(),
                       (~one_hot_rows.all(axis=1)).sum(axis=1).tolist(),
                       attend.any(axis=(1, 2)).sum(axis=1).tolist(), keep)
    return out


def ep_attention_step(layer: MultiHeadAttention, x: np.ndarray,
                      context: Optional[np.ndarray], pred: CompiledPrediction,
                      config: ExionConfig, stats: RunStats) -> np.ndarray:
    """:func:`ep_attention_step_batched` on one request's 2-D operands
    (what perfbench's ``core.ep_attention_step_us`` probe times)."""
    return ep_attention_step_batched(layer, x[None], None if context is None else context[None],
                                     pred, config, [stats])[0]
