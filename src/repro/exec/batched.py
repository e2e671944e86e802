"""Batched compiled kernels: one gather/scatter, many requests.

The step-time kernels of :class:`repro.exec.continuous.ContinuousExecutor`
— the batch-axis twins of :func:`repro.core.ffn_reuse.ffn_dense_compile`
/ :func:`~repro.core.ffn_reuse.ffn_sparse_step` and
:func:`repro.core.eager_prediction.ep_attention_step`, with the same
plan-time hoists (cached log-domain weight operands, the shared
:func:`repro.core.logdomain.approximation_table`, per-phase FFN gather
sets, per-batch cross-attention constants). Quantization scales,
thresholds and statistics are per request, so every request's rows are
byte-identical to its own sequential interpreted run whatever the batch's
composition (``tests/exec/test_parity.py``, ``tests/serve/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExionConfig
from repro.core.eager_prediction import CompiledPrediction, ep_decide
from repro.core.logdomain import approximation_table, quantize_symmetric_batched
from repro.core.thresholds import ThresholdTable, quantile_thresholds
from repro.models.activations import softmax
from repro.models.attention import MultiHeadAttention
from repro.models.ffn import FeedForward


def _fake_quantize_batched(x: np.ndarray, bits: int) -> np.ndarray:
    """Per-request activation fake-quantization (INT datapath emulation)."""
    ints, scales = quantize_symmetric_batched(x, bits)
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    return ints.astype(np.float64) * scales[expand]


def _prepare_activation_batched(
    x: np.ndarray, mode: str, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-request quantize + LOD-approximate: the batch-axis twin of
    :func:`repro.core.logdomain.prepare_log_operand` for an activation
    operand (each ``x[b]`` gets its own scale)."""
    table = approximation_table(mode, bits)
    ints, scales = quantize_symmetric_batched(x, bits)
    ints += table.size // 2  # index i + qmax, as prepare_log_operand
    return table.take(ints), scales


def _predict_prepared(
    a_approx: np.ndarray, a_scales: np.ndarray, weight
) -> np.ndarray:
    """Batched log-domain matmul against a cached weight operand."""
    out = a_approx @ weight.approx
    out *= a_scales[:, None, None] * weight.scale
    return out


@dataclass
class _BatchedFFNPhaseState:
    """Compiled per-(phase, block) FFN artifacts for a whole micro-batch.

    The gather/scatter index sets live in the batch-wide flat index space
    of the ``(batch, tokens, hidden)`` mask, so one gather serves every
    request regardless of each request's own nnz.
    """

    hidden_dense: np.ndarray
    mask: np.ndarray
    gather_indices: np.ndarray
    partial_sums: np.ndarray
    nnz_per_request: np.ndarray
    value_indices: Optional[np.ndarray] = None
    gate_indices: Optional[np.ndarray] = None


def resolve_thresholds_batched(
    hidden: np.ndarray,
    block: int,
    dense_indices: np.ndarray,
    config: ExionConfig,
    threshold_table: Optional[ThresholdTable],
) -> np.ndarray:
    """Per-request FFN-Reuse thresholds, one dense-phase index per request.

    A drained micro-batch has every request in the same phase; a
    continuous batch (:mod:`repro.exec.continuous`) mixes requests whose
    dense compiles fall on different calibrated phases — so the table
    lookup is per request. Each request's resolution is identical to what
    :meth:`repro.core.ffn_reuse.FFNReuse._resolve_threshold` computes for
    it alone.
    """
    batch = hidden.shape[0]
    if config.ffn_threshold is not None:
        return np.full(batch, config.ffn_threshold)
    thresholds = np.empty(batch)
    pending = []
    for b in range(batch):
        stored = (
            threshold_table.get(int(dense_indices[b]), block)
            if threshold_table is not None
            else None
        )
        if stored is None:
            pending.append(b)
        else:
            thresholds[b] = stored
    if pending:
        rows = hidden.reshape(batch, -1)
        if len(pending) < batch:
            rows = rows[pending]
        thresholds[pending] = quantile_thresholds(
            rows, config.ffn_target_sparsity
        )
    return thresholds


def ffn_dense_compile_batched(
    layer: FeedForward,
    x: np.ndarray,
    block: int,
    dense_indices: np.ndarray,
    config: ExionConfig,
    threshold_table: Optional[ThresholdTable],
) -> tuple[np.ndarray, _BatchedFFNPhaseState]:
    """Batched :func:`repro.core.ffn_reuse.ffn_dense_compile` with a
    per-request dense-phase index (see :func:`resolve_thresholds_batched`)."""
    batch = x.shape[0]
    hidden = layer.nonlinear(layer.linear1(x))
    out = layer.linear2(hidden)

    thresholds = resolve_thresholds_batched(
        hidden, block, dense_indices, config, threshold_table
    )
    mask = np.abs(hidden) > thresholds[:, None, None]
    reused = hidden * ~mask
    partial = reused @ layer.linear2.weight
    partial = partial + layer.linear2.bias

    state = _BatchedFFNPhaseState(
        hidden_dense=hidden,
        mask=mask,
        gather_indices=np.flatnonzero(mask.ravel()),
        partial_sums=partial,
        nnz_per_request=mask.reshape(batch, -1).sum(axis=1),
    )
    _attach_geglu_indices(layer, state)
    return out, state


def _attach_geglu_indices(
    layer: FeedForward, state: _BatchedFFNPhaseState
) -> None:
    """Derive the GEGLU value/gate gather sets from the flat mask gather.

    Shared by the dense compile and the continuous executor's index-set
    edits: whenever ``gather_indices`` is rebuilt (new mask, or same masks
    restacked under new batch membership), the paired pre-activation
    indices follow from pure index arithmetic.
    """
    if layer.activation != "geglu":
        state.value_indices = state.gate_indices = None
        return
    mask = state.mask
    gather = state.gather_indices
    per_request = mask.shape[1] * mask.shape[2]
    b_idx = gather // per_request
    rem = gather % per_request
    rows = rem // layer.hidden_dim
    cols = rem % layer.hidden_dim
    width = layer.linear1.out_features
    state.value_indices = (b_idx * mask.shape[1] + rows) * width + cols
    state.gate_indices = state.value_indices + layer.hidden_dim


def _ep_cross_kv_batched(
    layer: MultiHeadAttention,
    context: np.ndarray,
    pred: CompiledPrediction,
    config: ExionConfig,
) -> tuple:
    """Per-batch cross-attention constants for the batched EP step."""
    c_approx, c_scales = _prepare_activation_batched(
        context, config.lod_mode, config.prediction_bits
    )
    k_pred = _predict_prepared(c_approx, c_scales, pred.wk_operand)
    k_pred = k_pred + layer.wk.bias
    return (layer.split_heads(k_pred), *layer.kv(context))


def _ep_attention_step_batched(
    layer: MultiHeadAttention,
    x: np.ndarray,
    context: Optional[np.ndarray],
    pred: CompiledPrediction,
    config: ExionConfig,
    batch_stats: list,
    collect_keepmasks: bool = False,
    kv: Optional[tuple] = None,
) -> np.ndarray:
    """Batched EP attention step: per request, bit-identical to
    :func:`repro.core.eager_prediction.ep_attention_step`."""
    kv_input = x if context is None else context
    batch, tq, _ = x.shape
    tk = kv_input.shape[1]
    heads = layer.num_heads
    mode, bits = config.lod_mode, config.prediction_bits

    a_approx, a_scales = _prepare_activation_batched(x, mode, bits)
    q_pred = _predict_prepared(a_approx, a_scales, pred.wq_operand)
    q_pred += layer.wq.bias
    qh = layer.split_heads(q_pred)

    if kv is not None:
        kh, k, v = kv
    else:
        # Self-attention: both predictions quantize the same x, so the
        # prepared operand is shared (the interpreted path re-derives the
        # identical quantization).
        k_pred = _predict_prepared(a_approx, a_scales, pred.wk_operand)
        k_pred += layer.wk.bias
        kh = layer.split_heads(k_pred)
        k, v = layer.kv(kv_input)

    predicted = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    predicted *= layer.scale
    keep, one_hot_rows, one_hot_cols = ep_decide(
        predicted, config.top_k_ratio, config.q_threshold
    )

    q = layer.split_heads(layer.wq(x))
    exact = np.matmul(q, k.transpose(0, 1, 3, 2))
    exact *= layer.scale

    # As ep_attention_step: a collapsed row attends its argmax column
    # alone, so one softmax and one product serve every row.
    attend = keep.copy()
    bb, hh, rr = np.nonzero(one_hot_rows | ~keep.any(axis=-1))
    attend[bb, hh, rr, one_hot_cols[bb, hh, rr]] = True
    probs = softmax(np.where(attend, exact, -np.inf), axis=-1)
    attended = np.matmul(probs, v)

    out = layer.wo(layer.merge_heads(attended))

    # Statistics, per request: same arithmetic as ep_attention_step.
    # Projection skipping (paper II-B): a row one-hot in every head skips
    # Q projection; a column kept nowhere (and never the argmax of a
    # one-hot row) skips K and V projection.
    total_scores = heads * tq * tk
    head_dim = layer.head_dim
    dim_in = layer.wq.in_features
    kept = keep.reshape(batch, -1).sum(axis=1).tolist()
    q_rows_needed = (~one_hot_rows.all(axis=1)).sum(axis=1).tolist()
    kv_needed = keep.any(axis=(1, 2))
    kv_needed[np.nonzero(one_hot_rows)[0], one_hot_cols[one_hot_rows]] = True
    kv_cols_needed = kv_needed.sum(axis=1).tolist()

    for b, stats in enumerate(batch_stats):
        skipped = total_scores - kept[b]
        stats.attention_scores.add(
            total_scores * head_dim, (total_scores - skipped) * head_dim
        )
        stats.q_projection.add(
            tq * dim_in * layer.dim,
            q_rows_needed[b] * dim_in * layer.dim,
        )
        stats.kv_projection.add(
            2 * tk * layer.wk.in_features * layer.dim,
            2 * kv_cols_needed[b] * layer.wk.in_features * layer.dim,
        )
        sparsity = skipped / total_scores if total_scores else 0.0
        stats.attention_sparsities.append(sparsity)
        stats.prediction_overhead_macs += (
            (tq + tk) * dim_in * layer.dim + total_scores * head_dim
        )
        if collect_keepmasks:
            # Copy: a view would pin the whole batch-wide keep array
            # through any single request's retained stats.
            stats.attention_keepmasks.append(keep[b].copy())
    return out
