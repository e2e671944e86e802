"""FFN-Reuse: inter-iteration output sparsity (paper Section III-A, Fig. 6).

The diffusion process removes noise progressively, so the FFN non-linearity
output at one iteration closely matches the next (Fig. 7). FFN-Reuse runs
one exact *dense iteration*, thresholds the non-linearity output into a
bitmask, and for the following ``N`` *sparse iterations*:

- 1st FFN layer: recomputes only above-threshold (bit ``1``) elements and
  reuses the dense iteration's values for the rest — the skipped elements
  *are* the inter-iteration output sparsity;
- 2nd FFN layer: keeps a partial sum of the reused elements' contribution
  (computed once at the dense iteration) and accumulates only the
  recomputed elements' products on top.

:class:`FFNReuse` is the interpreted manager for one generation (the
accuracy-evaluation path and the reference oracle);
:func:`ffn_dense_compile` / :func:`ffn_sparse_step` are its plan-compiled
halves. They take a leading batch axis with per-request thresholds and
statistics, and both engines of :mod:`repro.exec` call them (the
single-seed one at a batch of one). Per request, every path computes
exactly what the interpreted manager would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.sparsity import RunStats
from repro.core.thresholds import (
    ThresholdTable,
    quantile_threshold,
    quantile_thresholds,
)
from repro.models.activations import gelu as gelu_kernel
from repro.models.ffn import FeedForward, FFNTrace


@dataclass
class _BlockState:
    """Dense-iteration artifacts carried into the sparse iterations."""

    hidden_dense: np.ndarray  # non-linearity output at the dense iteration
    bitmask: Bitmask  # 1 = recompute, 0 = reuse
    partial_sums: np.ndarray  # reused elements' 2nd-layer contribution + bias
    threshold: float


class FFNReuse:
    """Stateful FFN-Reuse manager for one generation run.

    One instance spans all transformer blocks of the network; call
    :meth:`begin_iteration` at each denoising step and use
    :meth:`executor_for_block` as the FFN executor.
    """

    def __init__(
        self,
        config: ExionConfig,
        num_blocks: int,
        stats: Optional[RunStats] = None,
        threshold_table: Optional[ThresholdTable] = None,
        collect_bitmasks: bool = False,
    ) -> None:
        self.config = config
        self.num_blocks = num_blocks
        self.stats = stats if stats is not None else RunStats()
        self.threshold_table = threshold_table
        self.collect_bitmasks = collect_bitmasks
        self._states: list[Optional[_BlockState]] = [None] * num_blocks
        self._iteration = -1

    # ------------------------------------------------------------------
    # phase control
    # ------------------------------------------------------------------
    @property
    def dense_period(self) -> int:
        return self.config.sparse_iters_n + 1

    @property
    def is_dense_iteration(self) -> bool:
        """Dense iterations recur every ``N + 1`` steps, starting at step 0."""
        return self._iteration % self.dense_period == 0

    @property
    def dense_index(self) -> int:
        return self._iteration // self.dense_period

    def begin_iteration(self, iteration: int) -> None:
        """Mark the start of denoising iteration ``iteration``."""
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        self._iteration = iteration
        if self.is_dense_iteration:
            self.stats.dense_iterations += 1
        else:
            self.stats.sparse_iterations += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def executor_for_block(self, block: int):
        """FFN executor bound to transformer block ``block``."""
        if not 0 <= block < self.num_blocks:
            raise IndexError(f"block {block} out of range [0, {self.num_blocks})")

        def run(layer: FeedForward, x: np.ndarray):
            if self._iteration < 0:
                raise RuntimeError("begin_iteration() was never called")
            if self.is_dense_iteration or self._states[block] is None:
                return self._dense_pass(layer, x, block)
            return self._sparse_pass(layer, x, block)

        return run

    def _resolve_threshold(self, hidden: np.ndarray, block: int) -> float:
        if self.threshold_table is not None:
            stored = self.threshold_table.get(self.dense_index, block)
            if stored is not None:
                return stored
        return quantile_threshold(hidden, self.config.ffn_target_sparsity)

    def _dense_pass(self, layer: FeedForward, x: np.ndarray, block: int):
        tokens = x.shape[0]
        hidden = layer.nonlinear(layer.linear1(x))
        out = layer.linear2(hidden)

        threshold = self._resolve_threshold(hidden, block)
        bitmask = Bitmask.from_threshold(hidden, threshold)
        reused = hidden * ~bitmask.mask
        partial = reused @ layer.linear2.weight
        partial = partial + layer.linear2.bias
        self._states[block] = _BlockState(
            hidden_dense=hidden,
            bitmask=bitmask,
            partial_sums=partial,
            threshold=threshold,
        )

        full_l1 = layer.linear1.macs(tokens)
        full_l2 = layer.linear2.macs(tokens)
        self.stats.ffn_layer1.add(full_l1, full_l1)
        self.stats.ffn_layer2.add(full_l2, full_l2)
        if self.collect_bitmasks:
            self.stats.ffn_bitmasks.append(bitmask)

        trace = FFNTrace(hidden=hidden, total_hidden_elements=int(hidden.size))
        return out, trace

    def _sparse_pass(self, layer: FeedForward, x: np.ndarray, block: int):
        state = self._states[block]
        assert state is not None
        tokens = x.shape[0]
        mask = state.bitmask.mask

        # 1st FFN layer: only bit-1 elements are recomputed; the numpy
        # computation is dense but the semantics (and op accounting) follow
        # the element-skipping hardware exactly.
        hidden_recomputed = layer.nonlinear(layer.linear1(x))
        hidden = np.where(mask, hidden_recomputed, state.hidden_dense)

        # 2nd FFN layer: accumulate recomputed elements onto the dense
        # iteration's partial sums (bias already included there).
        updates = (hidden * mask) @ layer.linear2.weight
        out = state.partial_sums + updates

        nnz = state.bitmask.nnz
        sparsity = state.bitmask.sparsity
        # Per recomputed hidden element the 1st layer runs a length-`dim`
        # dot product (x2 for GEGLU's value+gate pair).
        l1_cols_per_hidden = layer.linear1.out_features // layer.hidden_dim
        computed_l1 = nnz * layer.dim * l1_cols_per_hidden
        full_l1 = layer.linear1.macs(tokens)
        # 2nd layer: each recomputed element contributes to `dim` outputs.
        computed_l2 = nnz * layer.dim
        full_l2 = layer.linear2.macs(tokens)

        self.stats.ffn_layer1.add(full_l1, computed_l1)
        self.stats.ffn_layer2.add(full_l2, computed_l2)
        self.stats.ffn_sparsities.append(sparsity)

        trace = FFNTrace(
            hidden=hidden,
            output_sparsity=sparsity,
            skipped_hidden_elements=int(hidden.size) - nnz,
            total_hidden_elements=int(hidden.size),
            reused_from_dense=True,
        )
        return out, trace

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def state_for_block(self, block: int) -> Optional[_BlockState]:
        """Dense-iteration state of a block (None before the first dense)."""
        return self._states[block]


@dataclass
class FFNPhaseState:
    """Compiled per-(phase, block) FFN-Reuse artifacts for a batch of
    requests (one request is a batch of one).

    Produced once at each dense iteration by :func:`ffn_dense_compile` and
    replayed by :func:`ffn_sparse_step` for the following ``N`` sparse
    iterations. Relative to the interpreted :class:`_BlockState`, the
    ``(batch, tokens, hidden)`` bitmask is converted to flat gather indices
    in the batch-wide index space, so one gather serves every request
    whatever its own nnz and the sparse step does no per-step mask
    scanning; for GEGLU FFNs the value/gate element positions of the first
    linear's output are precomputed too (:func:`attach_geglu_indices`).
    """

    hidden_dense: np.ndarray  # non-linearity output at the dense iteration
    mask: np.ndarray  # bool (batch, tokens, hidden): 1 = recompute
    gather_indices: np.ndarray  # flat row-major indices of the 1-bits
    partial_sums: np.ndarray  # reused elements' 2nd-layer contribution + bias
    nnz_per_request: np.ndarray
    value_indices: Optional[np.ndarray] = None  # GEGLU: value half positions
    gate_indices: Optional[np.ndarray] = None  # GEGLU: gate half positions


def resolve_thresholds(
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
    :meth:`FFNReuse._resolve_threshold` computes for it alone.
    """
    batch = hidden.shape[0]
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


def ffn_dense_compile(
    layer: FeedForward,
    x: np.ndarray,
    block: int,
    dense_indices: np.ndarray,
    config: ExionConfig,
    threshold_table: Optional[ThresholdTable],
) -> tuple[np.ndarray, FFNPhaseState]:
    """Dense-iteration FFN plus phase-state compilation for one block.

    ``x`` is ``(batch, tokens, dim)`` and ``dense_indices`` holds each
    request's dense-phase index (see :func:`resolve_thresholds`). Per
    request the arithmetic is element-for-element the interpreted
    :meth:`FFNReuse._dense_pass` (the differential-parity suite holds the
    two byte-identical); on top of it the bitmask→gather conversion and
    GEGLU index maps are materialized once for the whole sparse phase.
    """
    batch = x.shape[0]
    hidden = layer.nonlinear(layer.linear1(x))
    out = layer.linear2(hidden)

    thresholds = resolve_thresholds(
        hidden, block, dense_indices, config, threshold_table
    )
    mask = np.abs(hidden) > thresholds[:, None, None]
    reused = hidden * ~mask
    partial = reused @ layer.linear2.weight
    partial = partial + layer.linear2.bias

    state = FFNPhaseState(
        hidden_dense=hidden,
        mask=mask,
        gather_indices=np.flatnonzero(mask.ravel()),
        partial_sums=partial,
        nnz_per_request=mask.reshape(batch, -1).sum(axis=1),
    )
    attach_geglu_indices(layer, state)
    return out, state


def attach_geglu_indices(layer: FeedForward, state: FFNPhaseState) -> None:
    """Derive the GEGLU value/gate gather sets from the flat mask gather.

    Shared by the dense compile and the continuous executor's index-set
    edits: whenever ``gather_indices`` is rebuilt (new mask, or same masks
    restacked under new batch membership), the paired pre-activation
    indices follow from pure index arithmetic (``linear1`` emits
    ``[value | gate]`` halves of width ``hidden_dim``).
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


def ffn_sparse_step(
    layer: FeedForward, x: np.ndarray, state: FFNPhaseState
) -> np.ndarray:
    """Sparse-iteration FFN through the compiled phase state.

    Pure vectorized gather/scatter: the non-linearity runs only on the
    gathered recompute set (elementwise, so each element equals the
    interpreted full-matrix result bit for bit), the scatter overlays a
    copy of the dense iteration's hidden state, and the 2nd-layer update
    accumulates onto the precomputed partial sums. ``x`` is
    ``(batch, tokens, dim)``, matching ``state``.
    """
    pre = layer.linear1(x)
    flat = pre.ravel()
    if layer.activation == "geglu":
        recomputed = flat[state.value_indices] * gelu_kernel(
            flat[state.gate_indices]
        )
    else:
        recomputed = gelu_kernel(flat[state.gather_indices])
    hidden = state.hidden_dense.copy()
    hidden.ravel()[state.gather_indices] = recomputed
    updates = np.matmul(hidden * state.mask, layer.linear2.weight)
    return state.partial_sums + updates


def schedule_phases(total_iterations: int, sparse_n: int) -> list[bool]:
    """Dense/sparse phase per iteration: ``True`` marks a dense iteration.

    The paper's schedule: one dense iteration followed by ``N`` sparse
    iterations, repeated across the whole diffusion process.
    """
    if total_iterations < 0:
        raise ValueError("total_iterations must be >= 0")
    if sparse_n < 0:
        raise ValueError("sparse_n must be >= 0")
    period = sparse_n + 1
    return [i % period == 0 for i in range(total_iterations)]
