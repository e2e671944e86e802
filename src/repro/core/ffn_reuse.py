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
halves, and :mod:`repro.exec.batched` carries them along a leading batch
axis for the serving layer. Per request, every path computes exactly what
the interpreted manager would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable, quantile_threshold
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
        if self.config.ffn_threshold is not None:
            return self.config.ffn_threshold
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
    """Compiled per-(phase, block) FFN-Reuse artifacts.

    Produced once at each dense iteration by :func:`ffn_dense_compile` and
    replayed by :func:`ffn_sparse_step` for the following ``N`` sparse
    iterations. Relative to the interpreted :class:`_BlockState`, the
    bitmask is additionally converted to flat gather indices
    (``np.flatnonzero(mask.ravel())``) so the sparse step is pure
    gather/scatter with no per-step mask scanning; for GEGLU FFNs the
    value/gate element positions of the first linear's output are
    precomputed too.
    """

    hidden_dense: np.ndarray  # non-linearity output at the dense iteration
    mask: np.ndarray  # bool (tokens, hidden): 1 = recompute
    gather_indices: np.ndarray  # flat row-major indices of the 1-bits
    partial_sums: np.ndarray  # reused elements' 2nd-layer contribution + bias
    threshold: float
    nnz: int
    sparsity: float
    value_indices: Optional[np.ndarray] = None  # GEGLU: value half positions
    gate_indices: Optional[np.ndarray] = None  # GEGLU: gate half positions

    @property
    def bitmask(self) -> Bitmask:
        return Bitmask(self.mask)


def ffn_dense_compile(
    layer: FeedForward, x: np.ndarray, resolve_threshold
) -> tuple[np.ndarray, FFNPhaseState]:
    """Dense-iteration FFN plus phase-state compilation for one block.

    ``resolve_threshold`` maps the hidden activations to the bitmask
    threshold (mirroring :meth:`FFNReuse._resolve_threshold`, whose
    quantile fallback needs the activations). The arithmetic is
    element-for-element the interpreted :meth:`FFNReuse._dense_pass` (the
    differential-parity suite holds the two byte-identical); on top of it
    the bitmask→gather conversion and GEGLU index maps are materialized
    once for the whole sparse phase.
    """
    hidden = layer.nonlinear(layer.linear1(x))
    out = layer.linear2(hidden)

    threshold = float(resolve_threshold(hidden))
    mask = np.abs(np.asarray(hidden, dtype=np.float64)) > threshold
    reused = hidden * ~mask
    partial = reused @ layer.linear2.weight
    partial = partial + layer.linear2.bias

    gather = np.flatnonzero(mask.ravel())
    value_idx = gate_idx = None
    if layer.activation == "geglu":
        # linear1 emits [value | gate] halves of width hidden_dim; map each
        # recomputed hidden element to its two source elements.
        rows = gather // layer.hidden_dim
        cols = gather % layer.hidden_dim
        width = layer.linear1.out_features
        value_idx = rows * width + cols
        gate_idx = value_idx + layer.hidden_dim
    nnz = int(mask.sum())
    return out, FFNPhaseState(
        hidden_dense=hidden,
        mask=mask,
        gather_indices=gather,
        partial_sums=partial,
        threshold=threshold,
        nnz=nnz,
        sparsity=1.0 - nnz / mask.size,
        value_indices=value_idx,
        gate_indices=gate_idx,
    )


def ffn_sparse_step(
    layer: FeedForward, x: np.ndarray, state: FFNPhaseState
) -> np.ndarray:
    """Sparse-iteration FFN through the compiled phase state.

    Pure vectorized gather/scatter: the non-linearity runs only on the
    gathered recompute set (elementwise, so each element equals the
    interpreted full-matrix result bit for bit), the scatter overlays a
    copy of the dense iteration's hidden state, and the 2nd-layer update
    accumulates onto the precomputed partial sums. ``state`` is one
    sample's :class:`FFNPhaseState` or the batched engine's stacked twin
    (same fields, one flat gather over the whole micro-batch).
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
