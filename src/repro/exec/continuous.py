"""The generation engine: iteration-level batching over the compiled plan.

:class:`ContinuousExecutor` advances a set of :class:`RequestRun` cursors
one plan step per :meth:`~ContinuousExecutor.run_tick`, and the set may
change **between** ticks — requests join, finish, or are evicted while
the others keep denoising. A *drained* micro-batch (every request enters
at step 0 and leaves at the last step together) is the same loop with no
membership edits: :meth:`~ContinuousExecutor.run_batch`, which is also
how one generation runs (a batch of one).

The FFN-Reuse schedule constrains *when* membership may change:

- a request may only **join** when its first step is a dense compile and
  every active member is at a dense step too (otherwise the joiner would
  need a sparse gather set no dense iteration ever compiled for it);
- members may **leave at any tick** — completion and eviction drop rows,
  they never require new per-request state.

Both facts fall out of keeping all per-phase FFN state *per run*
(:class:`_RunFFNState`) and treating the batch-wide arrays the kernels
consume as a disposable cache: whenever membership changes, the flat
gather/scatter sets are rebuilt by **index-set edits** — restacking the
surviving per-run masks and recomputing flat indices — with zero model
re-tracing (no new thresholds, no new dense compile, no re-quantization).

The sparse kernels come from :mod:`repro.core.ffn_reuse` and
:mod:`repro.core.eager_prediction` and the rest of the network (exact
attention, ResBlocks, pooling) from the batch-agnostic
:mod:`repro.models`. No step branches on batch size: every tick, a
one-seed generation's included, calls the one EP attention step
:func:`~repro.core.eager_prediction.ep_attention_step_batched`, which is
byte-identical to the oracle. Cross-attention takes one step per
context length, so every request attends its own real conditioning
tokens; a batch whose contexts share one length (every class-label
batch) is one stacked step with no gather or scatter. Per-request
rows are proven independent of batch composition by the serve parity
suite — so a request produces **byte-identical** samples and
:class:`~repro.core.sparsity.RunStats` to its own solo sequential run,
regardless of who shared its ticks. ``tests/serve/`` and
``tests/exec/test_parity.py`` enforce this differentially against the
interpreted oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import ExionConfig
from repro.core.eager_prediction import (
    CompiledPrediction,
    ep_attention_step_batched,
    ep_cross_kv,
)
from repro.core.ffn_reuse import (
    FFNPhaseState,
    attach_geglu_indices,
    ffn_dense_compile,
    ffn_sparse_step,
)
from repro.core.pipeline import (
    GenerationResult,
    _check_activation_bits,
    _fake_quantize,
    _fake_quantize_batched,
)
from repro.core.sparsity import RunStats, add_attention_step, add_ffn_step
from repro.core.thresholds import ThresholdTable
from repro.models.ffn import FeedForward
from repro.models.zoo import BenchmarkModel
from repro.program.cache import get_plan_cache
from repro.serve.request import GenerationRequest


def build_step_tables(model: BenchmarkModel) -> tuple:
    """Plan-time per-step constants of a model's generation loop.

    Timesteps are a pure function of the step count; the timestep
    embedding and each block's adaLN modulation are pure functions of the
    timestep — so all of them are tables, not per-step work. Returns
    ``(timesteps, t_embeds, adaln_tables)``: ``t_embeds`` is a
    ``(steps, t_dim)`` array and ``adaln_tables[block]`` either ``None``
    or a ``(steps, 3, 1, dim)`` array of ``(shift, scale, gate)`` rows,
    each row computed alone as the oracle computes it; a tick gathers
    ``table.take(cursors, axis=0)``, whose ``[:, j]`` is ``(batch, 1,
    dim)`` and broadcasts over tokens.
    """
    network = model.network
    timesteps = model.scheduler.timesteps(model.spec.total_iterations)
    t_embeds = [network._embed_timestep(int(t)) for t in timesteps]
    adaln_tables = [
        None if block.adaln is None
        else np.array([block.adaln(te) for te in t_embeds])[:, :, None, :]
        for block in network.blocks
    ]
    return timesteps, np.array(t_embeds), adaln_tables


def build_prediction_tables(network, config: ExionConfig) -> list:
    """Per-block cached log-domain weight operands (empty when EP is off)."""
    if not config.enable_eager_prediction:
        return []
    mode, bits = config.lod_mode, config.prediction_bits
    preds = []
    for block in network.blocks:
        entry = {
            "self": CompiledPrediction.for_layer(block.self_attn, mode, bits)
        }
        if block.cross_attn is not None:
            entry["cross"] = CompiledPrediction.for_layer(
                block.cross_attn, mode, bits
            )
        preds.append(entry)
    return preds


class PhaseSyncError(RuntimeError):
    """Batch membership violates the dense-phase lockstep invariant."""


@dataclass
class _RunFFNState:
    """One request's slice of a compiled FFN phase (per block).

    ``mask``/``partial_sums`` are the request's own rows of the
    batch-wide dense compile; restacking them under any later batch
    membership reproduces the exact arrays the drained batched kernel
    would have built, which is what keeps membership changes pure
    index-set edits.
    """

    mask: np.ndarray  # (tokens, hidden) bool
    partial_sums: np.ndarray  # (tokens, dim)


class RequestRun:
    """One in-flight request: latent, cursor and per-phase state."""

    def __init__(
        self,
        request: GenerationRequest,
        x: np.ndarray,
        context: Optional[np.ndarray],
        num_blocks: int,
        serial: int,
    ) -> None:
        self.request = request
        #: Per-executor start order. Identifies the run in the batch-wide
        #: cache signature; ``id()`` cannot, because CPython hands a dead
        #: run's address to a later one.
        self.serial = serial
        self.x = x
        self.context = context
        self.cursor = 0
        self.stats = RunStats()
        self.ffn: list = [None] * num_blocks

    @property
    def request_id(self) -> int:
        return self.request.request_id


class ContinuousExecutor:
    """Advances a mutable set of :class:`RequestRun` in plan lockstep.

    Construction performs all plan-time work — schedule compilation,
    timestep-embedding and adaLN tables, log-domain weight operands — so
    every tick pays only step-time cost. One executor is bound to one
    ``(model, config)`` pair.
    """

    def __init__(
        self,
        model: BenchmarkModel,
        config: ExionConfig,
        threshold_table: Optional[ThresholdTable] = None,
        activation_bits: Optional[int] = None,
        collect_masks: bool = False,
    ) -> None:
        self.model = model
        self.config = config
        self.threshold_table = threshold_table
        self.activation_bits = _check_activation_bits(activation_bits)
        self.collect_masks = collect_masks
        self.compiled_plan = get_plan_cache().compiled(model.spec, config)
        self._timesteps, self._t_embeds, self._adaln_tables = (
            build_step_tables(model)
        )
        self._preds = build_prediction_tables(model.network, config)
        self._pipeline = model.make_pipeline()
        #: Optional :class:`repro.obs.observer.Observer`; the owning
        #: server stamps ``observer.now`` before each tick (the executor
        #: has no clock of its own).
        self.observer = None
        self._runs_started = 0
        self._reset_batch_caches(())

    def _reset_batch_caches(self, membership: tuple, contexts: Sequence = ()) -> None:
        """Batch-wide caches, valid only for one membership signature
        (the member runs' serials, in batch order)."""
        self._membership = membership
        #: Per context length, ``(rows, stacked contexts)``: the members
        #: whose conditioning has that many tokens, in batch order.
        self._contexts = contexts
        self._ffn_batch: dict = {}  # block -> FFNPhaseState
        self._cross_kv: dict = {}  # (block, group) -> EP (kh, k, v)
        self._cross_exact_kv: dict = {}  # (block, group) -> (k, v)
        #: block -> its latest cross-attention output. Later ticks of the
        #: membership reuse it when ``_cross_fixed``: one-token contexts under
        #: EP on unquantized ``x``, where ``_one_key`` never reads ``x``.
        self._cross_out: dict = {}
        one_token = all(context.shape[1] == 1 for _, context in contexts)
        self._cross_fixed = one_token and bool(self._preds) and self.activation_bits is None

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        return self.compiled_plan.iterations

    def start_run(self, request: GenerationRequest) -> RequestRun:
        """Materialize a request's initial state (cursor 0, own RNG)."""
        return self._start_run(request, self._embed(request))

    def _embed(self, request: GenerationRequest) -> Optional[np.ndarray]:
        """The request's (possibly quantized) conditioning context."""
        context = self._pipeline.embed_prompt(
            request.prompt, request.class_label
        )
        if context is not None and self.activation_bits is not None:
            context = _fake_quantize(context, self.activation_bits)
        return context

    def _start_run(
        self, request: GenerationRequest, context: Optional[np.ndarray]
    ) -> RequestRun:
        network = self.model.network
        x = np.random.default_rng(request.seed).standard_normal(
            (network.tokens, network.dim)
        )
        self._runs_started += 1
        run = RequestRun(
            request=request,
            x=x,
            context=context,
            num_blocks=network.num_transformer_blocks,
            serial=self._runs_started,
        )
        run.stats.collect_masks = self.collect_masks
        return run

    def finish_run(self, run: RequestRun) -> GenerationResult:
        """Package a completed run as a :class:`GenerationResult`."""
        if run.cursor != self.iterations:
            raise PhaseSyncError(
                f"run {run.request_id} finished at cursor {run.cursor}, "
                f"expected {self.iterations}"
            )
        return GenerationResult(sample=run.x.copy(), stats=run.stats)

    def run_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> list[GenerationResult]:
        """One sample per request through a drained micro-batch.

        Every request starts at step 0 and all finish on the last tick:
        the continuous loop with no membership edits. Requests with the
        same conditioning share one encoder pass.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("need at least one request")
        embeddings: dict = {}
        runs = []
        for request in requests:
            key = (request.prompt, request.class_label)
            if key not in embeddings:
                embeddings[key] = self._embed(request)
            runs.append(self._start_run(request, embeddings[key]))
        for _ in range(self.iterations):
            self.run_tick(runs)
        # Every member is done: release the batch-wide FFN/K-V state now
        # instead of holding it resident until the next batch's first tick.
        self._reset_batch_caches(())
        return [self.finish_run(run) for run in runs]

    # ------------------------------------------------------------------
    # one lockstep tick
    # ------------------------------------------------------------------
    def run_tick(self, runs: Sequence[RequestRun]) -> list:
        """Advance every run one plan step; returns the runs that finished.

        All runs must sit at steps of the same density (the scheduler's
        job — joins only at dense boundaries keep this invariant). The
        caller removes returned (finished) runs from its active set; the
        next tick's membership change is absorbed here as an index-set
        edit.
        """
        runs = list(runs)
        if not runs:
            raise ValueError("need at least one active run")
        plan = self.compiled_plan
        iterations = plan.iterations
        densities = set()
        for run in runs:
            if not 0 <= run.cursor < iterations:
                raise PhaseSyncError(
                    f"run {run.request_id} cursor {run.cursor} outside plan"
                )
            densities.add(plan.steps[run.cursor].is_dense)
        if len(densities) != 1:
            raise PhaseSyncError(
                "mixed dense/sparse cursors in one tick: "
                + str([(r.request_id, r.cursor) for r in runs])
            )
        self._tick_dense = densities.pop()
        self._tick_cursors = np.array([run.cursor for run in runs])

        membership = tuple(r.serial for r in runs)
        if membership != self._membership:
            # Index-set edit: the batch-wide caches die with the old
            # membership; FFN stacks are rebuilt lazily from per-run
            # state, contexts and K/V stacks from per-run contexts. No
            # re-trace.
            contexts = self._group_contexts(runs)
            if self.observer is not None:
                self.observer.on_index_set_edit(
                    len(self._membership), len(membership),
                    rebuilt=bool(self._membership),
                )
            self._reset_batch_caches(membership, contexts)

        count_iterations = self.config.enable_ffn_reuse
        # ``np.array`` of equal-shape rows is ``np.stack`` without its
        # Python-level checks; ``take`` is the same gather as ``[cursors]``.
        eps = self.model.network.walk(
            np.array([r.x for r in runs]),
            self._t_embeds.take(self._tick_cursors, axis=0),
            lambda index, h: self._block(index, h, runs),
        )

        finished = []
        timesteps = self._timesteps
        # The zoo's DDIM scheduler is deterministic and stateless: one
        # instance steps every run.
        scheduler = self.model.scheduler
        for b, run in enumerate(runs):
            i = run.cursor
            if count_iterations:
                if self._tick_dense:
                    run.stats.dense_iterations += 1
                else:
                    run.stats.sparse_iterations += 1
            t = int(timesteps[i])
            prev_t = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            run.x = scheduler.step(eps[b], t, run.x, prev_t=prev_t)
            run.cursor += 1
            if run.cursor == iterations:
                finished.append(run)
        return finished

    @staticmethod
    def _group_contexts(runs: list) -> list:
        """The members' contexts stacked per token count (see
        ``_contexts``); empty for an unconditioned batch."""
        if all(r.context is None for r in runs):
            return []
        if any(r.context is None for r in runs):
            raise PhaseSyncError(
                "conditioned and unconditioned runs in one batch"
            )
        by_length: dict = {}
        for b, run in enumerate(runs):
            by_length.setdefault(len(run.context), []).append(b)
        return [
            (np.array(rows), np.stack([runs[b].context for b in rows]))
            for rows in by_length.values()
        ]

    # ------------------------------------------------------------------
    # one transformer block over the batch axis, per-run cursors
    # (DiffusionNetwork.walk owns the topology)
    # ------------------------------------------------------------------
    def _block(
        self,
        block_index: int,
        x: np.ndarray,
        runs: list,
    ) -> np.ndarray:
        block = self.model.network.blocks[block_index]
        h = block.norm1(x)
        table = self._adaln_tables[block_index]
        if table is not None:
            # Per-run (shift, scale, gate) rows, each (batch, 1, dim) and
            # broadcast over tokens: the oracle's elementwise arithmetic.
            modulation = table.take(self._tick_cursors, axis=0)
            h = h * (1.0 + modulation[:, 1]) + modulation[:, 0]
            gate = modulation[:, 2]
        else:
            gate = 1.0
        x = x + gate * self._attention(
            block.self_attn, h, None, block_index, runs
        )
        if block.cross_attn is not None and self._contexts:
            if self._cross_fixed and block_index in self._cross_out:
                n = len(runs)
                add_attention_step([run.stats for run in runs], block.cross_attn,
                                   x.shape[1], 1, [0] * n, [0] * n, [1] * n, None)
            else:
                self._cross_out[block_index] = self._cross_attention(block, x, block_index, runs)
            x = x + self._cross_out[block_index]
        x = x + self._ffn(block.ffn, block.norm2(x), block_index, runs)
        return x

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def _cross_attention(
        self, block, x: np.ndarray, block_index: int, runs: list
    ) -> np.ndarray:
        """Cross-attention, one stacked step per context length: each
        request attends its own real tokens, so rows whose contexts
        differ in length run apart and are scattered back in batch
        order. One length is the whole batch: no gather or scatter."""
        layer, x = block.cross_attn, block.norm_cross(x)
        if len(self._contexts) == 1:
            return self._attention(
                layer, x, self._contexts[0][1], block_index, runs, group=0
            )
        out = np.empty_like(x)
        for group, (rows, context) in enumerate(self._contexts):
            out[rows] = self._attention(
                layer, x[rows], context, block_index,
                [runs[b] for b in rows], group=group,
            )
        return out

    def _attention(
        self,
        layer,
        x: np.ndarray,
        context: Optional[np.ndarray],
        block_index: int,
        runs: list,
        group: int = 0,
    ) -> np.ndarray:
        if self.activation_bits is not None:
            x = _fake_quantize_batched(x, self.activation_bits)
        key = (block_index, group)
        if not self._preds:
            if context is None:
                return layer.attend(x, *layer.kv(x))
            cached = self._cross_exact_kv.get(key)
            if cached is None:
                cached = self._cross_exact_kv[key] = layer.kv(context)
            return layer.attend(x, *cached)
        which = "self" if context is None else "cross"
        pred = self._preds[block_index][which]
        kv = None
        if context is not None:
            kv = self._cross_kv.get(key)
            if kv is None:
                kv = self._cross_kv[key] = ep_cross_kv(layer, context, pred, self.config)
        return ep_attention_step_batched(
            layer, x, context, pred, self.config,
            [run.stats for run in runs], kv=kv,
        )

    # ------------------------------------------------------------------
    # FFN
    # ------------------------------------------------------------------
    def _ffn(
        self,
        layer: FeedForward,
        x: np.ndarray,
        block_index: int,
        runs: list,
    ) -> np.ndarray:
        if self.activation_bits is not None:
            x = _fake_quantize_batched(x, self.activation_bits)
        if not self.config.enable_ffn_reuse:
            return layer.linear2(layer.nonlinear(layer.linear1(x)))
        batch_stats = [run.stats for run in runs]
        if self._tick_dense:
            dense_indices = np.array([
                self.compiled_plan.steps[run.cursor].phase for run in runs
            ])
            out, batch_state = ffn_dense_compile(
                layer, x, block_index, dense_indices,
                self.config, self.threshold_table,
            )
            self._ffn_batch[block_index] = batch_state
            for b, run in enumerate(runs):
                run.ffn[block_index] = _RunFFNState(
                    mask=batch_state.mask[b],
                    partial_sums=batch_state.partial_sums[b],
                )
            add_ffn_step(batch_stats, layer, x.shape[1], masks=batch_state.mask)
            return out

        batch_state = self._ffn_batch.get(block_index)
        if batch_state is None:
            batch_state = self._rebuild_ffn_batch(layer, block_index, runs)
        out = ffn_sparse_step(layer, x, batch_state)
        add_ffn_step(batch_stats, layer, x.shape[1],
                     nnz=batch_state.nnz_per_request.tolist())
        return out

    def _rebuild_ffn_batch(
        self, layer: FeedForward, block_index: int, runs: list
    ) -> FFNPhaseState:
        """The index-set edit: restack surviving per-run phase state.

        No thresholds are resolved and no dense compile runs — the new
        batch-wide flat gather/scatter sets are pure index arithmetic
        over the per-run masks each request compiled at its own dense
        step.
        """
        missing = [
            run.request_id for run in runs if run.ffn[block_index] is None
        ]
        if missing:
            raise PhaseSyncError(
                f"runs {missing} reached a sparse step without compiled "
                f"FFN state for block {block_index} (join off a dense "
                "boundary?)"
            )
        states = [run.ffn[block_index] for run in runs]
        mask = np.stack([s.mask for s in states])
        batch_state = FFNPhaseState(
            mask=mask,
            gather_indices=np.flatnonzero(mask.ravel()),
            partial_sums=np.stack([s.partial_sums for s in states]),
            nnz_per_request=mask.reshape(len(states), -1).sum(axis=1),
        )
        attach_geglu_indices(layer, batch_state)
        self._ffn_batch[block_index] = batch_state
        return batch_state


__all__ = [
    "ContinuousExecutor",
    "PhaseSyncError",
    "RequestRun",
]
