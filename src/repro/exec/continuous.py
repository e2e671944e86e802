"""The batched engine: iteration-level batching over the compiled plan.

:class:`ContinuousExecutor` advances a set of :class:`RequestRun` cursors
one plan step per :meth:`~ContinuousExecutor.run_tick`, and the set may
change **between** ticks — requests join, finish, or are evicted while
the others keep denoising. A *drained* micro-batch (every request enters
at step 0 and leaves at the last step together) is the same loop with no
membership edits: :meth:`~ContinuousExecutor.run_batch`.

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
:mod:`repro.models`, whose per-request
rows are proven independent of batch composition by the serve parity
suite — so a request produces **byte-identical** samples and
:class:`~repro.core.sparsity.RunStats` to its own solo sequential run,
regardless of who shared its ticks. ``tests/serve/`` and
``tests/exec/test_parity.py`` enforce this differentially against the
interpreted oracle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.eager_prediction import ep_attention_step_batched, ep_cross_kv
from repro.core.ffn_reuse import (
    FFNPhaseState,
    attach_geglu_indices,
    ffn_dense_compile,
    ffn_sparse_step,
)
from repro.core.pipeline import (
    GenerationResult,
    _fake_quantize,
    _fake_quantize_batched,
)
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable
from repro.models.ffn import FeedForward
from repro.models.pipeline import DiffusionResult
from repro.models.scheduler import DDPMScheduler
from repro.models.zoo import BenchmarkModel
from repro.program.cache import compiled_plan_for
from repro.program.compiled import CompiledPlan
from repro.serve.request import GenerationRequest

from repro.exec.executor import build_prediction_tables, build_step_tables


class PhaseSyncError(RuntimeError):
    """Batch membership violates the dense-phase lockstep invariant."""


@dataclass
class _RunFFNState:
    """One request's slice of a compiled FFN phase (per block).

    ``hidden_dense``/``mask``/``partial_sums`` are the request's own rows
    of the batch-wide dense compile; restacking them under any later
    batch membership reproduces the exact arrays the drained batched
    kernel would have built, which is what keeps membership changes pure
    index-set edits.
    """

    hidden_dense: np.ndarray  # (tokens, hidden)
    mask: np.ndarray  # (tokens, hidden) bool
    partial_sums: np.ndarray  # (tokens, dim)
    nnz: int


class RequestRun:
    """One in-flight request: latent, cursor, RNG and per-phase state."""

    def __init__(
        self,
        request: GenerationRequest,
        x: np.ndarray,
        rng: np.random.Generator,
        scheduler,
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
        self.rng = rng
        self.scheduler = scheduler
        self.context = context
        self.cursor = 0
        self.stats = RunStats()
        self.ffn: list = [None] * num_blocks

    @property
    def request_id(self) -> int:
        return self.request.request_id


class ContinuousExecutor:
    """Advances a mutable set of :class:`RequestRun` in plan lockstep."""

    def __init__(
        self,
        model: BenchmarkModel,
        config: ExionConfig,
        threshold_table: Optional[ThresholdTable] = None,
        activation_bits: Optional[int] = None,
        collect_masks: bool = False,
        compiled_plan: Optional[CompiledPlan] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.threshold_table = threshold_table
        self.activation_bits = activation_bits
        self.collect_masks = collect_masks
        if compiled_plan is None:
            compiled_plan = compiled_plan_for(model.spec, config)
        self.compiled_plan = compiled_plan
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

    def _reset_batch_caches(self, membership: tuple) -> None:
        """Batch-wide caches, valid only for one membership signature
        (the member runs' serials, in batch order)."""
        self._membership = membership
        self._ffn_batch: dict = {}  # block -> FFNPhaseState
        self._cross_kv: dict = {}  # block -> EP (kh, k, v)
        self._cross_exact_kv: dict = {}  # block -> (k, v)

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
        rng = np.random.default_rng(request.seed)
        x = rng.standard_normal((network.tokens, network.dim))
        scheduler = self.model.scheduler
        if hasattr(scheduler, "reset"):
            # Multistep solvers carry per-trajectory state; each run gets
            # its own fresh copy. Stateless schedulers are shared.
            scheduler = copy.deepcopy(scheduler)
            scheduler.reset()
        self._runs_started += 1
        return RequestRun(
            request=request,
            x=x,
            rng=rng,
            scheduler=scheduler,
            context=context,
            num_blocks=network.num_transformer_blocks,
            serial=self._runs_started,
        )

    def finish_run(self, run: RequestRun) -> GenerationResult:
        """Package a completed run as a :class:`GenerationResult`."""
        if run.cursor != self.iterations:
            raise PhaseSyncError(
                f"run {run.request_id} finished at cursor {run.cursor}, "
                f"expected {self.iterations}"
            )
        return GenerationResult(
            sample=run.x.copy(),
            stats=run.stats,
            diffusion=DiffusionResult(
                sample=run.x.copy(), iterations=len(self._timesteps)
            ),
        )

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
        densities = set()
        for run in runs:
            if not 0 <= run.cursor < plan.iterations:
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
            # state, K/V stacks from per-run contexts. No re-trace.
            if self.observer is not None:
                self.observer.on_index_set_edit(
                    len(self._membership), len(membership),
                    rebuilt=bool(self._membership),
                )
            self._reset_batch_caches(membership)

        x = np.stack([r.x for r in runs])
        context = None
        if any(r.context is not None for r in runs):
            if any(r.context is None for r in runs):
                raise PhaseSyncError(
                    "conditioned and unconditioned runs in one batch"
                )
            context = np.stack([r.context for r in runs])

        count_iterations = self.config.enable_ffn_reuse
        eps = self.model.network.walk(
            x, self._t_embeds[self._tick_cursors],
            lambda index, h: self._block(index, h, context, runs),
        )

        finished = []
        timesteps = self._timesteps
        for b, run in enumerate(runs):
            i = run.cursor
            if count_iterations:
                if self._tick_dense:
                    run.stats.dense_iterations += 1
                else:
                    run.stats.sparse_iterations += 1
            t = int(timesteps[i])
            prev_t = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            if isinstance(run.scheduler, DDPMScheduler):
                run.x = run.scheduler.step(
                    eps[b], t, run.x, prev_t=prev_t, rng=run.rng
                )
            else:
                run.x = run.scheduler.step(
                    eps[b], t, run.x, prev_t=prev_t, rng=None
                )
            run.cursor += 1
            if run.cursor == plan.iterations:
                finished.append(run)
        return finished

    # ------------------------------------------------------------------
    # one transformer block over the batch axis, per-run cursors
    # (DiffusionNetwork.walk owns the topology)
    # ------------------------------------------------------------------
    def _block(
        self,
        block_index: int,
        x: np.ndarray,
        raw_context: Optional[np.ndarray],
        runs: list,
    ) -> np.ndarray:
        block = self.model.network.blocks[block_index]
        h = block.norm1(x)
        table = self._adaln_tables[block_index]
        if table is not None:
            # Per-run modulation rows, broadcast over tokens: identical
            # elementwise arithmetic to the single-stream executor's
            # per-step vector broadcast.
            shift, scale, gate = table[self._tick_cursors].transpose(
                1, 0, 2
            )[:, :, None, :]
            h = h * (1.0 + scale) + shift
        else:
            gate = 1.0
        x = x + gate * self._attention(
            block.self_attn, h, None, block_index, runs
        )
        if block.cross_attn is not None and raw_context is not None:
            assert block.norm_cross is not None
            x = x + self._attention(
                block.cross_attn, block.norm_cross(x), raw_context,
                block_index, runs,
            )
        x = x + self._ffn(block.ffn, block.norm2(x), block_index, runs)
        return x

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def _attention(
        self,
        layer,
        x: np.ndarray,
        context: Optional[np.ndarray],
        block_index: int,
        runs: list,
    ) -> np.ndarray:
        if self.activation_bits is not None:
            x = _fake_quantize_batched(x, self.activation_bits)
        if not self._preds:
            if context is None:
                return layer.attend(x, *layer.kv(x))[0]
            cached = self._cross_exact_kv.get(block_index)
            if cached is None:
                cached = self._cross_exact_kv[block_index] = layer.kv(context)
            return layer.attend(x, *cached)[0]
        which = "self" if context is None else "cross"
        pred = self._preds[block_index][which]
        kv = None
        if context is not None:
            kv = self._cross_kv.get(block_index)
            if kv is None:
                kv = ep_cross_kv(layer, context, pred, self.config)
                self._cross_kv[block_index] = kv
        return ep_attention_step_batched(
            layer, x, context, pred, self.config,
            [run.stats for run in runs],
            collect_keepmasks=self.collect_masks, kv=kv,
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
        tokens = x.shape[1]
        full_l1 = layer.linear1.macs(tokens)
        full_l2 = layer.linear2.macs(tokens)
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
                    hidden_dense=batch_state.hidden_dense[b],
                    mask=batch_state.mask[b],
                    partial_sums=batch_state.partial_sums[b],
                    nnz=int(batch_state.nnz_per_request[b]),
                )
                run.stats.ffn_layer1.add(full_l1, full_l1)
                run.stats.ffn_layer2.add(full_l2, full_l2)
                if self.collect_masks:
                    run.stats.ffn_bitmasks.append(
                        Bitmask(batch_state.mask[b])
                    )
            return out

        batch_state = self._ffn_batch.get(block_index)
        if batch_state is None:
            batch_state = self._rebuild_ffn_batch(layer, block_index, runs)
        out = ffn_sparse_step(layer, x, batch_state)
        elements = batch_state.mask.shape[1] * batch_state.mask.shape[2]
        l1_cols_per_hidden = layer.linear1.out_features // layer.hidden_dim
        for run in runs:
            nnz = run.ffn[block_index].nnz
            run.stats.ffn_layer1.add(
                full_l1, nnz * layer.dim * l1_cols_per_hidden
            )
            run.stats.ffn_layer2.add(full_l2, nnz * layer.dim)
            run.stats.ffn_sparsities.append(1.0 - nnz / elements)
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
            hidden_dense=np.stack([s.hidden_dense for s in states]),
            mask=mask,
            gather_indices=np.flatnonzero(mask.ravel()),
            partial_sums=np.stack([s.partial_sums for s in states]),
            nnz_per_request=np.array([s.nnz for s in states]),
        )
        attach_geglu_indices(layer, batch_state)
        self._ffn_batch[block_index] = batch_state
        return batch_state


__all__ = [
    "ContinuousExecutor",
    "PhaseSyncError",
    "RequestRun",
]
