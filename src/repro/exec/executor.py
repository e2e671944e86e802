"""Single-stream compiled executor (the generation hot path).

Mirrors the interpreted stack
(:class:`~repro.models.pipeline.DiffusionPipeline` →
:class:`~repro.models.network.DiffusionNetwork` →
:class:`~repro.models.transformer.TransformerBlock` with the EXION
executor hooks) with the plan-time work hoisted out of the loop. The
network's topology is the oracle's own
(:meth:`~repro.models.network.DiffusionNetwork.walk`); only the
transformer block is compiled here, and its arithmetic must stay
expression-for-expression identical to the interpreted path. The one
licence taken: a contraction the oracle runs head by head is one
stacked ``np.matmul`` here, which is the same bytes on every shape the
zoo runs (pinned in ``tests/core/test_eager_prediction.py``). The
differential-parity suite in ``tests/exec/`` enforces the whole
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.eager_prediction import (
    CompiledPrediction,
    ep_attention_step,
    ep_cross_kv,
)
from repro.core.ffn_reuse import ffn_dense_compile, ffn_sparse_step
from repro.core.pipeline import GenerationResult, _fake_quantize
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable
from repro.models.ffn import FeedForward
from repro.models.pipeline import DiffusionResult
from repro.models.transformer import TransformerBlock
from repro.models.zoo import BenchmarkModel
from repro.program.cache import compiled_plan_for
from repro.program.compiled import CompiledPlan


def build_step_tables(model: BenchmarkModel) -> tuple:
    """Plan-time per-step constants of a model's generation loop.

    Timesteps are a pure function of the step count; the timestep
    embedding and each block's adaLN modulation are pure functions of the
    timestep — so all of them are tables, not per-step work. Returns
    ``(timesteps, t_embeds, adaln_tables)``: ``t_embeds`` is a
    ``(steps, t_dim)`` array and ``adaln_tables[block]`` either ``None``
    or a ``(steps, 3, dim)`` array of ``(shift, scale, gate)`` rows, each
    row computed alone as the oracle computes it; a batch of cursors
    reads ``table[cursors]``.
    """
    network = model.network
    timesteps = model.scheduler.timesteps(model.spec.total_iterations)
    t_embeds = [network._embed_timestep(int(t)) for t in timesteps]
    adaln_tables = [
        None if block.adaln is None
        else np.array([block.adaln(te) for te in t_embeds])
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


@dataclass
class _GenState:
    """Mutable per-generation state threaded through the step loop."""

    stats: RunStats
    ffn_states: list  # per-block batch-of-one FFNPhaseState | None
    phase: int = 0
    is_dense: bool = True
    context: Optional[np.ndarray] = None  # (possibly quantized) conditioning
    cross_kv: dict = field(default_factory=dict)  # block -> EP (kh, k, v)
    cross_exact_kv: dict = field(default_factory=dict)  # block -> (k, v)


class CompiledExecutor:
    """Runs generations through a precompiled plan.

    Construction performs all plan-time work — schedule compilation,
    timestep-embedding and adaLN tables, log-domain weight operands — so
    repeated :meth:`generate` calls pay only step-time cost. One executor
    instance is bound to one ``(model, config)`` pair, exactly like the
    interpreted managers it replaces.
    """

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

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> GenerationResult:
        """One sample, bit-identical to ``ExionPipeline.generate()``."""
        model = self.model
        network = model.network
        scheduler = model.scheduler
        pipeline = model.make_pipeline()
        if hasattr(scheduler, "reset"):
            scheduler.reset()

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((network.tokens, network.dim))
        context = pipeline.embed_prompt(prompt, class_label)

        state = _GenState(
            stats=RunStats(),
            ffn_states=[None] * network.num_transformer_blocks,
        )
        if context is not None and self.activation_bits is not None:
            # The interpreted quantizing wrapper re-quantizes the constant
            # context every layer call; one conversion serves them all.
            state.context = _fake_quantize(context, self.activation_bits)
        else:
            state.context = context

        count_iterations = self.config.enable_ffn_reuse
        timesteps = self._timesteps
        for step in self.compiled_plan.steps:
            state.phase = step.phase
            state.is_dense = step.is_dense
            if count_iterations:
                if step.is_dense:
                    state.stats.dense_iterations += 1
                else:
                    state.stats.sparse_iterations += 1
            i = step.index
            eps = network.walk(
                x, self._t_embeds[i],
                lambda index, h: self._block(index, h, context, i, state),
            )
            prev_t = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            x = scheduler.step(eps, int(timesteps[i]), x, prev_t=prev_t,
                               rng=rng)

        return GenerationResult(
            sample=x,
            stats=state.stats,
            diffusion=DiffusionResult(sample=x, iterations=len(timesteps)),
        )

    # ------------------------------------------------------------------
    # one transformer block (DiffusionNetwork.walk owns the topology)
    # ------------------------------------------------------------------
    def _block(
        self,
        block_index: int,
        x: np.ndarray,
        raw_context: Optional[np.ndarray],
        step_index: int,
        state: _GenState,
    ) -> np.ndarray:
        block = self.model.network.blocks[block_index]
        h = block.norm1(x)
        table = self._adaln_tables[block_index]
        if table is not None:
            shift, scale, gate = table[step_index]
            h = h * (1.0 + scale) + shift
        else:
            gate = 1.0
        x = x + gate * self._self_attention(block, h, block_index, state)

        if block.cross_attn is not None and raw_context is not None:
            assert block.norm_cross is not None
            x = x + self._cross_attention(
                block, block.norm_cross(x), block_index, state
            )

        x = x + self._ffn(block.ffn, block.norm2(x), block_index, state)
        return x

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def _self_attention(
        self,
        block: TransformerBlock,
        x: np.ndarray,
        block_index: int,
        state: _GenState,
    ) -> np.ndarray:
        layer = block.self_attn
        if self.activation_bits is not None:
            x = _fake_quantize(x, self.activation_bits)
        if self._preds:
            return ep_attention_step(
                layer, x, None, self._preds[block_index]["self"],
                self.config, state.stats,
                collect_keepmasks=self.collect_masks,
            )
        return layer.attend(x, *layer.kv(x))[0]

    def _cross_attention(
        self,
        block: TransformerBlock,
        x: np.ndarray,
        block_index: int,
        state: _GenState,
    ) -> np.ndarray:
        layer = block.cross_attn
        assert layer is not None
        context = state.context
        assert context is not None
        if self.activation_bits is not None:
            x = _fake_quantize(x, self.activation_bits)
        if self._preds:
            kv = state.cross_kv.get(block_index)
            if kv is None:
                kv = tuple(a[0] for a in ep_cross_kv(
                    layer, context[None], self._preds[block_index]["cross"],
                    self.config,
                ))
                state.cross_kv[block_index] = kv
            return ep_attention_step(
                layer, x, context, self._preds[block_index]["cross"],
                self.config, state.stats,
                collect_keepmasks=self.collect_masks, kv=kv,
            )
        cached = state.cross_exact_kv.get(block_index)
        if cached is None:
            cached = state.cross_exact_kv[block_index] = layer.kv(context)
        return layer.attend(x, *cached)[0]

    # ------------------------------------------------------------------
    # FFN
    # ------------------------------------------------------------------
    def _ffn(
        self,
        layer: FeedForward,
        x: np.ndarray,
        block_index: int,
        state: _GenState,
    ) -> np.ndarray:
        if self.activation_bits is not None:
            x = _fake_quantize(x, self.activation_bits)
        if not self.config.enable_ffn_reuse:
            return layer.linear2(layer.nonlinear(layer.linear1(x)))
        tokens = x.shape[0]
        stats = state.stats
        full_l1 = layer.linear1.macs(tokens)
        full_l2 = layer.linear2.macs(tokens)
        if state.is_dense or state.ffn_states[block_index] is None:
            out, phase_state = ffn_dense_compile(
                layer, x[None], block_index, np.array([state.phase]),
                self.config, self.threshold_table,
            )
            state.ffn_states[block_index] = phase_state
            stats.ffn_layer1.add(full_l1, full_l1)
            stats.ffn_layer2.add(full_l2, full_l2)
            if self.collect_masks:
                stats.ffn_bitmasks.append(Bitmask(phase_state.mask[0]))
            return out[0]
        phase_state = state.ffn_states[block_index]
        out = ffn_sparse_step(layer, x[None], phase_state)[0]
        nnz = int(phase_state.nnz_per_request[0])
        l1_cols_per_hidden = layer.linear1.out_features // layer.hidden_dim
        stats.ffn_layer1.add(full_l1, nnz * layer.dim * l1_cols_per_hidden)
        stats.ffn_layer2.add(full_l2, nnz * layer.dim)
        stats.ffn_sparsities.append(1.0 - nnz / phase_state.mask[0].size)
        return out
