"""End-to-end EXION inference over a benchmark model.

Binds the FFN-Reuse manager and eager predictor into the diffusion
pipeline's executor hooks and aggregates run statistics. The four ablation
configurations of the evaluation (Base / EP / FFNR / All) are expressed by
the two enable flags on :class:`repro.core.config.ExionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExionConfig
from repro.core.eager_prediction import EagerPredictor
from repro.core.ffn_reuse import FFNReuse
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable
from repro.models.pipeline import DiffusionResult
from repro.models.transformer import Executors
from repro.models.zoo import BenchmarkModel


@dataclass
class GenerationResult:
    """Sample plus the sparsity/op statistics of the run."""

    sample: np.ndarray
    stats: RunStats
    diffusion: DiffusionResult


class ExionPipeline:
    """Runs a benchmark model with EXION's software optimizations.

    ``compiled=True`` routes generation through the plan-compiled executor
    (:class:`repro.exec.CompiledExecutor`): the phase schedule, log-domain
    weight operands and timestep tables are precomputed once and each
    iteration replays pure gather/scatter kernels. Results are
    bit-identical to the interpreted path, which remains the reference
    oracle (and the only path that can collect per-iteration traces).
    ``generate_batch(batched=True)`` always runs on the one batched
    engine (:class:`repro.exec.ContinuousExecutor`), whatever ``compiled``
    says — it is byte-identical to the sequential loop either way.

    Example::

        model = build_model("dit")
        pipeline = ExionPipeline(model, ExionConfig.for_model("dit"))
        result = pipeline.generate(seed=1, class_label=207)
    """

    def __init__(
        self,
        model: BenchmarkModel,
        config: ExionConfig,
        threshold_table: Optional[ThresholdTable] = None,
        activation_bits: Optional[int] = None,
        collect_masks: bool = False,
        compiled: bool = False,
    ) -> None:
        self.model = model
        self.config = config
        self.threshold_table = threshold_table
        self.activation_bits = activation_bits
        self.collect_masks = collect_masks
        self.compiled = compiled
        self._compiled_executor = None
        self._batched_delegates: dict = {}  # vanilla? -> BatchedPipeline

    def _executor(self):
        """The plan-compiled executor, built once per pipeline."""
        if self._compiled_executor is None:
            from repro.exec import CompiledExecutor

            self._compiled_executor = CompiledExecutor(
                self.model,
                self.config,
                threshold_table=self.threshold_table,
                activation_bits=self.activation_bits,
                collect_masks=self.collect_masks,
            )
        return self._compiled_executor

    def _batched(self, vanilla: bool):
        """The batched delegate (and its engine), built once per pipeline."""
        delegate = self._batched_delegates.get(vanilla)
        if delegate is None:
            from repro.serve.batched import BatchedPipeline

            if vanilla:
                # Vanilla disables every optimization, like generate_vanilla().
                delegate = BatchedPipeline(
                    self.model, self.config.ablation("base")
                )
            else:
                delegate = BatchedPipeline(
                    self.model,
                    self.config,
                    threshold_table=self.threshold_table,
                    activation_bits=self.activation_bits,
                    collect_masks=self.collect_masks,
                )
            self._batched_delegates[vanilla] = delegate
        return delegate

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        collect_traces: bool = False,
    ) -> GenerationResult:
        """Generate one sample with the configured optimizations."""
        if self.compiled and not collect_traces:
            # Trace collection is an analysis feature of the interpreted
            # path; asking for it falls back to the oracle.
            return self._executor().generate(
                seed=seed, prompt=prompt, class_label=class_label
            )
        stats = RunStats()
        pipeline = self.model.make_pipeline()

        ffn_reuse: Optional[FFNReuse] = None
        if self.config.enable_ffn_reuse:
            ffn_reuse = FFNReuse(
                self.config,
                num_blocks=self.model.network.num_transformer_blocks,
                stats=stats,
                threshold_table=self.threshold_table,
                collect_bitmasks=self.collect_masks,
            )
        predictor: Optional[EagerPredictor] = None
        if self.config.enable_eager_prediction:
            predictor = EagerPredictor(
                self.config, stats=stats, collect_keepmasks=self.collect_masks
            )

        provider = self._make_provider(ffn_reuse, predictor)
        hook = None
        if ffn_reuse is not None:
            hook = lambda iteration, t: ffn_reuse.begin_iteration(iteration)  # noqa: E731

        diffusion = pipeline.generate(
            seed=seed,
            prompt=prompt,
            class_label=class_label,
            executor_provider=provider,
            iteration_start_hook=hook,
            collect_traces=collect_traces,
        )
        return GenerationResult(sample=diffusion.sample, stats=stats,
                                diffusion=diffusion)

    def generate_batch(
        self,
        seeds,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        vanilla: bool = False,
        batched: bool = False,
    ) -> tuple:
        """Generate one sample per seed; returns ``(samples, results)``.

        ``samples`` is a stacked ``(len(seeds), tokens, dim)`` array for
        direct use with the distribution metrics in
        :mod:`repro.workloads.metrics`.

        ``batched=True`` routes the seeds through the vectorized
        :class:`repro.serve.batched.BatchedPipeline` (one shared denoising
        loop for the whole batch on the batched engine) instead of a
        Python-level loop; the per-seed samples and statistics are
        identical either way.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if batched:
            return self._batched(vanilla).generate_batch(
                seeds, prompt=prompt, class_label=class_label
            )
        results = []
        for seed in seeds:
            if vanilla:
                results.append(
                    self.generate_vanilla(seed=seed, prompt=prompt,
                                          class_label=class_label)
                )
            else:
                results.append(
                    self.generate(seed=seed, prompt=prompt,
                                  class_label=class_label)
                )
        samples = np.stack([r.sample for r in results])
        return samples, results

    def generate_vanilla(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        collect_traces: bool = False,
    ) -> GenerationResult:
        """Reference run with every optimization disabled."""
        pipeline = self.model.make_pipeline()
        diffusion = pipeline.generate(
            seed=seed,
            prompt=prompt,
            class_label=class_label,
            collect_traces=collect_traces,
        )
        return GenerationResult(sample=diffusion.sample, stats=RunStats(),
                                diffusion=diffusion)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_provider(self, ffn_reuse: Optional[FFNReuse],
                       predictor: Optional[EagerPredictor]):
        if ffn_reuse is None and predictor is None and self.activation_bits is None:
            return None
        quant_bits = self.activation_bits

        def provider(iteration: int, block: int) -> Executors:
            ffn_exec = None
            if ffn_reuse is not None:
                ffn_exec = ffn_reuse.executor_for_block(block)
            attn_exec = predictor.executor() if predictor is not None else None
            if quant_bits is not None:
                ffn_exec = _quantizing_ffn(ffn_exec, quant_bits)
                attn_exec = _quantizing_attention(attn_exec, quant_bits)
            return Executors(
                self_attention=attn_exec,
                cross_attention=attn_exec,
                ffn=ffn_exec,
            )

        return provider


def _fake_quantize(x: np.ndarray, bits: int) -> np.ndarray:
    from repro.core.logdomain import quantize_symmetric

    ints, scale = quantize_symmetric(x, bits)
    return ints.astype(np.float64) * scale


def _quantizing_ffn(inner, bits: int):
    """Wrap an FFN executor with INT activation fake-quantization."""

    def run(layer, x):
        xq = _fake_quantize(x, bits)
        if inner is not None:
            return inner(layer, xq)
        return layer.forward_exact(xq)

    return run


def _quantizing_attention(inner, bits: int):
    """Wrap an attention executor with INT activation fake-quantization."""

    def run(layer, x, context):
        xq = _fake_quantize(x, bits)
        ctxq = _fake_quantize(context, bits) if context is not None else None
        if inner is not None:
            return inner(layer, xq, ctxq)
        return layer.forward_exact(xq, ctxq)

    return run
