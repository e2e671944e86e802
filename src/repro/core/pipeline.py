"""End-to-end EXION inference over a benchmark model.

:class:`ExionPipeline` is the one request-level front door. It runs the
plan-compiled engines of :mod:`repro.exec` by default and also holds the
interpreted stack they are byte-identical to — the FFN-Reuse manager and
the eager predictor bound into the diffusion pipeline's executor hooks.
The four ablation configurations of the evaluation (Base / EP / FFNR /
All) are expressed by the two enable flags on
:class:`repro.core.config.ExionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExionConfig
from repro.core.eager_prediction import EagerPredictor
from repro.core.ffn_reuse import FFNReuse
from repro.core.logdomain import quantize_symmetric, quantize_symmetric_batched
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

    Generation runs on the plan-compiled engines: the phase schedule,
    log-domain weight operands and timestep tables are precomputed once
    and each iteration replays pure gather/scatter kernels.
    :meth:`generate` (and a one-seed :meth:`generate_batch`) uses the 2-D
    :class:`repro.exec.CompiledExecutor`; :meth:`generate_batch` with
    several seeds hands them to
    :meth:`repro.exec.ContinuousExecutor.run_batch` as one drained
    micro-batch. :meth:`generate_vanilla` runs the same engines on
    ``config.ablation("base")``. Engines are built on first use.

    Results are bit-identical to the interpreted path, which remains the
    reference oracle: ``compiled=False`` runs it for every call (then
    :meth:`generate_batch` is the per-seed oracle loop whatever
    ``batched`` says), and ``collect_traces=True`` falls back to it for
    that call, because only the interpreted hooks record traces.

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
        compiled: bool = True,
    ) -> None:
        self.model = model
        self.config = config
        self.threshold_table = threshold_table
        self.activation_bits = activation_bits
        self.collect_masks = collect_masks
        self.compiled = compiled
        self._engines: dict = {}  # (vanilla?, several seeds?) -> engine

    def _engine(self, vanilla: bool, several: bool):
        """The compiled engine for one call shape, built on first use."""
        engine = self._engines.get((vanilla, several))
        if engine is None:
            from repro.exec import CompiledExecutor, ContinuousExecutor

            build = ContinuousExecutor if several else CompiledExecutor
            if vanilla:
                engine = build(self.model, self.config.ablation("base"))
            else:
                engine = build(
                    self.model,
                    self.config,
                    threshold_table=self.threshold_table,
                    activation_bits=self.activation_bits,
                    collect_masks=self.collect_masks,
                )
            self._engines[(vanilla, several)] = engine
        return engine

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        collect_traces: bool = False,
    ) -> GenerationResult:
        """Generate one sample with the configured optimizations."""
        if self.compiled and not collect_traces:
            return self._engine(vanilla=False, several=False).generate(
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
        batched: bool = True,
    ) -> tuple:
        """Generate one sample per seed; returns ``(samples, results)``.

        ``samples`` is a stacked ``(len(seeds), tokens, dim)`` array for
        direct use with the distribution metrics in
        :mod:`repro.workloads.metrics`.

        Several seeds share one denoising loop on the batched engine
        (:meth:`repro.exec.ContinuousExecutor.run_batch`);
        ``batched=False`` runs them one :meth:`generate` at a time
        instead. The per-seed samples and statistics are identical
        either way.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if self.compiled and batched and len(seeds) > 1:
            from repro.serve.request import GenerationRequest

            results = self._engine(vanilla=False, several=True).run_batch([
                GenerationRequest(request_id=i, seed=seed, prompt=prompt,
                                  class_label=class_label)
                for i, seed in enumerate(seeds)
            ])
        else:
            results = [
                self.generate(seed=seed, prompt=prompt, class_label=class_label)
                for seed in seeds
            ]
        samples = np.stack([r.sample for r in results])
        return samples, results

    def generate_vanilla(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> GenerationResult:
        """Reference run with every optimization disabled."""
        if self.compiled:
            return self._engine(vanilla=True, several=False).generate(
                seed=seed, prompt=prompt, class_label=class_label
            )
        pipeline = self.model.make_pipeline()
        diffusion = pipeline.generate(
            seed=seed, prompt=prompt, class_label=class_label
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
    """Per-tensor activation fake-quantization (INT datapath emulation)."""
    ints, scale = quantize_symmetric(x, bits)
    return ints.astype(np.float64) * scale


def _fake_quantize_batched(x: np.ndarray, bits: int) -> np.ndarray:
    """:func:`_fake_quantize` with one scale per request (leading axis)."""
    ints, scales = quantize_symmetric_batched(x, bits)
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    return ints.astype(np.float64) * scales[expand]


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
