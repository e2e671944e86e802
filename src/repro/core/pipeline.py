"""End-to-end EXION inference over a benchmark model.

:class:`ExionPipeline` is the one request-level front door. It runs the
plan-compiled engine of :mod:`repro.exec` by default and also holds the
interpreted stack it is byte-identical to — the FFN-Reuse manager and
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
from repro.models.transformer import Executors
from repro.models.zoo import BenchmarkModel


@dataclass
class GenerationResult:
    """Sample plus the sparsity/op statistics of the run."""

    sample: np.ndarray
    stats: RunStats


class ExionPipeline:
    """Runs a benchmark model with EXION's software optimizations.

    Generation runs on the plan-compiled engine: the phase schedule,
    log-domain weight operands and timestep tables are precomputed once
    and each iteration replays pure gather/scatter kernels. Every call —
    :meth:`generate`, :meth:`generate_vanilla` and :meth:`generate_batch`
    with one seed or many — is one drained micro-batch of
    :meth:`repro.exec.ContinuousExecutor.run_batch`, on one engine for
    the configured run and one for ``config.ablation("base")``, each
    built on first use.

    Results are bit-identical to the interpreted path, which remains the
    reference oracle: ``compiled=False`` runs it for every call (then
    :meth:`generate_batch` is the per-seed oracle loop whatever
    ``batched`` says). Its executors and quantizing wrappers return each
    layer's output alone and count into the run's :class:`RunStats`.

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
        self.activation_bits = _check_activation_bits(activation_bits)
        self.collect_masks = collect_masks
        self.compiled = compiled
        self._engines: dict = {}  # vanilla? -> ContinuousExecutor

    def _run_compiled(
        self,
        vanilla: bool,
        seeds: list,
        prompt: Optional[str],
        class_label: Optional[int],
    ) -> list:
        """One result per seed from the compiled engine, built on first
        use."""
        from repro.exec import ContinuousExecutor
        from repro.serve.request import GenerationRequest

        engine = self._engines.get(vanilla)
        if engine is None:
            if vanilla:
                engine = ContinuousExecutor(
                    self.model, self.config.ablation("base")
                )
            else:
                engine = ContinuousExecutor(
                    self.model,
                    self.config,
                    threshold_table=self.threshold_table,
                    activation_bits=self.activation_bits,
                    collect_masks=self.collect_masks,
                )
            self._engines[vanilla] = engine
        return engine.run_batch([
            GenerationRequest(request_id=i, seed=seed, prompt=prompt,
                              class_label=class_label)
            for i, seed in enumerate(seeds)
        ])

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> GenerationResult:
        """Generate one sample with the configured optimizations."""
        if self.compiled:
            return self._run_compiled(False, [seed], prompt, class_label)[0]
        stats = RunStats(collect_masks=self.collect_masks)
        pipeline = self.model.make_pipeline()

        ffn_reuse: Optional[FFNReuse] = None
        if self.config.enable_ffn_reuse:
            ffn_reuse = FFNReuse(
                self.config,
                num_blocks=self.model.network.num_transformer_blocks,
                stats=stats,
                threshold_table=self.threshold_table,
            )
        predictor: Optional[EagerPredictor] = None
        if self.config.enable_eager_prediction:
            predictor = EagerPredictor(self.config, stats=stats)

        provider = self._make_provider(ffn_reuse, predictor)
        hook = None
        if ffn_reuse is not None:
            hook = lambda iteration, t: ffn_reuse.begin_iteration(iteration)  # noqa: E731

        sample = pipeline.generate(
            seed=seed,
            prompt=prompt,
            class_label=class_label,
            executor_provider=provider,
            iteration_start_hook=hook,
        )
        return GenerationResult(sample=sample, stats=stats)

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

        The seeds share one denoising loop on the engine
        (:meth:`repro.exec.ContinuousExecutor.run_batch`);
        ``batched=False`` runs them one :meth:`generate` at a time
        instead. The per-seed samples and statistics are identical
        either way.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if self.compiled and batched:
            results = self._run_compiled(False, seeds, prompt, class_label)
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
            return self._run_compiled(True, [seed], prompt, class_label)[0]
        sample = self.model.make_pipeline().generate(
            seed=seed, prompt=prompt, class_label=class_label
        )
        return GenerationResult(sample=sample, stats=RunStats())

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


def _check_activation_bits(bits: Optional[int]) -> Optional[int]:
    """``bits`` when it is None or an int in the quantizer's [2, 32]."""
    if bits is None or isinstance(bits, (int, np.integer)) and 2 <= bits <= 32:
        return bits
    raise ValueError(f"activation_bits must be an int in [2, 32], got {bits!r}")


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
