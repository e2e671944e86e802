"""Batched EXION generation: one denoising loop, many requests.

:class:`BatchedPipeline` is the request-level front of the batched engine,
:class:`repro.exec.ContinuousExecutor`. All requests of a micro-batch
share the model, the ExionConfig and the timestep trajectory (they differ
only in seed and conditioning), so every network operation — norms,
projections, attention, FFN — runs once per iteration on a
``(batch, tokens, dim)`` stack instead of once per request. The pipeline
holds no numeric code of its own: it builds the executor once and hands
each micro-batch to :meth:`ContinuousExecutor.run_batch
<repro.exec.ContinuousExecutor.run_batch>`.

Per-request semantics are preserved exactly:

- each request draws its own initial noise and (for stochastic samplers)
  step noise from its own seed-keyed generator;
- FFN-Reuse thresholds and eager-prediction quantization scales are
  resolved per request;
- every request gets its own :class:`~repro.core.sparsity.RunStats`.

Every request of a batch computes bit-for-bit what a sequential
``ExionPipeline.generate()`` computes; ``tests/serve/test_batched.py`` and
the throughput benchmark (``benchmarks/bench_serve_throughput.py``) check
this equivalence, the latter together with the batching speedup.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import ExionConfig
from repro.core.pipeline import GenerationResult
from repro.core.thresholds import ThresholdTable
from repro.models.zoo import BenchmarkModel
from repro.serve.request import GenerationRequest


class BatchedPipeline:
    """Serves micro-batches of generation requests on one model.

    Construction mirrors :class:`repro.core.pipeline.ExionPipeline`; the
    entry point is :meth:`run_batch`, which takes
    :class:`~repro.serve.request.GenerationRequest` records and returns one
    :class:`~repro.core.pipeline.GenerationResult` per request, in order.

    The batched path does not collect per-iteration traces or latents
    (those are accuracy-analysis features of the sequential pipeline);
    everything else — samples, statistics, optional bitmask collection —
    matches sequential generation request for request.
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
        self.activation_bits = activation_bits
        self.collect_masks = collect_masks
        self._engine = None

    def _executor(self):
        """The batched engine, built once per pipeline."""
        if self._engine is None:
            # Local import: repro.exec imports repro.serve.request, whose
            # package init imports this module.
            from repro.exec import ContinuousExecutor

            self._engine = ContinuousExecutor(
                self.model,
                self.config,
                threshold_table=self.threshold_table,
                activation_bits=self.activation_bits,
                collect_masks=self.collect_masks,
            )
        return self._engine

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> GenerationResult:
        """Run a batch of one; equivalent to ``ExionPipeline.generate()``."""
        request = GenerationRequest(
            request_id=0, seed=seed, prompt=prompt, class_label=class_label
        )
        return self.run_batch([request])[0]

    def generate_batch(
        self,
        seeds: Sequence[int],
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
    ) -> tuple:
        """One sample per seed, batched; returns ``(samples, results)``.

        Drop-in for ``ExionPipeline.generate_batch()``: ``samples`` is the
        stacked ``(len(seeds), tokens, dim)`` array.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        requests = [
            GenerationRequest(request_id=i, seed=seed, prompt=prompt,
                              class_label=class_label)
            for i, seed in enumerate(seeds)
        ]
        results = self.run_batch(requests)
        samples = np.stack([r.sample for r in results])
        return samples, results

    def run_batch(
        self, requests: Sequence[GenerationRequest]
    ) -> list[GenerationResult]:
        """Generate one sample per request through a shared batched loop."""
        return self._executor().run_batch(requests)
