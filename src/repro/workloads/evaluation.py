"""Multi-sample evaluation harness (the Table I protocol).

Generates aligned sample batches (same seeds) under several optimization
configurations and computes the full proxy-metric suite per configuration.
Factored out of the Table I bench so examples, tests and sweeps can reuse
the protocol; the design-space explorer's accuracy objective calls
:func:`evaluate_config` with arbitrary :class:`~repro.core.config.ExionConfig`
points.

Randomness is explicit: every entry point takes ``rng`` (an int seed or a
``numpy.random.Generator``, normalized through
:func:`repro.workloads.generator.as_rng`) and derives the model seed and
per-sample generation seeds from it. There is no hidden ``default_rng``
fallback — same policy as :mod:`repro.workloads.generator` since the
cluster layer landed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import BenchmarkModel, build_model
from repro.workloads.generator import as_rng
from repro.workloads.metrics import (
    fid_proxy,
    inception_score_proxy,
    psnr,
    r_precision_proxy,
)


@dataclass
class MethodResult:
    """Metrics of one optimization configuration over a sample batch."""

    method: str
    psnr_mean: float
    psnr_min: float
    fid_proxy: float
    is_proxy: float
    r_precision: float
    inter_sparsity: float
    intra_sparsity: float
    ffn_ops_reduction: float


@dataclass
class EvaluationReport:
    """All configurations' metrics for one model."""

    model: str
    n_samples: int
    methods: list = field(default_factory=list)

    def method(self, name: str) -> MethodResult:
        for entry in self.methods:
            if entry.method == name:
                return entry
        raise KeyError(name)


#: The Table I configuration ladder.
TABLE1_METHODS = ("vanilla", "ffn_reuse", "ffn_reuse_ep", "ffn_reuse_ep_quant")


def _pipeline_for(model: BenchmarkModel, method: str) -> tuple:
    name = model.spec.name
    if method == "vanilla":
        return ExionPipeline(model, ExionConfig.for_model(name)), True
    if method == "ffn_reuse":
        return (
            ExionPipeline(
                model,
                ExionConfig.for_model(name, enable_eager_prediction=False),
            ),
            False,
        )
    if method == "ffn_reuse_ep":
        return ExionPipeline(model, ExionConfig.for_model(name)), False
    if method == "ffn_reuse_ep_quant":
        return (
            ExionPipeline(
                model, ExionConfig.for_model(name), activation_bits=12
            ),
            False,
        )
    raise ValueError(f"unknown method {method!r}")


def _prompts(n: int) -> list:
    base = [
        "a corgi dog surfing a wave",
        "he jumped over the fence in one smooth motion",
        "an anemone fish swimming through coral",
        "a red bicycle leaning on a brick wall",
        "rain falling on a neon-lit street",
        "a wooden cabin in deep snow",
        "a hummingbird hovering at a flower",
        "city skyline at golden hour",
    ]
    return [base[i % len(base)] for i in range(n)]


def _draw_seeds(rng, n_samples: int) -> tuple:
    """Model seed + per-sample generation seeds from one explicit stream."""
    model_seed = int(rng.integers(2**31))
    sample_seeds = [int(s) for s in rng.integers(2**31, size=n_samples)]
    return model_seed, sample_seeds


def _sample_batch(pipeline, vanilla: bool, seeds: list, prompts: list) -> tuple:
    """Aligned samples (stacked) and the last run's stats."""
    samples = []
    last_stats = None
    for sample_seed, prompt in zip(seeds, prompts):
        if vanilla:
            result = pipeline.generate_vanilla(seed=sample_seed, prompt=prompt)
        else:
            result = pipeline.generate(seed=sample_seed, prompt=prompt)
        samples.append(result.sample)
        last_stats = result.stats
    return np.stack(samples), last_stats


def _conditions(model: BenchmarkModel, prompts: list) -> np.ndarray:
    return np.stack(
        [model.make_pipeline().embed_prompt(p) if model.conditioning
         else np.full((4, 4), i, dtype=float)
         for i, p in enumerate(prompts)]
    )


def _method_metrics(
    method: str,
    reference: np.ndarray,
    batch: np.ndarray,
    stats,
    conditions: np.ndarray,
) -> MethodResult:
    psnrs = [psnr(v, s) for v, s in zip(reference, batch)]
    return MethodResult(
        method=method,
        psnr_mean=float(np.mean(psnrs)),
        psnr_min=float(np.min(psnrs)),
        fid_proxy=fid_proxy(reference, batch),
        is_proxy=inception_score_proxy(batch),
        r_precision=r_precision_proxy(batch, conditions),
        inter_sparsity=stats.ffn_output_sparsity,
        intra_sparsity=stats.attention_output_sparsity,
        ffn_ops_reduction=stats.ffn_ops_reduction,
    )


def evaluate_model(
    name: str, *, rng: Union[int, np.random.Generator]
) -> EvaluationReport:
    """Run the Table I protocol on one benchmark model: every
    :data:`TABLE1_METHODS` rung over six aligned 15-iteration samples."""
    n_samples = 6
    rng = as_rng(rng)
    model_seed, seeds = _draw_seeds(rng, n_samples)
    model = build_model(name, seed=model_seed, total_iterations=15)
    prompts = _prompts(n_samples)

    batches: dict = {}
    stats_by_method: dict = {}
    for method in TABLE1_METHODS:
        pipeline, vanilla = _pipeline_for(model, method)
        batches[method], stats_by_method[method] = _sample_batch(
            pipeline, vanilla, seeds, prompts
        )

    reference = batches["vanilla"]
    conditions = _conditions(model, prompts)

    report = EvaluationReport(model=name, n_samples=n_samples)
    for method in TABLE1_METHODS:
        report.methods.append(
            _method_metrics(method, reference, batches[method],
                            stats_by_method[method], conditions)
        )
    return report


def evaluate_config(
    name: str,
    config: ExionConfig,
    n_samples: int = 2,
    iterations: Optional[int] = 15,
    label: str = "custom",
    *,
    rng: Union[int, np.random.Generator],
) -> MethodResult:
    """Score one arbitrary configuration against its vanilla reference.

    The generalization of :func:`evaluate_model` the explorer's accuracy
    objective uses: instead of the named Table I ladder, any
    :class:`~repro.core.config.ExionConfig` point is evaluated over an
    aligned batch (same model seed, same generation seeds as the vanilla
    reference drawn from ``rng``).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for distribution metrics")
    rng = as_rng(rng)
    model_seed, seeds = _draw_seeds(rng, n_samples)
    model = build_model(name, seed=model_seed, total_iterations=iterations)
    prompts = _prompts(n_samples)

    vanilla_pipeline = ExionPipeline(model, ExionConfig.for_model(name))
    reference, _ = _sample_batch(vanilla_pipeline, True, seeds, prompts)
    pipeline = ExionPipeline(model, config)
    batch, stats = _sample_batch(pipeline, False, seeds, prompts)
    return _method_metrics(label, reference, batch, stats,
                           _conditions(model, prompts))
