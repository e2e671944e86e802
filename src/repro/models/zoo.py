"""Benchmark model zoo: builds runnable networks from the specs.

The seven ``BENCHMARK_MODELS`` mirror the paper's Table I workloads at
simulation scale. Weights are random but deterministic per seed; the
sparsity phenomena EXION exploits (temporal redundancy across denoising
iterations, concentrated attention rows) emerge from the denoising
dynamics, not from training.

Beyond Table I, :data:`repro.workloads.specs.EXTENDED_ORDER` registers
extra scenarios (a video-DiT spec with temporal attention, an SDXL-class
UNet). :func:`build_model` builds them like any other name — the lowering
pipeline (:mod:`repro.program`) is what makes every backend price them
with zero per-model code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.conditioning import ConditioningEncoder, make_conditioning
from repro.models.network import DiffusionNetwork, NetworkType
from repro.models.pipeline import DiffusionPipeline
from repro.models.scheduler import DDIMScheduler
from repro.workloads.specs import BENCHMARK_ORDER, ModelSpec, get_spec

BENCHMARK_MODELS = BENCHMARK_ORDER


@dataclass
class BenchmarkModel:
    """A runnable benchmark model: spec, network, scheduler, conditioning."""

    spec: ModelSpec
    network: DiffusionNetwork
    scheduler: DDIMScheduler
    conditioning: Optional[ConditioningEncoder]

    @property
    def name(self) -> str:
        return self.spec.name

    def make_pipeline(self) -> DiffusionPipeline:
        """Create an inference pipeline at the spec's iteration count."""
        return DiffusionPipeline(
            self.network,
            self.scheduler,
            num_inference_steps=self.spec.total_iterations,
            conditioning=self.conditioning,
        )


def build_model(
    name: str,
    seed: int = 0,
    total_iterations: Optional[int] = None,
    depth: Optional[int] = None,
) -> BenchmarkModel:
    """Build a benchmark model by name (see ``BENCHMARK_MODELS``).

    ``total_iterations`` and ``depth`` override the spec for faster tests.
    """
    for arg, value in (("total_iterations", total_iterations), ("depth", depth)):
        if value is not None and value < 1:
            raise ValueError(f"{arg} must be >= 1, got {value}")
    spec = get_spec(name)
    if total_iterations is not None or depth is not None:
        spec = _override(spec, total_iterations=total_iterations, depth=depth)
    rng = np.random.default_rng(seed)
    network = DiffusionNetwork(
        NetworkType(spec.network_type),
        tokens=spec.tokens,
        dim=spec.dim,
        num_heads=spec.num_heads,
        depth=spec.depth,
        ffn_mult=spec.ffn_mult,
        rng=rng,
        activation=spec.activation,
        context_dim=spec.context_dim,
        use_adaln=spec.use_adaln,
    )
    scheduler = DDIMScheduler()
    conditioning = make_conditioning(spec.context_dim, seed=seed + 1)
    return BenchmarkModel(
        spec=spec, network=network, scheduler=scheduler, conditioning=conditioning
    )


def _override(
    spec: ModelSpec,
    total_iterations: Optional[int] = None,
    depth: Optional[int] = None,
) -> ModelSpec:
    from dataclasses import replace

    changes = {}
    if total_iterations is not None:
        changes["total_iterations"] = total_iterations
    if depth is not None:
        changes["depth"] = depth
    return replace(spec, **changes)


def model_cache_key(
    name: str,
    seed: int = 0,
    total_iterations: Optional[int] = None,
    depth: Optional[int] = None,
) -> tuple:
    """Hashable identity of a :func:`build_model` call.

    Two calls with the same key build behaviorally identical models
    (weights are deterministic per seed), which is what lets the serving
    layer's :class:`repro.serve.cache.ThresholdCache` reuse built models
    and calibrated threshold tables across requests. The name is validated
    eagerly, so a bad model name fails at server construction, not
    mid-batch.
    """
    get_spec(name)  # raises KeyError for unknown models
    return (name, seed, total_iterations, depth)
