"""Reproduction of EXION (HPCA 2025).

EXION is a software-hardware co-designed accelerator for diffusion-model
inference. This package reimplements, in pure Python/numpy:

- the diffusion-model substrate the paper evaluates on (``repro.models``),
- the paper's primary contribution: the FFN-Reuse and eager-prediction
  sparsity algorithms plus the ConMerge data-compaction mechanism
  (``repro.core``),
- a cycle-level simulator of the EXION hardware (``repro.hw``),
- GPU and Cambricon-D baselines (``repro.baselines``),
- benchmark workloads and analysis helpers (``repro.workloads``,
  ``repro.analysis``),
- a batched multi-request serving layer that coalesces concurrent
  generation requests into vectorized micro-batches with cross-request
  model/threshold caching (``repro.serve``),
- a trace-driven multi-accelerator fleet simulator layering open-loop
  traffic, routing policies and SLO accounting over the serving and
  hardware layers (``repro.cluster``),
- a parallel design-space exploration engine searching hardware,
  ablation and fleet-scenario knobs with Pareto-frontier reporting
  (``repro.explore``),
- the unified iteration-program IR: one lowering from model spec +
  ablation config to the per-iteration work schedule that every backend
  above prices (``repro.program``).

Quickstart::

    from repro import build_model, ExionPipeline, ExionConfig

    model = build_model("dit", seed=0)
    pipeline = ExionPipeline(model, ExionConfig.for_model("dit"))
    result = pipeline.generate(seed=1)
    print(result.stats.ffn_output_sparsity)
    samples, results = pipeline.generate_batch(range(8))

``ExionPipeline`` is the one generation front door: it runs the compiled
engine of ``repro.exec`` (a single seed is a batch of one),
byte-identical to the interpreted oracle that ``compiled=False``
selects.

Serving quickstart::

    from repro import ContinuousPolicy, ContinuousServer

    server = ContinuousServer("dit", policy=ContinuousPolicy(max_batch_size=8))
    ids = [server.submit(seed=s, class_label=207) for s in range(8)]
    results = server.run_until_drained()

Fleet quickstart (see ``repro.cluster`` for the full tour)::

    from repro.cluster import (
        PoissonProcess, build_replicas, make_router, simulate_cluster,
        synthesize_trace,
    )

    trace = synthesize_trace(PoissonProcess(rate_rps=200.0), 64, rng=0)
    report = simulate_cluster(trace, replicas=build_replicas(4),
                              router=make_router("jsq"))
"""

from repro._version import __version__
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline, GenerationResult
from repro.models.zoo import BENCHMARK_MODELS, build_model
from repro.serve import ContinuousPolicy, ContinuousServer

__all__ = [
    "BENCHMARK_MODELS",
    "ContinuousPolicy",
    "ContinuousServer",
    "ExionConfig",
    "ExionPipeline",
    "GenerationResult",
    "__version__",
    "build_model",
]
