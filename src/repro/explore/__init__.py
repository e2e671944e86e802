"""Parallel design-space exploration and autotuning with Pareto reporting.

The paper's headline results are points in a co-design space — Table II
hardware configurations, FFN-Reuse on/off, eager-prediction sparsity
targets, log-domain quantization settings. This package turns every
existing layer into a searchable space and makes "which config wins?" a
one-command answer:

- :mod:`repro.explore.space` — typed parameter spaces (categorical /
  int / float / log-scale) over hardware knobs (DSC count, memory
  bandwidth, GSC capacity), algorithm ablations, and fleet scenarios,
  with canonical byte-stable point encodings;
- :mod:`repro.explore.strategies` — grid and seeded random search,
  each proposing one batch of points;
- :mod:`repro.explore.objectives` — latency/energy/accuracy/SLO
  objectives computed through :mod:`repro.hw`, the PSNR-vs-vanilla
  score of :mod:`repro.workloads.evaluation` and :mod:`repro.cluster`, plus
  Pareto-frontier extraction (dominated-point pruning and knee-point
  selection);
- :mod:`repro.explore.runner` — one ``evaluator(point) -> objectives``
  call per point, fanned out over worker processes behind a
  content-addressed on-disk cache (identical points are never
  re-evaluated across sweeps; runs resume for free);
- :mod:`repro.explore.report` — the canonical byte-stable JSON artifact,
  a rendered frontier table, and the projection onto the
  :mod:`repro.bench` schema.

Quickstart::

    from repro.explore import (
        ExploreRunner, PointEvaluator, RandomSearch, default_space,
    )

    runner = ExploreRunner(
        default_space("dit"),
        RandomSearch(budget=16),
        PointEvaluator(iterations=10),
        workers=4,
        cache_dir=".explore_cache",
        seed=0,
    )
    report = runner.run()
    print(report.render())

Everything is deterministic per seed: serial and parallel runs produce
identical frontiers, and a re-run against a warm cache emits the exact
same bytes without recomputing anything. See
``benchmarks/bench_explore_pareto.py`` for the gated smoke sweep and
``python -m repro explore`` for the CLI.
"""

from repro.explore.objectives import (
    DEFAULT_OBJECTIVES,
    OBJECTIVES,
    Objective,
    PointEvaluator,
    accelerator_from_point,
    config_from_point,
    get_objective,
    knee_point,
    pareto_front,
    spec_from_point,
)
from repro.explore.report import ExploreReport
from repro.explore.runner import EvaluationRecord, ExploreRunner, RunnerStats
from repro.explore.space import (
    Categorical,
    FloatRange,
    IntRange,
    SearchSpace,
    cluster_space,
    default_space,
    point_id,
    point_key,
    stable_seed,
)
from repro.explore.strategies import GridSearch, RandomSearch

__all__ = [
    "Categorical",
    "DEFAULT_OBJECTIVES",
    "EvaluationRecord",
    "ExploreReport",
    "ExploreRunner",
    "FloatRange",
    "GridSearch",
    "IntRange",
    "OBJECTIVES",
    "Objective",
    "PointEvaluator",
    "RandomSearch",
    "RunnerStats",
    "SearchSpace",
    "accelerator_from_point",
    "cluster_space",
    "config_from_point",
    "default_space",
    "get_objective",
    "knee_point",
    "pareto_front",
    "point_id",
    "point_key",
    "spec_from_point",
    "stable_seed",
]
