"""Ablation — sweeping the FFN-Reuse period N on DiT.

The paper fixes N per model (Table I) after empirical search. This sweep
shows the trade-off that search navigates: larger N skips more FFN work
but drifts further from the vanilla output.

The sweep runs through the design-space exploration engine
(:mod:`repro.explore`): the N axis is a one-dimensional
:class:`~repro.explore.space.SearchSpace` walked by
:class:`~repro.explore.GridSearch`, with metrics/baseline values
unchanged from the pre-engine hand-rolled loop. N=0 reproduces vanilla
exactly (infinite PSNR); because engine objectives must stay finite for
the canonical report, the evaluator clamps PSNR at
:data:`repro.explore.objectives.PSNR_CAP_DB` and carries exactness as
its own objective.
"""

import math
from dataclasses import replace
from functools import lru_cache

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.explore import (
    Categorical,
    ExploreRunner,
    GridSearch,
    Objective,
    SearchSpace,
)
from repro.explore.objectives import PSNR_CAP_DB
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr

from .conftest import emit_result

SWEEP_N = (0, 1, 2, 4, 8)

SWEEP_SPACE = SearchSpace([Categorical("n", SWEEP_N)])

SWEEP_OBJECTIVES = (
    Objective("ops_reduction", "higher_better"),
    Objective("psnr_db", "higher_better", "dB"),
    Objective("exact", "higher_better"),
)


@lru_cache(maxsize=1)
def _model_and_vanilla():
    """One model build + vanilla reference, shared by every sweep point
    (the model is read-only across pipelines)."""
    model = build_model("dit", seed=0, total_iterations=24)
    vanilla = ExionPipeline(
        model, ExionConfig.for_model("dit")
    ).generate_vanilla(seed=1, class_label=5)
    return model, vanilla


def sweep_point(model, vanilla, n):
    cfg = ExionConfig.for_model("dit", enable_eager_prediction=False)
    cfg = replace(cfg, sparse_iters_n=n)
    result = ExionPipeline(model, cfg).generate(seed=1, class_label=5)
    return {
        "n": n,
        "psnr": psnr(vanilla.sample, result.sample),
        "ops_reduction": result.stats.ffn_ops_reduction,
    }


def evaluate_n_point(point):
    """Engine evaluator: one N value to its (finite) objective values."""
    model, vanilla = _model_and_vanilla()
    cell = sweep_point(model, vanilla, point["n"])
    exact = not math.isfinite(cell["psnr"])
    return {
        "ops_reduction": cell["ops_reduction"],
        "psnr_db": PSNR_CAP_DB if exact else cell["psnr"],
        "exact": 1.0 if exact else 0.0,
    }


@register_bench("ablation_n_sweep", tags=("ablation", "core"))
def build_n_sweep(ctx):
    runner = ExploreRunner(
        SWEEP_SPACE,
        GridSearch(),
        evaluate_n_point,
        objectives=SWEEP_OBJECTIVES,
        seed=0,
    )
    points = [
        {
            "n": e["point"]["n"],
            "ops_reduction": e["objectives"]["ops_reduction"],
            "psnr": (
                float("inf") if e["objectives"]["exact"]
                else e["objectives"]["psnr_db"]
            ),
        }
        for e in runner.run().evaluations
    ]
    result = BenchResult("ablation_n_sweep", model="dit")
    result.add_series(
        "Ablation — FFN-Reuse period N on DiT (paper uses N=2)",
        ["N (sparse iters)", "FFN ops reduction", "PSNR vs vanilla"],
        [
            [p["n"], percent(p["ops_reduction"]), f"{p['psnr']:.2f} dB"]
            for p in points
        ],
    )
    for p in points:
        result.add_metric(
            f"n{p['n']}.ops_reduction", p["ops_reduction"],
            direction="higher_better", tolerance=0.10,
        )
        # N=0 reproduces vanilla exactly: PSNR is infinite, which the
        # schema (finite metrics only) records as an exactness flag.
        if math.isfinite(p["psnr"]):
            result.add_metric(
                f"n{p['n']}.psnr_db", p["psnr"], unit="dB",
                direction="higher_better", tolerance=0.15,
            )
    result.add_metric(
        "n0_exact", 1.0 if math.isinf(points[0]["psnr"]) else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    return result


def test_ablation_n_sweep(bench_ctx):
    result = build_n_sweep(bench_ctx)
    emit_result(result)

    # N=0 is exact (all iterations dense).
    assert result.value("n0.ops_reduction") == 0.0
    assert result.value("n0_exact") == 1.0
    # Ops reduction grows monotonically with N.
    reductions = [result.value(f"n{n}.ops_reduction") for n in SWEEP_N]
    assert reductions == sorted(reductions)
    # Accuracy degrades as N grows (weak monotonicity with tolerance).
    assert result.value(f"n{SWEEP_N[-1]}.psnr_db") <= (
        result.value("n1.psnr_db") + 1.0
    )
