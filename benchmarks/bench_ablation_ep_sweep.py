"""Ablation — eager-prediction (top-k, q_th) sweep on DiT.

Table I fixes (q_th, k) per model empirically. This sweep exposes the
trade-off: smaller k (keep less) and smaller q_th (collapse more rows)
increase intra-iteration sparsity at an accuracy cost.

The sweep itself runs through the design-space exploration engine
(:mod:`repro.explore`): the (top-k, q_th) grid is a
:class:`~repro.explore.space.SearchSpace`, the hand-rolled point loop is
:class:`~repro.explore.GridSearch` + :class:`~repro.explore.ExploreRunner`
with a bench-local evaluator, and the metrics/baseline values are
unchanged from the pre-engine sweep.
"""

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
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr

from .conftest import emit_result

SWEEP_TOP_K = (0.8, 0.4, 0.1)
SWEEP_Q_TH = (1e9, 0.5)

#: Grid order is declaration-order-major: top_k outer, q_th inner —
#: the same nesting the original hand-rolled loop used.
SWEEP_SPACE = SearchSpace([
    Categorical("top_k", SWEEP_TOP_K),
    Categorical("q_th", SWEEP_Q_TH),
])

SWEEP_OBJECTIVES = (
    Objective("attn_sparsity", "higher_better"),
    Objective("psnr_db", "higher_better", "dB"),
    Objective("kv_skip_rate", "higher_better"),
)


def _point_key(top_k, q_th):
    q_label = "inf" if q_th > 1e6 else f"{q_th:g}"
    return f"k{top_k:g}_q{q_label}"


@lru_cache(maxsize=1)
def _model_and_vanilla():
    """Shared by every grid cell: the model is deterministic and
    read-only across pipelines, so one build + one vanilla reference
    serve them all."""
    model = build_model("dit", seed=0, total_iterations=18)
    vanilla = ExionPipeline(
        model, ExionConfig.for_model("dit")
    ).generate_vanilla(seed=1, class_label=5)
    return model, vanilla


def run_point(model, vanilla, top_k, q_th):
    cfg = replace(
        ExionConfig.for_model("dit", enable_ffn_reuse=False),
        top_k_ratio=top_k,
        q_threshold=q_th,
    )
    result = ExionPipeline(model, cfg).generate(seed=1, class_label=5)
    return {
        "top_k": top_k,
        "q_th": q_th,
        "sparsity": result.stats.attention_output_sparsity,
        "psnr": psnr(vanilla.sample, result.sample),
        "kv_skip": result.stats.kv_projection_skip_rate,
    }


def evaluate_ep_point(point):
    """Engine evaluator: one grid cell to its objective values."""
    model, vanilla = _model_and_vanilla()
    cell = run_point(model, vanilla, point["top_k"], point["q_th"])
    return {
        "attn_sparsity": cell["sparsity"],
        "psnr_db": cell["psnr"],
        "kv_skip_rate": cell["kv_skip"],
    }


@register_bench("ablation_ep_sweep", tags=("ablation", "core"))
def build_ep_sweep(ctx):
    runner = ExploreRunner(
        SWEEP_SPACE,
        GridSearch(),
        evaluate_ep_point,
        objectives=SWEEP_OBJECTIVES,
        seed=0,
    )
    points = [
        {
            "top_k": e["point"]["top_k"],
            "q_th": e["point"]["q_th"],
            "sparsity": e["objectives"]["attn_sparsity"],
            "psnr": e["objectives"]["psnr_db"],
            "kv_skip": e["objectives"]["kv_skip_rate"],
        }
        for e in runner.run().evaluations
    ]
    result = BenchResult("ablation_ep_sweep", model="dit")
    result.add_series(
        "Ablation — EP (top-k, q_th) sweep on DiT",
        ["top-k", "q_th", "attn sparsity", "KV-proj skip", "PSNR"],
        [
            [
                p["top_k"],
                "inf" if p["q_th"] > 1e6 else p["q_th"],
                percent(p["sparsity"]),
                percent(p["kv_skip"]),
                f"{p['psnr']:.2f} dB",
            ]
            for p in points
        ],
    )
    for p in points:
        key = _point_key(p["top_k"], p["q_th"])
        result.add_metric(f"{key}.attn_sparsity", p["sparsity"],
                          direction="higher_better", tolerance=0.10)
        result.add_metric(f"{key}.psnr_db", p["psnr"], unit="dB",
                          direction="higher_better", tolerance=0.15)
        result.add_metric(f"{key}.kv_skip_rate", p["kv_skip"],
                          direction="higher_better", tolerance=0.15)
    return result


def test_ablation_ep_sweep(bench_ctx):
    result = build_ep_sweep(bench_ctx)
    emit_result(result)

    # Smaller k -> more sparsity (paper II-B: 20-95% across configs).
    no_dominance = [
        (result.value(f"{_point_key(k, 1e9)}.attn_sparsity"),
         result.value(f"{_point_key(k, 1e9)}.psnr_db"))
        for k in SWEEP_TOP_K
    ]
    sparsities = [s for s, _ in no_dominance]
    assert sparsities == sorted(sparsities)
    # Keeping more yields better accuracy.
    assert no_dominance[0][1] >= no_dominance[-1][1] - 0.5
    # Enabling dominance skipping adds sparsity at fixed k.
    for k in SWEEP_TOP_K:
        with_dom = result.value(f"{_point_key(k, 0.5)}.attn_sparsity")
        without = result.value(f"{_point_key(k, 1e9)}.attn_sparsity")
        assert with_dom >= without - 1e-9
