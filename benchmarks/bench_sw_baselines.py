"""Related-work software baselines versus FFN-Reuse (paper Section VI).

The paper positions EXION against two GPU-software acceleration families:

- **fast sampling** ([19], [36], [39]) — fewer iterations, at accuracy
  cost ("without retraining, the reduction is limited in achieving
  acceptable sampling quality");
- **Delta-DiT** ([4]) — block-output caching across iterations, coarse
  grained where FFN-Reuse is element-grained.

This bench runs all three on DiT at matched/stated compute savings and
reports accuracy against the vanilla 50-step reference.
"""

from repro.analysis.report import percent
from repro.baselines.delta_dit import DeltaDiTPipeline
from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.pipeline import DiffusionPipeline
from repro.models.scheduler import DDIMScheduler, DPMSolverPP2MScheduler
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr

from .conftest import emit_result

ITERATIONS = 48


@register_bench("sw_baselines", tags=("baselines", "core"))
def build_sw_baselines(ctx):
    model = build_model("dit", seed=0, total_iterations=ITERATIONS)
    vanilla = model.make_pipeline().generate(seed=1, class_label=5)

    result = BenchResult("sw_baselines", model="dit")
    rows = []

    # Fast sampling: run 1/4 of the iterations (75% compute cut).
    few = ITERATIONS // 4
    for label, key, scheduler in (
        ("DDIM @ 12 steps", "ddim", DDIMScheduler()),
        ("DPM-Solver++(2M) @ 12 steps", "dpm_solver", DPMSolverPP2MScheduler()),
    ):
        sampled = DiffusionPipeline(
            model.network, scheduler, few, model.conditioning
        ).generate(seed=1, class_label=5)
        value = psnr(vanilla.sample, sampled.sample)
        result.add_metric(f"{key}.psnr_db", value, unit="dB",
                          direction="higher_better", tolerance=0.15)
        rows.append([label, percent(0.75), f"{value:.2f} dB"])

    # Delta-DiT block caching.
    delta = DeltaDiTPipeline(model, cache_interval=2).generate(
        seed=1, class_label=5
    )
    delta_psnr = psnr(vanilla.sample, delta.sample)
    result.add_metric("delta_dit.psnr_db", delta_psnr, unit="dB",
                      direction="higher_better", tolerance=0.15)
    result.add_metric("delta_dit.ops_reduction", delta.ops_reduction,
                      direction="higher_better", tolerance=0.10)
    rows.append([
        "Delta-DiT (cache middle blocks, N=2)",
        percent(delta.ops_reduction),
        f"{delta_psnr:.2f} dB",
    ])

    # FFN-Reuse at the Table I configuration.
    cfg = ExionConfig.for_model("dit", enable_eager_prediction=False)
    ffnr = ExionPipeline(model, cfg).generate(seed=1, class_label=5)
    ffnr_psnr = psnr(vanilla.sample, ffnr.sample)
    result.add_metric("ffn_reuse.psnr_db", ffnr_psnr, unit="dB",
                      direction="higher_better", tolerance=0.15)
    result.add_metric("ffn_reuse.ops_reduction",
                      ffnr.stats.ffn_ops_reduction,
                      direction="higher_better", tolerance=0.10)
    rows.append([
        "FFN-Reuse (EXION, N=2)",
        percent(ffnr.stats.ffn_ops_reduction) + " of FFN ops",
        f"{ffnr_psnr:.2f} dB",
    ])

    result.add_series(
        "Software baselines vs FFN-Reuse on DiT",
        ["method", "compute cut", "PSNR vs 48-step vanilla"],
        rows,
    )
    return result


def test_sw_baselines_vs_ffn_reuse(bench_ctx):
    result = build_sw_baselines(bench_ctx)
    emit_result(result)

    # FFN-Reuse stays at least as accurate as block caching.
    assert result.value("ffn_reuse.psnr_db") >= (
        result.value("delta_dit.psnr_db") - 1.0
    )
    # All methods stay finite / correlated.
    for key in ("ddim", "dpm_solver", "delta_dit", "ffn_reuse"):
        assert result.value(f"{key}.psnr_db") > 3.0
