"""Fig. 15 — two-step leading-one detection fixes EP's accuracy on DiT.

The paper: EP with plain LOD drops DiT PSNR to 11.8; TS-LOD recovers to
15.6, close to the FFN-Reuse-only 16.0. The reproduction checks the same
ordering (LOD < TS-LOD <= FFN-Reuse-only) and reports the element-level
approximation error of both detectors.
"""

import numpy as np

from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.logdomain import lod_approximate, ts_lod_approximate
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr

from .conftest import emit_result

PAPER_PSNR = {"lod": 11.8, "ts_lod": 15.6, "ffnr_only": 16.0}


def run_psnr(model, vanilla, mode=None, ep=True):
    cfg = ExionConfig.for_model(
        "dit", enable_eager_prediction=ep, lod_mode=mode or "ts_lod"
    )
    out = ExionPipeline(model, cfg).generate(seed=1, class_label=5)
    return psnr(vanilla.sample, out.sample)


def _operand_sample():
    rng = np.random.default_rng(0)
    return rng.integers(-2047, 2048, size=100_000)


@register_bench("fig15_tslod", tags=("figure", "core"))
def build_fig15(ctx):
    model = build_model("dit", seed=0, total_iterations=30)
    vanilla = ExionPipeline(
        model, ExionConfig.for_model("dit")
    ).generate_vanilla(seed=1, class_label=5)

    psnrs = {
        "lod": run_psnr(model, vanilla, "lod"),
        "ts_lod": run_psnr(model, vanilla, "ts_lod"),
        "ffnr_only": run_psnr(model, vanilla, ep=False),
    }

    # Element-level approximation error of the two detectors.
    ints = _operand_sample()
    lod_err = np.abs(lod_approximate(ints) - ints).mean()
    ts_err = np.abs(ts_lod_approximate(ints) - ints).mean()

    result = BenchResult("fig15_tslod", model="dit")
    result.add_series(
        "Fig. 15 — DiT generation quality by prediction method",
        ["method", "PSNR vs vanilla (dB)", "paper"],
        [
            ["EP w/ LOD", f"{psnrs['lod']:.2f}", f"{PAPER_PSNR['lod']}"],
            ["EP w/ TS-LOD", f"{psnrs['ts_lod']:.2f}",
             f"{PAPER_PSNR['ts_lod']}"],
            ["FFN-Reuse only", f"{psnrs['ffnr_only']:.2f}",
             f"{PAPER_PSNR['ffnr_only']}"],
        ],
    )
    result.add_note(
        f"mean |approximation error| per INT12 operand: "
        f"LOD {lod_err:.1f}, TS-LOD {ts_err:.1f} "
        f"({lod_err / ts_err:.1f}x better)"
    )
    for method, value in psnrs.items():
        result.add_metric(
            f"{method}.psnr_db", value, unit="dB", paper=PAPER_PSNR[method],
            direction="higher_better", tolerance=0.15,
        )
    result.add_metric("lod_abs_error", float(lod_err),
                      direction="lower_better", tolerance=0.10)
    result.add_metric("ts_lod_abs_error", float(ts_err),
                      direction="lower_better", tolerance=0.10)
    return result


def test_fig15_ts_lod(bench_ctx):
    result = build_fig15(bench_ctx)
    emit_result(result)

    # Shape: the paper's ordering.
    assert result.value("lod.psnr_db") < result.value("ts_lod.psnr_db")
    assert result.value("ts_lod.psnr_db") <= (
        result.value("ffnr_only.psnr_db") + 0.5
    )
    assert result.value("ts_lod_abs_error") < result.value("lod_abs_error") / 2
