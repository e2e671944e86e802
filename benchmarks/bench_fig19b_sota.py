"""Fig. 19 (b) — EXION42 versus Cambricon-D over an A100.

Paper: on Stable Diffusion (conv-heavy) Cambricon-D's differential
acceleration wins slightly (7.9x vs 7.0x); on DiT (transformer-only)
EXION's output-sparsity exploitation wins clearly (5.2x vs 3.3x).
"""

from repro.baselines.cambricon_d import CambriconDModel
from repro.baselines.gpu import GPUModel
from repro.baselines.specs import A100
from repro.bench import BenchResult, register_bench
from repro.hw.accelerator import ExionAccelerator
from repro.workloads.specs import get_spec

from .conftest import emit_result

PAPER = {
    "stable_diffusion": {"cambricon_d": 7.9, "exion42": 7.0},
    "dit": {"cambricon_d": 3.3, "exion42": 5.2},
}


@register_bench("fig19b_sota", tags=("figure", "hw", "baselines"))
def build_fig19b(ctx):
    gpu = GPUModel(A100)
    cd = CambriconDModel()
    ex42 = ExionAccelerator.exion42()

    result = BenchResult("fig19b_sota", model="stable_diffusion,dit")
    rows = []
    for name, paper in PAPER.items():
        spec = get_spec(name)
        gpu_latency = gpu.simulate(spec).latency_s
        cd_speedup = cd.simulate(spec).speedup_vs_gpu
        ex_speedup = gpu_latency / ex42.simulate(
            spec, ctx.profiles[name]
        ).latency_s
        result.add_metric(
            f"{name}.cambricon_d_speedup", cd_speedup, unit="x",
            paper=paper["cambricon_d"], direction="higher_better",
            tolerance=0.15,
        )
        result.add_metric(
            f"{name}.exion42_speedup", ex_speedup, unit="x",
            paper=paper["exion42"], direction="higher_better",
            tolerance=0.15,
        )
        rows.append(
            [
                spec.display_name,
                "1.0x",
                f"{cd_speedup:.1f}x (paper {paper['cambricon_d']}x)",
                f"{ex_speedup:.1f}x (paper {paper['exion42']}x)",
            ]
        )
    result.add_series(
        "Fig. 19 (b) — speedup over NVIDIA A100, batch=1",
        ["model", "A100", "Cambricon-D", "EXION42_All"],
        rows,
    )
    return result


def test_fig19b_sota_comparison(bench_ctx):
    result = build_fig19b(bench_ctx)
    emit_result(result)

    # Shape: the crossover. Cambricon-D leads on SD, EXION leads on DiT.
    assert result.value("stable_diffusion.cambricon_d_speedup") > (
        result.value("stable_diffusion.exion42_speedup")
    )
    assert result.value("dit.exion42_speedup") > (
        result.value("dit.cambricon_d_speedup")
    )
