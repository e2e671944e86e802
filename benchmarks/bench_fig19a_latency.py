"""Fig. 19 (a) — end-to-end latency versus edge and server GPUs.

Paper speedups for the All configuration: EXION4 43.7-1060.6x over the
edge GPU and EXION24 3.3-365.6x over the server GPU at batch one
(42.6-1090.9x and 3.2-379.3x at batch eight).
"""

from repro.baselines.gpu import GPUModel
from repro.baselines.specs import EDGE_GPU, SERVER_GPU
from repro.bench import BenchResult, register_bench
from repro.hw.accelerator import ExionAccelerator
from repro.workloads.specs import BENCHMARK_ORDER, get_spec

from .conftest import emit_result

EDGE_MODELS = ("mld", "mdm", "edge", "make_an_audio")


def latency_rows(accelerator, gpu_model, models, profiles, batch):
    rows = []
    speedups = {}
    for name in models:
        spec = get_spec(name)
        gpu = gpu_model.simulate(spec, batch=batch)
        report = accelerator.simulate(spec, profiles[name], batch=batch)
        speedup = gpu.latency_s / report.latency_s
        speedups[name] = speedup
        rows.append(
            [
                spec.display_name,
                f"{gpu.latency_s * 1e3:.1f} ms",
                f"{report.latency_s * 1e3:.3f} ms",
                f"{speedup:.1f}x",
            ]
        )
    return rows, speedups


def _build_panel(result, accelerator, gpu, gpu_label, acc_label, models,
                 profiles, title_fmt):
    for batch in (1, 8):
        rows, speedups = latency_rows(accelerator, gpu, models, profiles,
                                      batch)
        result.add_series(
            title_fmt.format(batch=batch),
            ["model", gpu_label, acc_label, "speedup"],
            rows,
        )
        for name, speedup in speedups.items():
            result.add_metric(
                f"b{batch}.{name}.speedup", speedup, unit="x",
                direction="higher_better", tolerance=0.15,
            )
    return result


@register_bench("fig19a_latency_edge", tags=("figure", "hw"))
def build_fig19a_edge(ctx):
    result = BenchResult("fig19a_latency_edge", model="edge-set")
    return _build_panel(
        result, ExionAccelerator.exion4(), GPUModel(EDGE_GPU),
        "edge GPU", "EXION4_All", EDGE_MODELS, ctx.profiles,
        ("Fig. 19 (a) — latency vs edge GPU, batch={batch} "
         "(paper 43.7-1060.6x @ b1)"),
    )


@register_bench("fig19a_latency_server", tags=("figure", "hw"))
def build_fig19a_server(ctx):
    result = BenchResult("fig19a_latency_server", model="all")
    return _build_panel(
        result, ExionAccelerator.exion24(), GPUModel(SERVER_GPU),
        "server GPU", "EXION24_All", BENCHMARK_ORDER, ctx.profiles,
        ("Fig. 19 (a) — latency vs server GPU, batch={batch} "
         "(paper 3.3-365.6x @ b1)"),
    )


def test_fig19a_latency_edge(bench_ctx):
    result = build_fig19a_edge(bench_ctx)
    emit_result(result)
    for batch in (1, 8):
        speedups = {
            name: result.value(f"b{batch}.{name}.speedup")
            for name in EDGE_MODELS
        }
        assert all(s > 1.0 for s in speedups.values())
        if batch == 1:
            assert max(speedups.values()) > 100.0  # MLD-class blowout
            assert speedups["mld"] == max(speedups.values())


def test_fig19a_latency_server(bench_ctx):
    result = build_fig19a_server(bench_ctx)
    emit_result(result)
    for batch in (1, 8):
        speedups = {
            name: result.value(f"b{batch}.{name}.speedup")
            for name in BENCHMARK_ORDER
        }
        assert all(s > 1.0 for s in speedups.values())
        # Large conv-free/conv-heavy split: SD & VC2 gain least.
        small = min(speedups["stable_diffusion"], speedups["videocrafter2"])
        assert small == min(speedups.values())
