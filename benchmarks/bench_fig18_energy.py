"""Fig. 18 — energy-efficiency comparison versus edge and server GPUs.

Reproduces both panels with the full ablation ladder (Base / EP / FFNR /
All) at batch sizes one and eight:

- (a) EXION4 versus the Jetson Orin Nano on the edge-deployable models
  (paper gains: 196.9-4668.2x for the All configuration, batch 1);
- (b) EXION24 versus the RTX 6000 Ada on all seven models
  (paper gains: 45.1-3067.6x).
"""

from repro.baselines.gpu import GPUModel
from repro.baselines.specs import EDGE_GPU, SERVER_GPU
from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.workloads.specs import BENCHMARK_ORDER, get_spec

from .conftest import emit_result

EDGE_MODELS = ("mld", "mdm", "edge", "make_an_audio")
ABLATIONS = (
    ("Base", False, False),
    ("EP", False, True),
    ("FFNR", True, False),
    ("All", True, True),
)

HEADERS = ["model", "Base", "EP", "FFNR", "All", "GPU TOPS/W"]


def efficiency_rows(accelerator, gpu_model, models, profiles, batch):
    rows = []
    gains_all = {}
    for name in models:
        spec = get_spec(name)
        gpu = gpu_model.simulate(spec, batch=batch)
        cells = [spec.display_name]
        for label, ffnr, ep in ABLATIONS:
            report = accelerator.simulate(
                spec, profiles[name], ExionConfig.for_model(name, ffnr, ep),
                batch=batch,
            )
            gain = report.tops_per_watt / gpu.tops_per_watt
            cells.append(f"{gain:.0f}x")
            if label == "All":
                gains_all[name] = gain
        cells.append(f"{gpu.tops_per_watt:.4f}")
        rows.append(cells)
    return rows, gains_all


def _build_panel(result, accelerator, gpu, models, profiles, title_fmt):
    for batch in (1, 8):
        rows, gains = efficiency_rows(accelerator, gpu, models, profiles,
                                      batch)
        result.add_series(title_fmt.format(batch=batch), HEADERS, rows)
        for name, gain in gains.items():
            result.add_metric(
                f"b{batch}.{name}.gain_all", gain, unit="x",
                direction="higher_better", tolerance=0.15,
            )
    return result


@register_bench("fig18a_edge_efficiency", tags=("figure", "hw"))
def build_fig18a(ctx):
    result = BenchResult("fig18a_edge_efficiency", model="edge-set")
    return _build_panel(
        result, ExionAccelerator.exion4(), GPUModel(EDGE_GPU),
        EDGE_MODELS, ctx.profiles,
        ("Fig. 18 (a) — energy-efficiency gain vs edge GPU, "
         "batch={batch} (paper All-range 196.9-4668.2x @ b1)"),
    )


@register_bench("fig18b_server_efficiency", tags=("figure", "hw"))
def build_fig18b(ctx):
    result = BenchResult("fig18b_server_efficiency", model="all")
    return _build_panel(
        result, ExionAccelerator.exion24(), GPUModel(SERVER_GPU),
        BENCHMARK_ORDER, ctx.profiles,
        ("Fig. 18 (b) — energy-efficiency gain vs server GPU, "
         "batch={batch} (paper All-range 45.1-3067.6x @ b1)"),
    )


def test_fig18a_edge(bench_ctx):
    result = build_fig18a(bench_ctx)
    emit_result(result)
    for batch in (1, 8):
        for name in EDGE_MODELS:
            gain = result.value(f"b{batch}.{name}.gain_all")
            assert gain > 5.0, (name, batch, gain)


def test_fig18b_server(bench_ctx):
    result = build_fig18b(bench_ctx)
    emit_result(result)
    for batch in (1, 8):
        gains = {
            name: result.value(f"b{batch}.{name}.gain_all")
            for name in BENCHMARK_ORDER
        }
        for name, gain in gains.items():
            assert gain > 5.0, (name, batch, gain)
        # ResBlock models gain least (paper: Make-an-Audio / SD dip).
        assert gains["stable_diffusion"] < gains["mdm"]
        assert gains["mld"] == max(gains.values())
