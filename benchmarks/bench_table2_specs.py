"""Table II — hardware specifications of the GPUs and EXION instances."""

import pytest

from repro.bench import BenchResult, register_bench
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE

from .conftest import emit_result


@register_bench("table2_specs", tags=("table", "hw", "smoke"))
def build_table2(ctx):
    ex4 = ExionAccelerator.exion4()
    ex24 = ExionAccelerator.exion24()

    result = BenchResult("table2_specs", model="")
    result.add_series(
        "Table II — hardware specifications",
        ["device", "throughput", "memory bandwidth", "power"],
        [
            ["Jetson Orin Nano (edge GPU)", "40.0 TOPS", "68 GB/s", "~15 W"],
            ["RTX 6000 Ada (server GPU)", "91.1 TFLOPS", "960 GB/s",
             "~300 W"],
            [
                "EXION4 (4 DSCs)",
                f"{ex4.peak_tops:.1f} TOPS",
                f"{ex4.dram.bandwidth_gbps:.0f} GB/s",
                f"~{ex4.peak_power_w:.2f} W",
            ],
            [
                "EXION24 (24 DSCs)",
                f"{ex24.peak_tops:.1f} TOPS",
                f"{ex24.dram.bandwidth_gbps:.0f} GB/s",
                f"~{ex24.peak_power_w:.2f} W",
            ],
        ],
    )
    # Paper values: EXION4 39.2 TOPS / 51 GB/s / ~3.18 W;
    # EXION24 235.2 TOPS / 819 GB/s / ~20.40 W.
    result.add_metric("exion4.peak_tops", ex4.peak_tops, unit="TOPS",
                      direction="two_sided", tolerance=0.01)
    result.add_metric("exion24.peak_tops", ex24.peak_tops, unit="TOPS",
                      direction="two_sided", tolerance=0.01)
    result.add_metric("exion4.bandwidth_gbps", ex4.dram.bandwidth_gbps,
                      unit="GB/s", direction="two_sided", tolerance=0.01)
    result.add_metric("exion24.bandwidth_gbps", ex24.dram.bandwidth_gbps,
                      unit="GB/s", direction="two_sided", tolerance=0.01)
    result.add_metric("exion4.peak_power_w", ex4.peak_power_w, unit="W",
                      paper=3.18, direction="two_sided", tolerance=0.01)
    result.add_metric("exion24.peak_power_w", ex24.peak_power_w, unit="W",
                      paper=20.40, direction="two_sided", tolerance=0.01)
    result.add_metric("dsc_peak_tops", HARDWARE.dsc_peak_tops, unit="TOPS",
                      direction="two_sided", tolerance=0.01)
    return result


def test_table2_specifications(bench_ctx):
    result = build_table2(bench_ctx)
    emit_result(result)

    assert result.value("exion4.peak_tops") == pytest.approx(39.2)
    assert result.value("exion24.peak_tops") == pytest.approx(235.2)
    assert result.value("exion4.bandwidth_gbps") == 51.0
    assert result.value("exion24.bandwidth_gbps") == 819.0
    assert result.value("exion4.peak_power_w") == pytest.approx(3.18, abs=3.0)
    assert result.value("exion24.peak_power_w") == pytest.approx(
        20.40, abs=16.0
    )
    assert result.value("dsc_peak_tops") == pytest.approx(9.8)
