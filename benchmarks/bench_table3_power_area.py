"""Table III — power and area breakdown of one DSC.

The constants reproduce the paper's synthesis results exactly (they seed
the energy model); the bench also reports the *activity-weighted* energy
shares a real DiT run produces, verifying the paper's observation that the
sparsity-handling units (EPRE + CAU) stay below ~18.6% of power.
"""

import pytest

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.hw.accelerator import ExionAccelerator
from repro.hw.energy import (
    DSC_AREA_MM2,
    DSC_POWER_MW,
    TOTAL_DSC_AREA_MM2,
    TOTAL_DSC_POWER_MW,
)
from repro.workloads.specs import get_spec

from .conftest import emit_result


@register_bench("table3_power_area", tags=("table", "hw", "smoke"))
def build_table3(ctx):
    result = BenchResult("table3_power_area", model="dit")
    rows = [
        [component, f"{DSC_AREA_MM2[component]:.2f}",
         f"{DSC_POWER_MW[component]:.2f}"]
        for component in DSC_POWER_MW
    ]
    rows.append(["TOTAL", f"{TOTAL_DSC_AREA_MM2:.2f}",
                 f"{TOTAL_DSC_POWER_MW:.2f}"])
    result.add_series(
        "Table III — single-DSC breakdown (paper synthesis values)",
        ["component", "area [mm^2]", "power [mW] @800MHz, 0.8V"],
        rows,
    )

    # Activity-weighted energy shares from a simulated DiT run.
    report = ExionAccelerator.exion24().simulate(
        get_spec("dit"), ctx.profiles["dit"]
    )
    breakdown = report.energy_breakdown_j
    on_chip = sum(v for k, v in breakdown.items() if k != "dram")
    result.add_series(
        "Activity-weighted on-chip energy (simulated)",
        ["component", "energy share (DiT run, on-chip)"],
        [
            [k, percent(v / on_chip)]
            for k, v in breakdown.items() if k != "dram"
        ],
    )

    result.add_metric("total_dsc_area_mm2", TOTAL_DSC_AREA_MM2, unit="mm^2",
                      paper=4.37, direction="two_sided", tolerance=0.01)
    result.add_metric("total_dsc_power_mw", TOTAL_DSC_POWER_MW, unit="mW",
                      paper=1511.43, direction="two_sided", tolerance=0.01)
    static_share = (DSC_POWER_MW["epre"] + DSC_POWER_MW["cau"]) / sum(
        DSC_POWER_MW.values()
    )
    result.add_metric("sparsity_units_power_share", static_share,
                      paper=0.186, direction="two_sided", tolerance=0.06)
    result.add_metric(
        "cau_area_share", DSC_AREA_MM2["cau"] / TOTAL_DSC_AREA_MM2,
        paper=0.0094, direction="two_sided", tolerance=0.25,
    )
    result.add_metric("exion24_area_mm2", 24 * TOTAL_DSC_AREA_MM2,
                      unit="mm^2", direction="lower_better", tolerance=0.01)
    return result


def test_table3_power_area(bench_ctx):
    result = build_table3(bench_ctx)
    emit_result(result)

    assert result.value("total_dsc_area_mm2") == pytest.approx(4.37, abs=0.01)
    assert result.value("total_dsc_power_mw") == pytest.approx(
        1511.43, abs=0.1
    )
    # Sparsity-handling units' static share (paper V-D: up to 18.6%).
    assert result.value("sparsity_units_power_share") == pytest.approx(
        0.186, abs=0.01
    )
    # CAU is 0.94% of DSC area (paper IV-C).
    assert result.value("cau_area_share") == pytest.approx(0.0094, abs=0.002)
    # EXION24 total area below the server GPU die (152.28 vs 609 mm^2).
    assert result.value("exion24_area_mm2") < 609 / 2
