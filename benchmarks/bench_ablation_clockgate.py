"""Ablation — clock gating in the SDUE datapath.

The paper applies clock gating to all SDUE registers so the residual
sparsity left after merging still saves energy (Section IV-B). This bench
compares the energy model with gating (idle fraction ~4%) against a
hypothetical ungated design (idle cells burn full power).
"""

from repro.analysis.report import percent
from repro.bench import BenchResult, register_bench
from repro.hw.dsc import DSCModel
from repro.hw.energy import EnergyModel
from repro.program.lower import lower_program
from repro.workloads.specs import get_spec

from .conftest import emit_result


def sdue_energy(idle_fraction, busy_cycles, activity, idle_cycles):
    model = EnergyModel(idle_fraction=idle_fraction)
    model.record("sdue", busy_cycles, idle_cycles=idle_cycles,
                 activity=activity)
    return model.component_energy_j("sdue")


def _sparse_cost(profiles):
    program = lower_program(get_spec("dit"), scale="paper")
    return DSCModel().iteration_cost(
        program, profiles["dit"], True, True, sparse_phase=True
    )


@register_bench("ablation_clockgate", tags=("ablation", "hw", "smoke"))
def build_clockgate(ctx):
    sparse_cost = _sparse_cost(ctx.profiles)
    busy = sparse_cost.sdue_cycles
    activity = sparse_cost.sdue_activity
    idle = busy // 2

    gated = sdue_energy(0.04, busy, activity, idle)
    ungated = sdue_energy(1.0, busy, 1.0, idle)
    savings = 1.0 - gated / ungated

    result = BenchResult("ablation_clockgate", model="dit")
    result.add_series(
        (f"Ablation — clock gating on residual sparsity "
         f"(activity {activity:.2f}, saving {percent(savings)})"),
        ["design", "SDUE energy per sparse iteration", "relative"],
        [
            ["clock-gated (EXION)", f"{gated * 1e3:.3f} mJ", "1.0x"],
            ["ungated", f"{ungated * 1e3:.3f} mJ",
             f"{ungated / gated:.2f}x"],
        ],
    )
    result.add_metric("gated_energy_j", gated, unit="J",
                      direction="lower_better", tolerance=0.10)
    result.add_metric("ungated_energy_j", ungated, unit="J",
                      direction="lower_better", tolerance=0.10)
    result.add_metric("savings_ratio", savings,
                      direction="higher_better", tolerance=0.10)
    return result


def test_ablation_clock_gating(bench_ctx):
    result = build_clockgate(bench_ctx)
    emit_result(result)

    assert result.value("gated_energy_j") < result.value("ungated_energy_j")
    # Gating matters at merged-block activity levels.
    assert result.value("savings_ratio") > 0.2
