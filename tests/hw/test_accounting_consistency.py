"""Cross-cutting consistency checks on the simulator's accounting.

These tests pin down invariants that individual unit tests do not cover:
energy breakdowns must sum to totals, dense-equivalent work must be
configuration-invariant, and ablation configurations must only ever remove
work, never add it.
"""

import pytest

from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import estimate_profile
from repro.workloads.specs import BENCHMARK_ORDER, get_spec


@pytest.fixture(scope="module")
def reports():
    """All ablations on three representative models, EXION24."""
    acc = ExionAccelerator.exion24()
    out = {}
    for name in ("mld", "dit", "stable_diffusion"):
        spec = get_spec(name)
        profile = estimate_profile(spec, seed=0)
        out[name] = {
            (ffnr, ep): acc.simulate(
                spec, profile, enable_ffn_reuse=ffnr,
                enable_eager_prediction=ep,
            )
            for ffnr in (False, True)
            for ep in (False, True)
        }
    return out


class TestEnergyAccounting:
    def test_breakdown_sums_to_total(self, reports):
        for by_config in reports.values():
            for report in by_config.values():
                total = sum(report.energy_breakdown_j.values())
                assert total == pytest.approx(report.energy_j, rel=1e-9)

    def test_all_components_present(self, reports):
        expected = {"sdue", "cau", "epre", "cfse", "memories",
                    "top_dma_etc", "dram"}
        for by_config in reports.values():
            for report in by_config.values():
                assert set(report.energy_breakdown_j) == expected

    def test_energy_nonnegative(self, reports):
        for by_config in reports.values():
            for report in by_config.values():
                assert all(
                    v >= 0 for v in report.energy_breakdown_j.values()
                )

    def test_average_power_below_peak(self, reports):
        """Clock gating can only lower power below the synthesis peak
        (plus DRAM interface power)."""
        acc_peak = ExionAccelerator.exion24().peak_power_w
        for by_config in reports.values():
            for report in by_config.values():
                dram_w = (
                    report.energy_breakdown_j["dram"] / report.latency_s
                )
                average_w = report.energy_j / report.latency_s
                assert average_w <= acc_peak + dram_w + 1e-6


class TestWorkAccounting:
    def test_dense_equivalent_invariant_across_ablations(self, reports):
        """Every configuration is credited the same dense-equivalent work;
        only the computed work varies."""
        for by_config in reports.values():
            dense = {r.dense_equivalent_ops for r in by_config.values()}
            assert len(dense) == 1

    def test_optimizations_never_add_work(self, reports):
        for by_config in reports.values():
            base = by_config[(False, False)]
            for report in by_config.values():
                assert report.computed_ops <= base.computed_ops

    def test_base_computes_everything(self, reports):
        for by_config in reports.values():
            base = by_config[(False, False)]
            assert base.computed_ops == base.dense_equivalent_ops
            assert base.ops_reduction == 0.0

    def test_all_config_reduction_matches_components(self, reports):
        """The all-configuration reduction is at least each single
        optimization's reduction."""
        for by_config in reports.values():
            full = by_config[(True, True)].ops_reduction
            assert full >= by_config[(True, False)].ops_reduction - 1e-9
            assert full >= by_config[(False, True)].ops_reduction - 1e-9


class TestLatencyAccounting:
    def test_latency_positive_and_finite(self, reports):
        for by_config in reports.values():
            for report in by_config.values():
                assert 0.0 < report.latency_s < 60.0

    def test_compute_bound_fraction_valid(self, reports):
        for by_config in reports.values():
            for report in by_config.values():
                assert 0.0 <= report.compute_bound_fraction <= 1.0

    def test_effective_tops_below_dense_equivalent_bound(self, reports):
        """Effective (dense-equivalent) TOPS may exceed the physical peak
        only when work is skipped."""
        peak = ExionAccelerator.exion24().peak_tops
        for by_config in reports.values():
            base = by_config[(False, False)]
            assert base.effective_tops <= peak * 1.05


class TestAllModelsSimulate:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_every_model_on_every_instance(self, name):
        spec = get_spec(name)
        profile = estimate_profile(spec, seed=0)
        for acc in (ExionAccelerator.exion4(), ExionAccelerator.exion42()):
            report = acc.simulate(spec, profile, iterations=5)
            assert report.latency_s > 0
            assert report.energy_j > 0
