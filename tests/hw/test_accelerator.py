"""Unit tests for the multi-DSC accelerator simulation."""

from dataclasses import replace

import pytest

from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE
from repro.hw.profile import estimate_profile
from repro.workloads.specs import get_spec


@pytest.fixture(scope="module")
def dit_profile():
    return estimate_profile(get_spec("dit"), HARDWARE, seed=0)


class TestConfigurations:
    def test_table2_instances(self):
        ex4 = ExionAccelerator.exion4()
        assert ex4.num_dscs == 4
        assert ex4.peak_tops == pytest.approx(39.2)
        assert ex4.dram.bandwidth_gbps == 51.0
        ex24 = ExionAccelerator.exion24()
        assert ex24.peak_tops == pytest.approx(235.2)
        assert ex24.dram.bandwidth_gbps == 819.0

    def test_peak_power_scales(self):
        assert ExionAccelerator.exion4().peak_power_w == pytest.approx(
            4 * 1.51143, abs=0.01
        )

    def test_rejects_zero_dscs(self):
        from repro.hw.dram import GDDR6

        with pytest.raises(ValueError):
            ExionAccelerator(0, GDDR6)


class TestCustomConfigurations:
    def test_factories_are_custom_points(self):
        """The Table II factories stay byte-identical to the generalized
        constructor at the same coordinates."""
        ex24 = ExionAccelerator.exion24()
        custom = ExionAccelerator.custom(
            num_dscs=24, dram="gddr6", gsc_mb=64.0,
        )
        assert custom.num_dscs == ex24.num_dscs
        assert custom.dram == ex24.dram
        assert custom.gsc_bytes == ex24.gsc_bytes
        assert custom.constants is ex24.constants
        assert custom.name == "EXION24c" != ex24.name

    def test_custom_simulation_matches_factory(self, dit_profile):
        spec = get_spec("dit")
        factory = ExionAccelerator.exion4().simulate(spec, dit_profile)
        custom = ExionAccelerator.custom(
            num_dscs=4, dram="lpddr5",
        ).simulate(spec, dit_profile)
        assert replace(custom, accelerator=factory.accelerator) == factory

    def test_bandwidth_override_scales_technology(self):
        acc = ExionAccelerator.custom(8, dram="lpddr5",
                                      bandwidth_gbps=102.0)
        assert acc.dram.bandwidth_gbps == 102.0
        assert acc.dram.name == "LPDDR5"  # energy/latency kept

    def test_gsc_mb_is_total_capacity(self):
        acc = ExionAccelerator.custom(8, gsc_mb=32.0)
        assert acc.gsc_bytes == int(32.0 * 1024 * 1024 / 8) * 8

    def test_clear_errors_for_bad_knobs(self):
        with pytest.raises(ValueError, match="num_dscs"):
            ExionAccelerator.custom(0)
        with pytest.raises(ValueError, match="positive integer"):
            ExionAccelerator.custom(2.5)
        with pytest.raises(ValueError, match="bandwidth_gbps"):
            ExionAccelerator.custom(4, bandwidth_gbps=-1.0)
        with pytest.raises(ValueError, match="bandwidth_gbps"):
            ExionAccelerator.custom(4, bandwidth_gbps=0.0)
        with pytest.raises(ValueError, match="gsc_mb"):
            ExionAccelerator.custom(4, gsc_mb=-2.0)
        with pytest.raises(ValueError, match="unknown DRAM technology"):
            ExionAccelerator.custom(4, dram="ddr3")

    def test_default_name_marks_custom(self):
        assert ExionAccelerator.custom(7).name == "EXION7c"


class TestSimulation:
    def test_report_fields(self, dit_profile):
        report = ExionAccelerator.exion24().simulate(
            get_spec("dit"), profile=dit_profile
        )
        assert report.latency_s > 0
        assert report.energy_j > 0
        assert report.effective_tops > 0
        assert report.tops_per_watt > 0
        assert set(report.energy_breakdown_j) >= {"sdue", "epre", "dram"}

    def test_default_config_is_the_specs_table1_config(self, dit_profile):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        assert acc.simulate(spec, dit_profile) == acc.simulate(
            spec, dit_profile, ExionConfig.for_spec(spec))

    def test_ablation_ordering(self, dit_profile):
        """Base <= EP <= All and Base <= FFNR <= All in efficiency
        (paper Fig. 18 ablation bars)."""
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        config = ExionConfig.for_model("dit")
        base = acc.simulate(spec, dit_profile, config.ablation("base"))
        ep = acc.simulate(spec, dit_profile, config.ablation("ep"))
        ffnr = acc.simulate(spec, dit_profile, config.ablation("ffnr"))
        full = acc.simulate(spec, dit_profile, config.ablation("all"))
        assert base.tops_per_watt <= ep.tops_per_watt <= full.tops_per_watt
        assert base.tops_per_watt <= ffnr.tops_per_watt <= full.tops_per_watt
        assert full.latency_s <= base.latency_s

    def test_ffnr_dominates_ep_for_dit(self, dit_profile):
        """FFN layers dominate diffusion compute, so FFN-Reuse buys more
        than EP alone (paper: 'optimizing the FFN layers is crucial')."""
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        config = ExionConfig.for_model("dit")
        ep = acc.simulate(spec, dit_profile, config.ablation("ep"))
        ffnr = acc.simulate(spec, dit_profile, config.ablation("ffnr"))
        assert ffnr.tops_per_watt > ep.tops_per_watt

    def test_ops_reduction_reported(self, dit_profile):
        report = ExionAccelerator.exion24().simulate(
            get_spec("dit"), dit_profile, ExionConfig.for_model("dit")
        )
        reduction = 1.0 - report.computed_ops / report.dense_equivalent_ops
        assert 0.3 < reduction < 0.95

    def test_more_dscs_lower_latency(self, dit_profile):
        spec = get_spec("dit")
        r4 = ExionAccelerator.exion4().simulate(spec, dit_profile)
        r24 = ExionAccelerator.exion24().simulate(spec, dit_profile)
        assert r24.latency_s < r4.latency_s

    def test_batch8_increases_latency_but_throughput(self, dit_profile):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        b1 = acc.simulate(spec, dit_profile, batch=1)
        b8 = acc.simulate(spec, dit_profile, batch=8)
        assert b8.latency_s > b1.latency_s
        assert b8.latency_s < 8 * b1.latency_s  # batching amortizes

    def test_iteration_override(self, dit_profile):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        short = acc.simulate(spec, dit_profile, iterations=10)
        full = acc.simulate(spec, dit_profile, iterations=100)
        assert short.latency_s < full.latency_s
        assert short.iterations == 10

    def test_small_model_fits_gsc_and_is_fast(self):
        """MLD's INT12 weights fit the GSC, so steady-state iterations see
        no weight traffic and the run is compute-bound."""
        spec = get_spec("mld")
        acc = ExionAccelerator.exion4()
        report = acc.simulate(spec)
        assert report.latency_s < 0.01  # well under 10 ms total
