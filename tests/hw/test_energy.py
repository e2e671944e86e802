"""Unit tests for the Table III energy/area model."""

import pytest

from repro.hw.constants import HARDWARE
from repro.hw.energy import EnergyModel

POWER_MW = dict(HARDWARE.dsc_power_mw)


class TestTableIII:
    def test_total_area(self):
        assert HARDWARE.total_dsc_area_mm2 == pytest.approx(4.37, abs=0.01)

    def test_total_power(self):
        assert HARDWARE.total_dsc_power_mw == pytest.approx(1511.43, abs=0.1)

    def test_sdue_dominates_power(self):
        assert POWER_MW["sdue"] == max(POWER_MW.values())

    def test_sparsity_units_power_share(self):
        """EPRE + CAU consume up to ~18.6% of total power (paper V-D)."""
        share = (POWER_MW["epre"] + POWER_MW["cau"]) / sum(
            POWER_MW.values()
        )
        assert share == pytest.approx(0.186, abs=0.01)


class TestEnergyModel:
    def test_busy_energy(self):
        model = EnergyModel()
        model.record("sdue", busy_cycles=800_000_000)  # one second busy
        # One second at full activity -> the component's power in joules.
        assert model.component_energy_j("sdue") == pytest.approx(
            0.958, abs=0.01
        )

    def test_idle_energy_gated(self):
        model = EnergyModel()
        model.record("sdue", busy_cycles=0, idle_cycles=800_000_000)
        assert model.component_energy_j("sdue") == pytest.approx(
            0.958 * HARDWARE.idle_power_fraction, rel=0.01
        )

    def test_activity_scales_busy_energy(self):
        half = EnergyModel()
        half.record("sdue", busy_cycles=1000, activity=0.5)
        full = EnergyModel()
        full.record("sdue", busy_cycles=1000, activity=1.0)
        assert half.component_energy_j("sdue") == pytest.approx(
            0.5 * full.component_energy_j("sdue")
        )

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            EnergyModel().record("gpu", 10)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            EnergyModel().record("sdue", -1)

    def test_dram_energy_included_in_total(self):
        model = EnergyModel()
        model.add_dram_energy(0.5)
        assert model.total_energy_j() == pytest.approx(0.5)
        assert model.breakdown_j()["dram"] == 0.5

    def test_rejects_negative_dram_energy(self):
        with pytest.raises(ValueError):
            EnergyModel().add_dram_energy(-0.1)

    def test_activity_weighted_across_records(self):
        model = EnergyModel()
        model.record("cfse", 1000, activity=1.0)
        model.record("cfse", 1000, activity=0.0)
        entry = model._activities["cfse"]
        assert entry.activity == pytest.approx(0.5)
