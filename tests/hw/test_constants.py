"""The hardware-constants record and the pricing revision it travels with."""

import dataclasses
import hashlib

import pytest

from repro.bench import BenchContext, discover
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE, PRICING_REVISION, HardwareConstants
from repro.program import fresh_plan_cache
from repro.workloads.specs import get_spec

#: sha256 of the price grid below at :data:`PRICING_REVISION`. Values are
#: hashed at 9 significant digits, so the pin holds on any numpy; a code
#: change that moves a price must bump the revision and re-pin this.
PRICE_GRID_SHA256 = "2dc6d0863cc4663d371912e76bc605bf91e40e9647ce44438d9559e29ced4795"


def price_grid() -> str:
    """Latency and energy of three models at batch 1 and 8 on each
    Table II configuration, one line per point."""
    lines = []
    with fresh_plan_cache():
        for factory in ("exion4", "exion24", "exion42"):
            accelerator = getattr(ExionAccelerator, factory)()
            for model in ("dit", "stable_diffusion", "mld"):
                for batch in (1, 8):
                    report = accelerator.simulate(get_spec(model), batch=batch)
                    lines.append(f"{accelerator.name} {model} {batch} "
                                 f"{report.latency_s:.8e} {report.energy_j:.8e}")
    return "\n".join(lines)


def test_pricing_revision_pins_the_price_grid():
    digest = hashlib.sha256(price_grid().encode()).hexdigest()
    assert (PRICING_REVISION, digest) == (1, PRICE_GRID_SHA256)


def test_record_is_frozen_and_hashable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        HARDWARE.clock_hz = 1.0
    assert hash(HARDWARE) == hash(HardwareConstants())
    assert dataclasses.replace(HARDWARE, scaling_efficiency=0.46) != HARDWARE


def test_totals_follow_the_table():
    power = dict(HARDWARE.dsc_power_mw)
    doubled = dataclasses.replace(HARDWARE, dsc_power_mw=tuple(
        (component, 2 * mw) for component, mw in power.items()))
    assert doubled.total_dsc_power_mw == pytest.approx(
        2 * HARDWARE.total_dsc_power_mw, abs=0.01)


def test_accelerator_snapshots_the_binding(monkeypatch):
    import repro.hw.accelerator as accelerator_module

    before = ExionAccelerator.exion24()
    changed = dataclasses.replace(HARDWARE, dsc_peak_tops=19.6)
    monkeypatch.setattr(accelerator_module, "HARDWARE", changed)
    after = ExionAccelerator.exion24()
    assert before.constants is HARDWARE
    assert after.constants is changed
    assert after.peak_tops == 2 * before.peak_tops


def test_the_condensing_benches_read_the_record(monkeypatch):
    """fig08 and fig09 draw with the generator's default dead-column
    fraction, the record's: changing it moves every value they report."""
    import repro.hw.constants as constants_module

    builds = [discover().get(name).builder for name in ("fig08_condensing", "fig09_merging")]

    def measure():
        return [m.value for build in builds for m in build(BenchContext()).metrics.values()]

    before = measure()
    monkeypatch.setattr(constants_module, "HARDWARE",
                        dataclasses.replace(HARDWARE, dead_col_fraction=0.5))
    after = measure()
    assert all(new != old for new, old in zip(after, before)), (before, after)
