"""Power and area model of one DSC, seeded with the paper's Table III.

The RTL-synthesis numbers (14 nm, 0.8 V, 800 MHz) are the ground truth the
simulator's energy accounting is anchored to: each component's synthesized
power is converted to energy-per-busy-cycle, and clock gating scales the
idle fraction down (paper Section IV-B applies clock gating to all SDUE
datapath registers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Clock frequency of the synthesized design.
CLOCK_HZ = 800e6

#: Table III area breakdown [mm^2] for a single-DSC EXION.
DSC_AREA_MM2 = {
    "sdue": 1.35,
    "cau": 0.04,
    "epre": 0.81,
    "cfse": 0.32,
    "memories": 1.79,
    "top_dma_etc": 0.06,
}

#: Table III power breakdown [mW] at 800 MHz, 0.8 V.
DSC_POWER_MW = {
    "sdue": 957.97,
    "cau": 16.03,
    "epre": 265.15,
    "cfse": 160.61,
    "memories": 60.41,
    "top_dma_etc": 51.27,
}

TOTAL_DSC_AREA_MM2 = round(sum(DSC_AREA_MM2.values()), 2)  # 4.37
TOTAL_DSC_POWER_MW = round(sum(DSC_POWER_MW.values()), 2)  # 1511.44 (~1511.43)

#: Fraction of a component's power still drawn when clock-gated idle.
IDLE_POWER_FRACTION = 0.04


@dataclass
class ComponentActivity:
    """Busy/idle cycle counts for one hardware component."""

    busy_cycles: int = 0
    idle_cycles: int = 0
    #: Mean fraction of the datapath active during busy cycles (clock
    #: gating of individual registers, e.g. gated DPC cells in merged
    #: blocks that stay partially empty).
    activity: float = 1.0


@dataclass
class EnergyModel:
    """Accumulates component activity and converts it to energy."""

    clock_hz: float = CLOCK_HZ
    power_mw: dict = field(default_factory=lambda: dict(DSC_POWER_MW))
    idle_fraction: float = IDLE_POWER_FRACTION
    _activities: dict = field(default_factory=dict)
    dram_energy_j: float = 0.0

    def record(
        self,
        component: str,
        busy_cycles: int,
        idle_cycles: int = 0,
        activity: float = 1.0,
    ) -> None:
        if component not in self.power_mw:
            raise KeyError(f"unknown component {component!r}")
        if busy_cycles < 0 or idle_cycles < 0:
            raise ValueError("cycle counts must be non-negative")
        if not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        entry = self._activities.setdefault(component, ComponentActivity())
        # Weighted running activity over busy cycles.
        total_busy = entry.busy_cycles + busy_cycles
        if total_busy > 0:
            entry.activity = (
                entry.activity * entry.busy_cycles + activity * busy_cycles
            ) / total_busy
        entry.busy_cycles = total_busy
        entry.idle_cycles += idle_cycles

    def add_dram_energy(self, joules: float) -> None:
        if joules < 0:
            raise ValueError("energy must be non-negative")
        self.dram_energy_j += joules

    def _cycle_energy_j(self, component: str) -> float:
        return (self.power_mw[component] * 1e-3) / self.clock_hz

    def component_energy_j(self, component: str) -> float:
        """Energy of one component: busy at its activity, idle gated."""
        entry = self._activities.get(component)
        if entry is None:
            return 0.0
        per_cycle = self._cycle_energy_j(component)
        busy_act = max(entry.activity, self.idle_fraction)
        busy = entry.busy_cycles * per_cycle * busy_act
        idle = entry.idle_cycles * per_cycle * self.idle_fraction
        return busy + idle

    def total_energy_j(self) -> float:
        """On-chip plus DRAM energy."""
        on_chip = sum(self.component_energy_j(c) for c in self.power_mw)
        return on_chip + self.dram_energy_j

    def breakdown_j(self) -> dict:
        out = {c: self.component_energy_j(c) for c in self.power_mw}
        out["dram"] = self.dram_energy_j
        return out


def apportion_op_class_energy(
    component_energy_j: float, op_class_cycles: dict
) -> dict:
    """Split one component's energy across IR op classes by cycle share.

    ``op_class_cycles`` maps op-class names (the
    :class:`repro.program.ir.OpKind` values: ``qkv`` / ``attention`` /
    ``ffn1`` / ``ffn2`` / ``etc``) to busy-cycle totals — the
    ``per_kind_cycles`` accounting the DSC cost model keeps. Energy is
    apportioned proportionally, so the breakdown sums to the component
    total exactly (up to float addition).
    """
    total_cycles = sum(op_class_cycles.values())
    if total_cycles <= 0:
        return {kind: 0.0 for kind in op_class_cycles}
    return {
        kind: component_energy_j * cycles / total_cycles
        for kind, cycles in op_class_cycles.items()
    }
