"""Energy model of one DSC, anchored to the paper's Table III.

The RTL-synthesis numbers (14 nm, 0.8 V, 800 MHz; held in
:class:`~repro.hw.constants.HardwareConstants`) are the ground truth the
simulator's energy accounting is anchored to: each component's synthesized
power is converted to energy-per-busy-cycle, and clock gating scales the
idle fraction down (paper Section IV-B applies clock gating to all SDUE
datapath registers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.constants import HARDWARE, HardwareConstants


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

    #: Clock, Table III power and idle fraction the energy is priced at.
    constants: HardwareConstants = HARDWARE
    _activities: dict = field(default_factory=dict)
    dram_energy_j: float = 0.0

    def __post_init__(self) -> None:
        self._power_mw = dict(self.constants.dsc_power_mw)

    def record(
        self,
        component: str,
        busy_cycles: int,
        idle_cycles: int = 0,
        activity: float = 1.0,
    ) -> None:
        if component not in self._power_mw:
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
        return (self._power_mw[component] * 1e-3) / self.constants.clock_hz

    def component_energy_j(self, component: str) -> float:
        """Energy of one component: busy at its activity, idle gated."""
        entry = self._activities.get(component)
        if entry is None:
            return 0.0
        per_cycle = self._cycle_energy_j(component)
        idle_fraction = self.constants.idle_power_fraction
        busy_act = max(entry.activity, idle_fraction)
        busy = entry.busy_cycles * per_cycle * busy_act
        idle = entry.idle_cycles * per_cycle * idle_fraction
        return busy + idle

    def total_energy_j(self) -> float:
        """On-chip plus DRAM energy."""
        on_chip = sum(self.component_energy_j(c) for c in self._power_mw)
        return on_chip + self.dram_energy_j

    def breakdown_j(self) -> dict:
        out = {c: self.component_energy_j(c) for c in self._power_mw}
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
