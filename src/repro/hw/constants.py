"""The numbers every EXION price rests on, in one frozen record.

Some come from the paper (Table II's per-DSC throughput and GSC, Table
III's clock, power and area); the rest are hand-set. :data:`HARDWARE`
binds today's values. An :class:`~repro.hw.accelerator.ExionAccelerator`
snapshots it at construction, and its energy model and sparsity profile
read the same snapshot, so every cache that keys on the record — the
plan cache's pricing and profile tiers, explore's on-disk key — sees a
changed number as a different key. Vary a number with
``dataclasses.replace(HARDWARE, field=value)``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bumped whenever a code change moves a price with the record unchanged:
#: explore's on-disk key carries it beside the record.
PRICING_REVISION = 1


@dataclass(frozen=True)
class HardwareConstants:
    """Hardware numbers the simulator prices with (hashable: a cache key)."""

    #: Paper Table II: per-DSC normalized throughput [TOPS].
    dsc_peak_tops: float = 9.8
    #: Hand-set: multi-DSC work-partitioning efficiency (synchronization,
    #: load skew).
    scaling_efficiency: float = 0.92
    #: Paper Table II: GSC capacity per DSC (EXION24 carries 64 MB for 24).
    gsc_bytes_per_dsc: int = int(64 * 1024 * 1024 / 24)
    #: Paper Table III: clock of the synthesized design [Hz].
    clock_hz: float = 800e6
    #: Paper Table III: ``(component, mm^2)`` area of one DSC.
    dsc_area_mm2: tuple = (
        ("sdue", 1.35), ("cau", 0.04), ("epre", 0.81), ("cfse", 0.32),
        ("memories", 1.79), ("top_dma_etc", 0.06),
    )
    #: Paper Table III: ``(component, mW)`` power of one DSC at 800 MHz,
    #: 0.8 V.
    dsc_power_mw: tuple = (
        ("sdue", 957.97), ("cau", 16.03), ("epre", 265.15), ("cfse", 160.61),
        ("memories", 60.41), ("top_dma_etc", 51.27),
    )
    #: Hand-set: fraction of a component's power still drawn when
    #: clock-gated idle (paper IV-B gates every SDUE datapath register).
    idle_power_fraction: float = 0.04
    #: Paper II-B averages: Q and K/V projection skip rates, used when no
    #: measured rate is available.
    q_skip: float = 0.26
    kv_skip: float = 0.22
    #: Hand-set: fraction of hidden features fully reusable across all
    #: tokens (Fig. 8's condensing; Stable Diffusion's measured 77.4 %
    #: remaining columns implies roughly a quarter are dead).
    dead_col_fraction: float = 0.25
    #: Hand-set: rows and columns of the output-matrix sample
    #: :func:`~repro.hw.profile.estimate_profile` runs ConMerge over.
    sample_rows: int = 64
    sample_cols: int = 512
    #: Hand-set: share of CAU cycles not hidden behind the SDUE (paper
    #: IV-A: classification overlaps it; only excess CVG work shows).
    cau_overlap: float = 0.25
    #: Hand-set: activity of the memories and of top/DMA/control while
    #: any engine runs.
    memories_activity: float = 0.4
    top_dma_activity: float = 0.3

    @property
    def total_dsc_area_mm2(self) -> float:
        """Table III's total area, rounded as the paper prints it (4.37)."""
        return round(sum(mm2 for _, mm2 in self.dsc_area_mm2), 2)

    @property
    def total_dsc_power_mw(self) -> float:
        """Table III's total power (1511.44 here; the paper prints
        1511.43)."""
        return round(sum(mw for _, mw in self.dsc_power_mw), 2)


#: Today's values: what every accelerator prices with.
HARDWARE = HardwareConstants()


__all__ = ["HARDWARE", "HardwareConstants", "PRICING_REVISION"]
