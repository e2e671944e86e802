"""Multi-DSC EXION accelerator: end-to-end latency/energy simulation.

Instantiates the paper's configurations (Table II):

- ``ExionAccelerator.exion4()`` — 4 DSCs, 51 GB/s LPDDR5 (edge setting);
- ``ExionAccelerator.exion24()`` — 24 DSCs, 819 GB/s GDDR6, 64 MB GSC
  (server setting);
- ``ExionAccelerator.exion42()`` — 42 DSCs, 1935 GB/s (A100 comparison).

The simulator prices the IR: :meth:`ExionAccelerator.simulate_plan`
consumes a :class:`~repro.program.ir.PhasePlan` (the single lowering's
full per-iteration schedule), prices each phase through
:class:`repro.hw.dsc.DSCModel`, overlaps compute with DRAM via the
double/triple-buffered memories, and accounts energy against the
Table III power model. :meth:`simulate` is the spec-level convenience
wrapper — it lowers through :func:`repro.program.lower.lower_plan` and
delegates; there is no model-structure traversal here. A key effect the
plan's residency annotations capture: diffusion reuses identical weights
every iteration, so models whose INT12 weights fit in the GSC fetch them
from DRAM only once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union

from repro.hw.dram import DRAMModel, GDDR6, HBM2E, LPDDR5, get_dram
from repro.hw.dsc import DSCModel, IterationCost
from repro.hw.energy import (
    CLOCK_HZ,
    EnergyModel,
    TOTAL_DSC_POWER_MW,
    apportion_op_class_energy,
)
from repro.hw.profile import SparsityProfile
from repro.program.cache import get_plan_cache
from repro.program.ir import PhasePlan, PhaseStep
from repro.workloads.specs import ModelSpec

#: Paper Table II: per-DSC normalized throughput.
DSC_PEAK_TOPS = 9.8

#: Multi-DSC work-partitioning efficiency (synchronization, load skew).
SCALING_EFFICIENCY = 0.92

#: GSC capacity per DSC (EXION24 carries 64 MB for 24 DSCs).
GSC_BYTES_PER_DSC = int(64 * 1024 * 1024 / 24)


def _validate_num_dscs(num_dscs) -> int:
    """Shared DSC-count validation for the constructor and ``custom``."""
    if isinstance(num_dscs, bool) or not isinstance(num_dscs, int):
        raise ValueError(
            f"num_dscs must be a positive integer, got {num_dscs!r}"
        )
    if num_dscs < 1:
        raise ValueError(f"need at least one DSC (num_dscs={num_dscs})")
    return num_dscs


@dataclass
class AcceleratorReport:
    """Result of simulating one model on one EXION configuration."""

    accelerator: str
    model: str
    batch: int
    iterations: int
    latency_s: float
    energy_j: float
    dense_equivalent_ops: int
    computed_ops: int
    energy_breakdown_j: dict = field(default_factory=dict)
    compute_bound_fraction: float = 0.0
    #: SDUE energy apportioned across IR op classes (qkv / attention /
    #: ffn1 / ffn2 / etc) by their share of SDUE cycles.
    op_class_energy_j: dict = field(default_factory=dict)

    @property
    def effective_tops(self) -> float:
        """Dense-equivalent throughput (skipped work counts as done)."""
        return self.dense_equivalent_ops / self.latency_s / 1e12

    @property
    def tops_per_watt(self) -> float:
        """Dense-equivalent energy efficiency, the Fig. 18 metric."""
        return self.dense_equivalent_ops / self.energy_j / 1e12

    @property
    def ops_reduction(self) -> float:
        if self.dense_equivalent_ops == 0:
            return 0.0
        return 1.0 - self.computed_ops / self.dense_equivalent_ops


class _PricedStep(NamedTuple):
    """One plan step as priced by :meth:`ExionAccelerator._price_steps`."""

    step: PhaseStep
    cost: IterationCost
    compute_s: float
    #: Undivided busy cycles per engine (``sdue`` / ``epre`` / ``cfse`` /
    #: ``cau``), what the energy model charges.
    busy: dict
    dram_bytes: int
    dram_s: float

    @property
    def latency_s(self) -> float:
        """Double/triple buffering overlaps compute and memory."""
        return max(self.compute_s, self.dram_s)


class ExionAccelerator:
    """An EXIONx instance: ``num_dscs`` DSC cores sharing a DRAM channel."""

    def __init__(
        self,
        num_dscs: int,
        dram: DRAMModel,
        name: Optional[str] = None,
        gsc_bytes_per_dsc: int = GSC_BYTES_PER_DSC,
    ) -> None:
        _validate_num_dscs(num_dscs)
        if not isinstance(dram, DRAMModel):
            raise ValueError(
                f"dram must be a DRAMModel (or use ExionAccelerator.custom "
                f"with a technology name), got {dram!r}"
            )
        if gsc_bytes_per_dsc < 0:
            raise ValueError(
                f"gsc_bytes_per_dsc must be >= 0, got {gsc_bytes_per_dsc!r}"
            )
        self.num_dscs = num_dscs
        self.dram = dram
        self.name = name or f"EXION{num_dscs}"
        self.clock_hz = CLOCK_HZ
        self.gsc_bytes = gsc_bytes_per_dsc * num_dscs
        self.dsc = DSCModel()

    # ------------------------------------------------------------------
    # paper configurations (Table II)
    # ------------------------------------------------------------------
    @classmethod
    def exion4(cls) -> "ExionAccelerator":
        return cls(num_dscs=4, dram=LPDDR5, name="EXION4")

    @classmethod
    def exion24(cls) -> "ExionAccelerator":
        return cls(num_dscs=24, dram=GDDR6, name="EXION24")

    @classmethod
    def exion42(cls) -> "ExionAccelerator":
        return cls(num_dscs=42, dram=HBM2E, name="EXION42")

    # ------------------------------------------------------------------
    # custom configurations (the design-space explorer's substrate)
    # ------------------------------------------------------------------
    @classmethod
    def custom(
        cls,
        num_dscs: int,
        dram: Union[str, DRAMModel] = "gddr6",
        bandwidth_gbps: Optional[float] = None,
        gsc_mb: Optional[float] = None,
    ) -> "ExionAccelerator":
        """A validated configuration anywhere in the Table II design space.

        ``dram`` names a memory technology (``lpddr5``/``gddr6``/``hbm2e``,
        setting per-bit energy and burst latency) or is a full
        :class:`~repro.hw.dram.DRAMModel`; ``bandwidth_gbps`` rescales its
        aggregate bandwidth; ``gsc_mb`` fixes the *total* global-shared-cache
        capacity (default: the per-DSC Table II provisioning). The three
        paper factories remain byte-identical shortcuts of this method.
        """
        # Validated here too: gsc_mb conversion divides by num_dscs
        # before __init__ would get the chance to reject it.
        _validate_num_dscs(num_dscs)
        model = get_dram(dram) if isinstance(dram, str) else dram
        if bandwidth_gbps is not None:
            if bandwidth_gbps <= 0:
                raise ValueError(
                    f"bandwidth_gbps must be positive, got {bandwidth_gbps!r}"
                )
            model = model.scaled(float(bandwidth_gbps))
        if gsc_mb is None:
            gsc_bytes_per_dsc = GSC_BYTES_PER_DSC
        else:
            if gsc_mb < 0:
                raise ValueError(f"gsc_mb must be >= 0, got {gsc_mb!r}")
            gsc_bytes_per_dsc = int(gsc_mb * 1024 * 1024 / num_dscs)
        return cls(
            num_dscs=num_dscs,
            dram=model,
            name=f"EXION{num_dscs}c",
            gsc_bytes_per_dsc=gsc_bytes_per_dsc,
        )

    @property
    def peak_tops(self) -> float:
        return DSC_PEAK_TOPS * self.num_dscs

    @property
    def peak_power_w(self) -> float:
        return TOTAL_DSC_POWER_MW * 1e-3 * self.num_dscs

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        spec: ModelSpec,
        profile: Optional[SparsityProfile] = None,
        enable_ffn_reuse: bool = True,
        enable_eager_prediction: bool = True,
        batch: int = 1,
        iterations: Optional[int] = None,
    ) -> AcceleratorReport:
        """Simulate one full generation of ``spec`` on this instance.

        Convenience wrapper: lowers the spec through the process-wide
        :class:`~repro.program.cache.PlanCache` (plan, profile and
        pricing are all interned — repeated simulations of equal keys
        replay one cold computation) and prices the plan with
        :meth:`simulate_plan`.
        """
        cache = get_plan_cache()
        if profile is None:
            profile = cache.profile(spec)
        plan = cache.plan(
            spec,
            enable_ffn_reuse=enable_ffn_reuse,
            enable_eager_prediction=enable_eager_prediction,
            iterations=iterations,
            batch=batch,
        )
        return cache.price(self, plan, profile)

    def simulate_plan(
        self,
        plan: PhasePlan,
        profile: SparsityProfile,
    ) -> AcceleratorReport:
        """Price one lowered phase plan on this instance.

        The plan fully determines the work: per-iteration ops (the
        program), dense/sparse phase per iteration, batch, and
        weight-residency annotations. This is the report fold over
        :meth:`_price_steps`; latency and energy accumulate in plan order.
        """
        energy = EnergyModel(clock_hz=self.clock_hz)
        latency = 0.0
        dense_ops = 0
        computed_ops = 0
        compute_bound_iters = 0
        op_class_cycles: dict = {}

        for priced in self._price_steps(plan, profile):
            cost = priced.cost
            iter_s = priced.latency_s
            latency += iter_s
            if priced.compute_s >= priced.dram_s:
                compute_bound_iters += 1

            self._record_energy(energy, cost, priced.busy, iter_s)
            energy.add_dram_energy(
                self.dram.transfer_energy_j(priced.dram_bytes)
            )
            dense_ops += 2 * cost.macs_dense_equivalent
            computed_ops += 2 * cost.macs_computed
            for kind, cycles in cost.per_kind_cycles.items():
                op_class_cycles[kind] = op_class_cycles.get(kind, 0) + cycles

        return AcceleratorReport(
            accelerator=self.name,
            model=plan.program.model,
            batch=plan.batch,
            iterations=plan.iterations,
            latency_s=latency,
            energy_j=energy.total_energy_j(),
            dense_equivalent_ops=dense_ops,
            computed_ops=computed_ops,
            energy_breakdown_j=energy.breakdown_j(),
            compute_bound_fraction=(
                compute_bound_iters / max(plan.iterations, 1)
            ),
            op_class_energy_j=apportion_op_class_energy(
                energy.component_energy_j("sdue"), op_class_cycles
            ),
        )

    # ------------------------------------------------------------------
    def _price_steps(
        self, plan: PhasePlan, profile: SparsityProfile
    ) -> Iterator[_PricedStep]:
        """Price every step of ``plan``, in plan order.

        The one place an iteration is priced: :meth:`simulate_plan` folds
        these into an :class:`AcceleratorReport`,
        :func:`repro.hw.timeline.simulate_timeline` maps them to
        per-iteration records. Iteration costs repeat, so each phase
        kind goes through the DSC model once. Weight residency: the plan
        marks every iteration after the cold first fetch as "resident" —
        the GSC-cached fraction is fetched from DRAM once; only the
        uncached remainder streams thereafter.
        """
        costs = {
            is_dense: self.dsc.iteration_cost(
                plan.program, profile, plan.enable_ffn_reuse,
                plan.enable_eager_prediction, sparse_phase=not is_dense,
                batch=plan.batch,
            )
            for is_dense in (False, True)
        }
        weight_bytes_iter = costs[True].weight_bytes
        cached_fraction = min(1.0, self.gsc_bytes / max(weight_bytes_iter, 1))

        for step in plan.steps:
            cost = costs[step.is_dense]
            compute_s, busy = self._compute_seconds(cost)
            dram_bytes = cost.activation_bytes
            if step.weight_fetch == "cold":
                dram_bytes += cost.weight_bytes
            else:
                dram_bytes += int(cost.weight_bytes * (1.0 - cached_fraction))
            yield _PricedStep(
                step=step,
                cost=cost,
                compute_s=compute_s,
                busy=busy,
                dram_bytes=dram_bytes,
                dram_s=self.dram.transfer_seconds(dram_bytes),
            )

    def _compute_seconds(self, cost: IterationCost) -> tuple:
        """Iteration compute time with work split across DSCs.

        Engines pipeline against each other (paper IV-A: EPRE latency is
        mostly hidden), so the iteration takes the slowest engine's time.
        """
        scale = self.num_dscs * SCALING_EFFICIENCY
        sdue_c = cost.sdue_cycles / scale
        epre_c = cost.epre_cycles / scale
        cfse_c = cost.cfse_cycles / scale
        cau_c = cost.cau_cycles / scale
        # CAU classification overlaps the SDUE; only excess CVG work shows.
        critical = max(sdue_c, epre_c, cfse_c, cau_c * 0.25)
        busy = {
            "sdue": cost.sdue_cycles,
            "epre": cost.epre_cycles,
            "cfse": cost.cfse_cycles,
            "cau": cost.cau_cycles,
        }
        return critical / self.clock_hz, busy

    def _record_energy(
        self, energy: EnergyModel, cost: IterationCost, busy: dict, iter_s: float
    ) -> None:
        iter_cycles_all = int(iter_s * self.clock_hz * self.num_dscs)
        for component, cycles in busy.items():
            idle = max(iter_cycles_all - int(cycles), 0)
            activity = cost.sdue_activity if component == "sdue" else 1.0
            energy.record(component, int(cycles), idle_cycles=idle,
                          activity=activity)
        # Memories and control are active alongside any engine activity.
        energy.record("memories", iter_cycles_all, activity=0.4)
        energy.record("top_dma_etc", iter_cycles_all, activity=0.3)
