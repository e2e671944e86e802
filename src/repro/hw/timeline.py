"""Per-iteration simulation timelines.

``simulate_timeline`` reads the same per-step prices
:meth:`ExionAccelerator.simulate_plan` folds into a report, but keeps
them as per-iteration latency/traffic/bound records, exposing the
dense/sparse cadence the FFN-Reuse schedule creates — dense iterations
are visibly longer (full FFN compute + CAU work + full weight fetch),
which is the microarchitectural signature of the algorithm. Like the
accelerator, it prices a lowered :class:`~repro.program.ir.PhasePlan`
rather than walking the model itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import SparsityProfile
from repro.workloads.specs import ModelSpec


@dataclass
class IterationRecord:
    """One denoising iteration's simulated execution."""

    index: int
    is_dense: bool
    compute_s: float
    dram_s: float
    latency_s: float
    dram_bytes: int
    macs_computed: int

    @property
    def bound(self) -> str:
        return "compute" if self.compute_s >= self.dram_s else "memory"


@dataclass
class Timeline:
    """All iteration records of one simulated generation."""

    accelerator: str
    model: str
    records: list = field(default_factory=list)

    def dense_records(self) -> list:
        return [r for r in self.records if r.is_dense]

    def sparse_records(self) -> list:
        return [r for r in self.records if not r.is_dense]

    @property
    def dense_sparse_latency_ratio(self) -> float:
        """Mean dense-iteration latency over mean sparse-iteration latency
        (steady-state, excluding the first iteration's weight fill)."""
        dense = [r.latency_s for r in self.dense_records() if r.index > 0]
        sparse = [r.latency_s for r in self.sparse_records() if r.index > 0]
        if not dense or not sparse:
            return 1.0
        return (sum(dense) / len(dense)) / (sum(sparse) / len(sparse))


def phase_segments(timeline: Timeline) -> list:
    """Contiguous trace segments of a priced timeline, in plan order.

    Each iteration becomes one segment dict shaped for
    :meth:`repro.obs.observer.Observer.on_phase_segment`: start/end are
    cumulative latency offsets from generation start (iteration k begins
    when k-1's latency ends — the accelerator serializes iterations), so
    the segments tile the generation's total latency exactly.
    """
    segments = []
    clock = 0.0
    for record in timeline.records:
        segments.append({
            "start_s": clock,
            "end_s": clock + record.latency_s,
            "phase": "dense" if record.is_dense else "sparse",
            "bound": record.bound,
            "index": record.index,
            "dram_bytes": record.dram_bytes,
            "macs_computed": record.macs_computed,
        })
        clock += record.latency_s
    return segments


def simulate_timeline(
    accelerator: ExionAccelerator,
    spec: ModelSpec,
    profile: Optional[SparsityProfile] = None,
    enable_ffn_reuse: bool = True,
    enable_eager_prediction: bool = True,
    batch: int = 1,
    iterations: Optional[int] = None,
) -> Timeline:
    """Per-iteration records of one simulated generation.

    The lowering and profile synthesis go through the process-wide
    :class:`~repro.program.cache.PlanCache`, so a timeline over an
    already-priced configuration re-lowers nothing.
    """
    from repro.program.cache import get_plan_cache

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

    timeline = Timeline(accelerator=accelerator.name, model=spec.name)
    for priced in accelerator._price_steps(plan, profile):
        timeline.records.append(
            IterationRecord(
                index=priced.step.index,
                is_dense=priced.step.is_dense,
                compute_s=priced.compute_s,
                dram_s=priced.dram_s,
                latency_s=priced.latency_s,
                dram_bytes=priced.dram_bytes,
                macs_computed=priced.cost.macs_computed,
            )
        )
    return timeline
