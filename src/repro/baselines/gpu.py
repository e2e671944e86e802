"""GPU roofline model for the Fig. 18 / Fig. 19 comparisons.

GPUs execute every iteration densely: the unstructured inter-/intra-
iteration output sparsity cannot be exploited (paper Section III-B). Each
MMUL runs as a kernel whose time is the max of its compute-roofline,
memory-roofline and launch-overhead terms; small diffusion kernels leave a
large device mostly idle, which is where EXION's biggest wins come from.

The kernels priced here are the ops of the lowered
:class:`~repro.program.ir.IterationProgram` — the same single lowering
every other backend consumes; this module only supplies the per-kernel
GPU pricing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.specs import GPUSpec
from repro.program.lower import lower_program
from repro.workloads.specs import ModelSpec


@dataclass
class GPUReport:
    """Latency/energy of one full generation on a GPU."""

    gpu: str
    model: str
    batch: int
    iterations: int
    latency_s: float
    energy_j: float
    dense_equivalent_ops: int

    @property
    def effective_tops(self) -> float:
        return self.dense_equivalent_ops / self.latency_s / 1e12

    @property
    def tops_per_watt(self) -> float:
        return self.dense_equivalent_ops / self.energy_j / 1e12


class GPUModel:
    """Per-kernel roofline simulation of diffusion inference on a GPU."""

    #: Elementwise/softmax/norm kernels per transformer block (adds launch
    #: overhead even though their FLOPs are negligible).
    AUX_KERNELS_PER_BLOCK = 4

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def _kernel_seconds(self, r: int, k: int, c: int) -> tuple:
        """(time, achieved utilization) for one ``(r,k)@(k,c)`` kernel."""
        spec = self.spec
        output_elements = r * c
        utilization = spec.max_utilization * min(
            1.0, output_elements / spec.saturation_elements
        )
        utilization = max(utilization, 1e-4)
        ops = 2.0 * r * k * c
        compute_s = ops / (spec.peak_ops_per_s * utilization)
        bytes_moved = (r * k + k * c + r * c) * spec.bytes_per_element
        memory_s = bytes_moved / (spec.bandwidth_gbps * 1e9)
        return max(compute_s, memory_s, spec.kernel_launch_s), utilization

    def iteration_seconds(self, spec: ModelSpec, batch: int = 1) -> tuple:
        """(latency, mean utilization) of one denoising iteration."""
        program = lower_program(spec, scale="paper")
        total = 0.0
        util_weighted = 0.0
        ops_total = 0.0
        for op in program.ops:
            r = op.r * batch
            seconds, util = self._kernel_seconds(r, op.k, op.c)
            seconds *= op.count
            total += seconds
            ops = 2.0 * r * op.k * op.c * op.count
            ops_total += ops
            util_weighted += util * ops
        # Auxiliary kernels: launch-bound elementwise work.
        aux = program.depth * self.AUX_KERNELS_PER_BLOCK
        total += aux * self.spec.kernel_launch_s
        mean_util = util_weighted / ops_total if ops_total else 0.0
        return total, mean_util

    def simulate(
        self,
        spec: ModelSpec,
        batch: int = 1,
        iterations: int = None,
    ) -> GPUReport:
        """Simulate one full generation (all iterations dense)."""
        total_iters = iterations if iterations is not None else spec.total_iterations
        iter_s, util = self.iteration_seconds(spec, batch)
        latency = iter_s * total_iters
        power = self.spec.tdp_w * (
            self.spec.idle_power_fraction
            + (1.0 - self.spec.idle_power_fraction) * util
        )
        macs = sum(
            op.r * batch * op.k * op.c * op.count
            for op in lower_program(spec, scale="paper").ops
        )
        dense_ops = 2 * macs * total_iters
        return GPUReport(
            gpu=self.spec.name,
            model=spec.name,
            batch=batch,
            iterations=total_iters,
            latency_s=latency,
            energy_j=latency * power,
            dense_equivalent_ops=dense_ops,
        )
