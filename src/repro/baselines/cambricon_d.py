"""Cambricon-D analytical model (Kong et al., ISCA 2024) for Fig. 19 (b).

Cambricon-D applies *differential acceleration* to diffusion models: it
computes the delta between consecutive iterations' activations and, because
deltas are small, runs convolutional layers at reduced effective precision
and memory traffic. Its strength is conv-heavy UNets (Stable Diffusion);
transformer blocks see only modest gains — the asymmetry the paper's
Fig. 19 (b) comparison highlights.

Like every backend, this model performs no model-structure walk of its
own: the dense workload comes from the GPU roofline over the lowered
:class:`~repro.program.ir.IterationProgram`, and only the Amdahl split
between conv and transformer shares is priced here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu import GPUModel, GPUReport
from repro.baselines.specs import A100
from repro.workloads.specs import ModelSpec


@dataclass
class CambriconDReport:
    model: str
    latency_s: float
    speedup_vs_gpu: float


class CambriconDModel:
    """Speedup model of Cambricon-D relative to an A100-class GPU."""

    #: Differential-computation gain on convolutional/ResBlock work.
    conv_delta_speedup = 11.0
    #: The smaller gain on transformer blocks (dense INT compute plus
    #: memory-access optimization, but no output-sparsity exploitation).
    transformer_speedup = 3.3

    def __init__(self) -> None:
        self.gpu = GPUModel(A100)

    def simulate(self, spec: ModelSpec, batch: int = 1) -> CambriconDReport:
        """Latency from the GPU baseline split by op category."""
        gpu_report: GPUReport = self.gpu.simulate(spec, batch=batch)
        conv_share = 1.0 - spec.paper_transformer_share
        transformer_share = spec.paper_transformer_share
        # Amdahl split: conv work accelerates by the differential factor,
        # transformer work by the smaller dense-engine factor.
        accelerated = (
            conv_share / self.conv_delta_speedup
            + transformer_share / self.transformer_speedup
        )
        latency = gpu_report.latency_s * accelerated
        return CambriconDReport(
            model=spec.name,
            latency_s=latency,
            speedup_vs_gpu=gpu_report.latency_s / latency,
        )
