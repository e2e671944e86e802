"""Compiled execution of the generation hot path.

The interpreted stack (the executor hooks behind
``ExionPipeline(compiled=False)``) re-derives per-step work every
iteration: it re-quantizes constant weight matrices for the log-domain
prediction, re-walks bitmasks, re-embeds deterministic timesteps and
allocates trace objects nobody reads. :mod:`repro.exec` splits that work
along the plan-time / step-time boundary the
:class:`~repro.program.compiled.CompiledPlan` fixes:

==============================  ========================================
plan time (once)                step time (per iteration)
==============================  ========================================
timestep embeddings + adaLN     pure gather/scatter + GEMMs
log-domain weight operands      shared activation quantization
dense/sparse phase schedule     phase-state replay
------------------------------  ----------------------------------------
phase time (once per phase)
------------------------------
bitmask → gather conversion
2nd-layer partial sums
cross-attention K/V constants
==============================  ========================================

:class:`CompiledExecutor` runs one generation on 2-D operands;
:class:`ContinuousExecutor` is the one batched engine — it advances a
mutable set of requests one plan step per tick, and a drained micro-batch
(:meth:`ContinuousExecutor.run_batch`) is that loop with no membership
edits. :class:`repro.core.pipeline.ExionPipeline` picks between them by
how many seeds a call carries: the 2-D engine is the faster one for a
batch of one, the batched engine from two up. Neither holds a copy of
the network's shape: both hand their compiled transformer block to
:meth:`repro.models.network.DiffusionNetwork.walk`, the oracle's own
loop over ResBlocks, pooling and the UNet skip. Both are
**bit-identical** to the sequential interpreted path, which stays in the
tree as the reference oracle: the differential parity suite in
``tests/exec/`` holds samples and :class:`~repro.core.sparsity.RunStats`
byte-for-byte equal across every model, ablation and seed it sweeps.
"""

from repro.exec.continuous import (
    ContinuousExecutor,
    PhaseSyncError,
    RequestRun,
)
from repro.exec.executor import CompiledExecutor

__all__ = [
    "CompiledExecutor",
    "ContinuousExecutor",
    "PhaseSyncError",
    "RequestRun",
]
