"""Compiled execution of the generation hot path.

The interpreted stack (the executor hooks behind
``ExionPipeline(compiled=False)``) re-derives per-step work every
iteration: it re-quantizes constant weight matrices for the log-domain
prediction, re-walks bitmasks and re-embeds deterministic timesteps.
:mod:`repro.exec` splits that work along the plan-time / step-time
boundary the :class:`~repro.program.compiled.CompiledPlan` fixes:

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

This package holds only the engine; the compiled kernels live
beside their oracles in :mod:`repro.core.ffn_reuse` and
:mod:`repro.core.eager_prediction`, each written once along a leading
batch axis. :class:`ContinuousExecutor` is the one engine — it advances
a mutable set of requests one plan step per tick, and a drained
micro-batch (:meth:`ContinuousExecutor.run_batch`) is that loop with no
membership edits; :class:`repro.core.pipeline.ExionPipeline` runs every
generation, one seed or many, as such a batch, and every tick calls the
one EP attention step,
:func:`~repro.core.eager_prediction.ep_attention_step_batched`. The
engine holds no copy of the network's shape: it hands its compiled
transformer block to
:meth:`repro.models.network.DiffusionNetwork.walk`, the oracle's own
loop over ResBlocks, pooling and the UNet skip. It is
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

__all__ = [
    "ContinuousExecutor",
    "PhaseSyncError",
    "RequestRun",
]
