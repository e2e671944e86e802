"""Batched multi-request serving of EXION generation.

The paper's FFN-Reuse and ConMerge mechanisms amortize work *across
diffusion iterations*; this package amortizes the same way *across
concurrent requests*:

- :mod:`repro.serve.request` — request/result records;
- :mod:`repro.serve.continuous` — :class:`ContinuousServer`, the one
  server: requests join/leave the live batch between denoising
  iterations (joins at dense-phase boundaries only), with priority
  classes, per-tenant weighted fair queuing (:class:`FairQueue`),
  preemption, and SLA-aware admission/expiry. Drain-and-refill
  micro-batching is the same scheduler with mid-flight joins off
  (``ContinuousPolicy(drain=True)``); ``max_wait_s`` is the classic
  dynamic-batching wait;
- :mod:`repro.serve.cache` — cross-request memoization of built models
  and offline-calibrated threshold tables.

An offline batch needs no server:
:meth:`repro.core.pipeline.ExionPipeline.generate_batch` hands its seeds
to the engine the server ticks
(:meth:`repro.exec.ContinuousExecutor.run_batch` — a drained micro-batch
is a continuous batch with no membership edits).

Quickstart::

    from repro.serve import ContinuousPolicy, ContinuousServer

    server = ContinuousServer("dit", policy=ContinuousPolicy(max_batch_size=8))
    ids = [server.submit(seed=s, class_label=207) for s in range(8)]
    results = server.run_until_drained()
    print(results[0].result.stats.ffn_output_sparsity)

Every request computes exactly what a sequential
``ExionPipeline.generate()`` call would: same samples, same per-request
:class:`~repro.core.sparsity.RunStats`. See
``benchmarks/bench_serve_throughput.py`` for that parity at full scale.

The server also exposes the hooks the fleet simulator
(:mod:`repro.cluster`) drives it with: an injectable ``clock``, a
``price`` callable ``(batch_size, phase) -> (seconds, joules)`` that
substitutes simulated step prices for wall-clock measurement, and a
``dry_run`` mode that accounts for queueing/batching without running
the numeric generation.
"""

from repro.serve.cache import ThresholdCache
from repro.serve.continuous import (
    ContinuousPolicy,
    ContinuousServer,
    FairQueue,
    QueueEntry,
    ServeReport,
)
from repro.serve.request import GenerationRequest, Priority, RequestResult

__all__ = [
    "ContinuousPolicy",
    "ContinuousServer",
    "FairQueue",
    "GenerationRequest",
    "Priority",
    "QueueEntry",
    "RequestResult",
    "ServeReport",
    "ThresholdCache",
]
