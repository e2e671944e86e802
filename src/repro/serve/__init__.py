"""Batched multi-request serving of EXION generation.

The paper's FFN-Reuse and ConMerge mechanisms amortize work *across
diffusion iterations*; this package amortizes the same way *across
concurrent requests*:

- :mod:`repro.serve.request` — request/result records;
- :mod:`repro.serve.queue` / :mod:`repro.serve.scheduler` — FIFO queue
  plus the micro-batching policy (max batch size, max wait);
- :mod:`repro.serve.batched` — :class:`BatchedPipeline`, the
  request-level front of the one batched engine
  (:class:`repro.exec.ContinuousExecutor`); a drained micro-batch is a
  continuous batch with no membership edits;
- :mod:`repro.serve.cache` — cross-request memoization of built models
  and offline-calibrated threshold tables;
- :mod:`repro.serve.server` — :class:`ExionServer`, the front door;
- :mod:`repro.serve.continuous` — :class:`ContinuousServer`,
  iteration-level continuous batching: requests join/leave the live
  batch between denoising iterations (joins at dense-phase boundaries
  only), with priority classes, per-tenant weighted fair queuing,
  preemption, and SLA-aware admission/expiry.

Quickstart::

    from repro.serve import BatchingPolicy, ExionServer

    server = ExionServer("dit", policy=BatchingPolicy(max_batch_size=8))
    ids = [server.submit(seed=s, class_label=207) for s in range(8)]
    results = server.run_until_drained()
    print(results[0].result.stats.ffn_output_sparsity)

Every request computes exactly what a sequential
``ExionPipeline.generate()`` call would: same samples, same per-request
:class:`~repro.core.sparsity.RunStats`. See
``benchmarks/bench_serve_throughput.py`` for the throughput comparison.

The server also exposes the hooks the fleet simulator
(:mod:`repro.cluster`) drives it with: an injectable ``clock``, a
per-batch ``service_time`` callable that substitutes simulated service
times for wall-clock measurement, and a ``dry_run`` mode that accounts
for queueing/batching without running the numeric generation.
"""

from repro.serve.batched import BatchedPipeline
from repro.serve.cache import ThresholdCache
from repro.serve.continuous import (
    ContinuousPolicy,
    ContinuousServeReport,
    ContinuousServer,
    FairQueue,
    QueueEntry,
)
from repro.serve.queue import RequestQueue
from repro.serve.request import GenerationRequest, Priority, RequestResult
from repro.serve.scheduler import BatchingPolicy, MicroBatch, Scheduler
from repro.serve.server import ExionServer, ServeReport

__all__ = [
    "BatchedPipeline",
    "BatchingPolicy",
    "ContinuousPolicy",
    "ContinuousServeReport",
    "ContinuousServer",
    "ExionServer",
    "FairQueue",
    "GenerationRequest",
    "MicroBatch",
    "Priority",
    "QueueEntry",
    "RequestQueue",
    "RequestResult",
    "Scheduler",
    "ServeReport",
    "ThresholdCache",
]
