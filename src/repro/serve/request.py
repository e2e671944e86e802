"""Request and result records of the serving layer.

A :class:`GenerationRequest` is what a client submits: the sampling seed
plus the conditioning input (prompt or class label). The serving layer
coalesces requests into micro-batches and returns one
:class:`RequestResult` per request, wrapping the same
:class:`repro.core.pipeline.GenerationResult` a direct
``ExionPipeline.generate()`` call would have produced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.pipeline import GenerationResult


class Priority(enum.IntEnum):
    """Strict request priority classes, higher value served first.

    ``INTERACTIVE`` preempts long-running lower classes at dense-phase
    boundaries in the continuous scheduler; ``BATCH`` is the best-effort
    background tier (relying on aging for starvation freedom).
    """

    BATCH = 0
    STANDARD = 1
    INTERACTIVE = 2


@dataclass(frozen=True)
class GenerationRequest:
    """One client request for a single generated sample.

    ``request_id`` orders results back to clients; ``submitted_at`` is the
    queue clock reading at submission, used by the max-wait batching
    policy and for per-request latency accounting. ``tenant``/``priority``
    feed the continuous scheduler's fair queuing and preemption;
    ``deadline_s`` is an *absolute* clock reading after which serving the
    request is pointless (SLA admission and boundary expiry both check it).
    """

    request_id: int
    seed: int = 0
    prompt: Optional[str] = None
    class_label: Optional[int] = None
    submitted_at: float = 0.0
    tenant: str = "default"
    priority: int = Priority.STANDARD
    deadline_s: Optional[float] = None


@dataclass
class RequestResult:
    """A served request: the generation output plus serving metadata.

    ``result`` is ``None`` when the server ran in accounting-only mode
    (``ContinuousServer(dry_run=True)``, used by the cluster simulator):
    the batching, queueing, and timing metadata are real, but no sample
    was computed.
    """

    request: GenerationRequest
    result: Optional[GenerationResult]
    batch_size: int  # size of the micro-batch this request ran in
    wait_s: float = 0.0  # queue time before the batch formed
    service_s: float = 0.0  # batch execution time (shared by the batch)

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def latency_s(self) -> float:
        """Queue wait plus batch service time."""
        return self.wait_s + self.service_s
