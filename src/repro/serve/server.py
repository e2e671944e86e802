"""The serving front door: queue, schedule, batch, account.

:class:`ExionServer` ties the serving layer together: clients
:meth:`~ExionServer.submit` generation requests, the
:class:`~repro.serve.scheduler.Scheduler` coalesces them into
micro-batches under the configured :class:`~repro.serve.scheduler.BatchingPolicy`,
and each batch runs through one
:class:`~repro.serve.batched.BatchedPipeline` drawn from the
:class:`~repro.serve.cache.ThresholdCache` — a drained
:meth:`repro.exec.ContinuousExecutor.run_batch` on the same compiled
engine :class:`~repro.serve.continuous.ContinuousServer` ticks. Results
come back as :class:`~repro.serve.request.RequestResult` records with the
sample and statistics a sequential ``ExionPipeline.generate()`` call
would have produced, plus serving metadata (batch size, queue wait,
service time).

The server is synchronous: :meth:`step` serves at most one micro-batch
and :meth:`run_until_drained` flushes the queue. This keeps behavior
deterministic and testable while modelling exactly the batching dynamics
(coalescing, max-wait dispatch, cross-request cache reuse) a concurrent
front end would exhibit.

Two hooks let the cluster simulator (:mod:`repro.cluster`) drive a server
in virtual time:

- ``service_time`` — a per-batch callable ``(MicroBatch) -> float``; when
  set, batch service times (and therefore ``busy_s``, per-request
  ``service_s`` and throughput) come from it — e.g. the
  :class:`repro.hw.accelerator.ExionAccelerator` latency model — instead
  of wall-clock measurement, so reports are deterministic across machines.
  Wall clock remains the fallback when no hook is installed.
- ``dry_run`` — skip the numeric generation entirely and account only for
  queueing/batching/timing (results carry ``result=None``). Used for
  large fleet sweeps where only the schedule matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import ExionConfig
from repro.core.sparsity import RunStats
from repro.models.zoo import model_cache_key
from repro.serve.cache import ThresholdCache
from repro.serve.queue import RequestQueue
from repro.serve.request import RequestResult
from repro.serve.scheduler import BatchingPolicy, MicroBatch, Scheduler


@dataclass
class ServeReport:
    """Aggregate view of everything a server instance has served.

    ``timing_source`` records where ``busy_s``/``queue_wait_s`` came
    from: ``"simulated"`` when a per-batch ``service_time`` hook drove
    the accounting (deterministic across machines — what the cluster
    event loop installs), ``"wall_clock"`` otherwise.
    """

    requests_served: int = 0
    batches_served: int = 0
    requests_expired: int = 0  # swept at batch formation (timeout/deadline)
    busy_s: float = 0.0  # time spent inside batched generation
    queue_wait_s: float = 0.0  # summed per-request wait before dispatch
    timing_source: str = "wall_clock"
    merged_stats: RunStats = field(default_factory=RunStats)
    cache_info: dict = field(default_factory=dict)
    #: Deterministic nearest-rank latency quantiles, computed by the
    #: owning server from its histogram (``MetricFamily.quantile``).
    latency_quantiles: dict = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        if self.batches_served == 0:
            return 0.0
        return self.requests_served / self.batches_served

    @property
    def mean_wait_s(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.queue_wait_s / self.requests_served

    @property
    def samples_per_s(self) -> float:
        if self.busy_s == 0.0:
            return 0.0
        return self.requests_served / self.busy_s

    def summary(self) -> dict:
        """Flat dict for report printing."""
        return {
            "requests_served": self.requests_served,
            "batches_served": self.batches_served,
            "requests_expired": self.requests_expired,
            "mean_batch_size": self.mean_batch_size,
            "busy_s": self.busy_s,
            "queue_wait_s": self.queue_wait_s,
            "mean_wait_s": self.mean_wait_s,
            "samples_per_s": self.samples_per_s,
            "timing_source": self.timing_source,
            "latency_p50_s": self.latency_quantiles.get("latency_p50_s", 0.0),
            "latency_p95_s": self.latency_quantiles.get("latency_p95_s", 0.0),
            "latency_p99_s": self.latency_quantiles.get("latency_p99_s", 0.0),
            # Sorted so two runs' summaries diff stably regardless of
            # the order cache_info accumulated its keys.
            **{f"cache_{k}": v for k, v in sorted(self.cache_info.items())},
        }


class ExionServer:
    """Batched multi-request serving of one benchmark model."""

    def __init__(
        self,
        model_name: str,
        config: Optional[ExionConfig] = None,
        policy: Optional[BatchingPolicy] = None,
        cache: Optional[ThresholdCache] = None,
        model_seed: int = 0,
        total_iterations: Optional[int] = None,
        depth: Optional[int] = None,
        activation_bits: Optional[int] = None,
        calibrate: bool = False,
        calibration_seed: int = 0,
        clock=time.perf_counter,
        retain_results: bool = True,
        service_time: Optional[Callable[[MicroBatch], float]] = None,
        dry_run: bool = False,
        observer=None,
    ) -> None:
        model_cache_key(model_name, model_seed, total_iterations, depth)
        self.model_name = model_name
        self.config = (
            config if config is not None else ExionConfig.for_model(model_name)
        )
        self.cache = cache if cache is not None else ThresholdCache()
        # Nil-by-default observability: hooks only fire when an observer
        # is installed, so the unobserved server is byte-for-byte the
        # pre-obs code path.
        self.observer = observer
        if observer is not None:
            self.cache.observer = observer
        self.queue = RequestQueue()
        self.scheduler = Scheduler(self.queue, policy, observer=observer)
        self._clock = clock
        self.service_time = service_time
        self.dry_run = dry_run
        self._pipeline_kwargs = dict(
            config=self.config,
            model_seed=model_seed,
            total_iterations=total_iterations,
            depth=depth,
            activation_bits=activation_bits,
            calibrate=calibrate,
            calibration_seed=calibration_seed,
        )
        # Served results are retained for result() lookups by default; a
        # long-lived server can pass retain_results=False and consume the
        # step()/run_until_drained() return values instead, keeping memory
        # flat. Aggregate statistics accumulate incrementally either way.
        self.retain_results = retain_results
        self.results: dict[int, RequestResult] = {}
        self._requests_served = 0
        self._batches_served = 0
        self._busy_s = 0.0
        self._wait_s = 0.0
        self._merged_stats = RunStats()
        # Local import: repro.obs package init transitively imports the
        # serve layer, so a module-level obs import here would cycle.
        # Constructor bodies run at instantiation time, which is safe.
        from repro.obs.metrics import MetricFamily
        from repro.obs.observer import TIME_BUCKETS

        self._latency_hist = MetricFamily(
            "serve_latency_seconds", "histogram",
            "End-to-end request latency", buckets=TIME_BUCKETS,
        )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> int:
        """Enqueue one generation request; returns its request id."""
        request = self.queue.submit(
            seed=seed, prompt=prompt, class_label=class_label,
            now=self._clock(), tenant=tenant, priority=priority,
            deadline_s=deadline_s,
        )
        if self.observer is not None:
            self.observer.on_membership(
                "submit", request.submitted_at, request.request_id,
                tenant=request.tenant, priority=int(request.priority),
                deadline_s=request.deadline_s, model=self.model_name,
            )
        return request.request_id

    def step(self) -> list[RequestResult]:
        """Serve at most one micro-batch if the policy says it is due."""
        batch = self.scheduler.next_batch(now=self._clock())
        if batch is None:
            return []
        return self._serve(batch)

    def run_until_drained(self) -> list[RequestResult]:
        """Flush the whole queue; results ordered by request id."""
        served: list[RequestResult] = []
        for batch in self.scheduler.drain(now=self._clock()):
            served.extend(self._serve(batch))
        return sorted(served, key=lambda r: r.request_id)

    def result(self, request_id: int, pop: bool = False) -> RequestResult:
        """A finished request's result (KeyError if not served yet).

        ``pop=True`` releases the stored result after returning it, so
        clients that fetch-once can keep the server's memory flat.
        """
        if pop:
            return self.results.pop(request_id)
        return self.results[request_id]

    def report(self) -> ServeReport:
        """Aggregate throughput and sparsity statistics so far."""
        return ServeReport(
            requests_served=self._requests_served,
            batches_served=self._batches_served,
            requests_expired=self.scheduler.expired_total,
            busy_s=self._busy_s,
            queue_wait_s=self._wait_s,
            timing_source=(
                "simulated" if self.service_time is not None else "wall_clock"
            ),
            merged_stats=RunStats.merged([self._merged_stats]),
            cache_info=self.cache.info(),
            latency_quantiles={
                "latency_p50_s": self._latency_hist.quantile(0.50),
                "latency_p95_s": self._latency_hist.quantile(0.95),
                "latency_p99_s": self._latency_hist.quantile(0.99),
            },
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _serve(self, batch: MicroBatch) -> list[RequestResult]:
        if self.dry_run:
            generations = [None] * len(batch)
            service_s = 0.0
        else:
            pipeline = self.cache.pipeline(
                self.model_name, **self._pipeline_kwargs
            )
            start = self._clock()
            generations = pipeline.run_batch(batch.requests)
            service_s = max(0.0, self._clock() - start)
        # Simulated service time (cluster event loop) beats the wall-clock
        # measurement whenever a hook is installed.
        if self.service_time is not None:
            service_s = float(self.service_time(batch))

        served = []
        completed_at = batch.formed_at + service_s
        for request, generation in zip(batch.requests, generations):
            wait_s = max(0.0, batch.formed_at - request.submitted_at)
            self._latency_hist.observe(
                max(0.0, completed_at - request.submitted_at)
            )
            record = RequestResult(
                request=request,
                result=generation,
                batch_size=len(batch),
                wait_s=wait_s,
                service_s=service_s,
            )
            if self.retain_results:
                self.results[request.request_id] = record
            served.append(record)
            self._wait_s += wait_s
            if generation is not None:
                self._merged_stats.merge_from(generation.stats)
        self._requests_served += len(served)
        self._batches_served += 1
        self._busy_s += service_s
        if self.observer is not None:
            # The batch executes starting at its formation instant; with
            # a simulated service_time hook both endpoints are sim-time.
            self.observer.on_batch(
                batch.formed_at, completed_at, len(batch),
                request_ids=[r.request_id for r in batch.requests],
                tenants=[r.tenant for r in batch.requests],
            )
        return served
