"""The serving loop: one live batch, membership edits at boundaries.

:class:`ContinuousServer` is the only server. Clients :meth:`submit`
generation requests; the server keeps **one live batch** on one
:class:`~repro.exec.ContinuousExecutor` and changes its membership only
where the FFN-Reuse schedule allows:

- **join** — queued requests enter at dense-phase boundaries of the
  :class:`~repro.program.compiled.CompiledPlan` (the FFN-Reuse
  constraint: a joiner's first step is a dense compile, and it may only
  share ticks with members whose remaining schedule agrees with its own
  — :meth:`CompiledPlan.cursors_aligned` proves it per join);
- **leave** — completions drop out mid-phase; the executor absorbs the
  membership change as an index-set edit (no re-trace);
- **evict** — latency-sensitive arrivals preempt lower-priority members
  at boundaries; the victim's run state is retained and re-queued, and
  it resumes from its cursor at a later boundary.

**Drain-and-refill** is the same scheduler with mid-flight joins off
(``ContinuousPolicy(drain=True)``): membership may change only when the
batch is empty, and one :meth:`~ContinuousServer.step` runs the seated
batch to completion — so a request arriving one tick after a dispatch
waits a whole generation. ``max_wait_s`` holds back a partial *empty*
batch in either mode until it fills or its oldest request has waited
that long (classic dynamic batching; ``0`` is greedy).

Scheduling combines three classic mechanisms, all deterministic:

- **priority classes** (:class:`~repro.serve.request.Priority`) with
  optional aging (``aging_s``) for starvation freedom;
- **per-tenant weighted fair queuing** by deficit accounting
  (:class:`FairQueue`): each admission round credits every backlogged
  tenant ``quantum x weight``, and the affordable candidate with the
  largest deficit wins the slot — long-run service is proportional to
  tenant weights (one tenant and one class degenerate to FIFO);
- **SLA-aware admission and expiry**: requests carry absolute deadlines;
  admission rejects infeasible ones at the door, and every boundary
  re-checks deadlines of queued *and running* requests, so an expired
  request never occupies a batch slot for a full denoising run.

The server is synchronous and reads time only through its injectable
``clock``. Two hooks let the cluster simulator (:mod:`repro.cluster`)
drive it in virtual time: ``price`` maps each step's ``(batch_size,
phase)`` to simulated ``(seconds, joules)`` from the hardware model
instead of wall clock, and ``dry_run`` skips the numeric generation and
accounts only for queueing, batching and timing (results carry
``result=None``). Sparsity statistics stay per request, on each
result's :class:`~repro.core.sparsity.RunStats`; :class:`ServeReport`
counts throughput and scheduling only.

Per-request outputs remain byte-identical to solo sequential generation
whenever the composition allows (always, for joins the alignment
predicate admits) — enforced by the differential suite in
``tests/serve/test_continuous_parity.py`` and the hypothesis property
suite in ``tests/serve/test_continuous_property.py``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.config import ExionConfig
from repro.program.cache import get_plan_cache
from repro.serve.cache import ThresholdCache
from repro.serve.request import (
    GenerationRequest, Priority, RequestResult, require_finite,
)
from repro.workloads.specs import get_spec

#: Safety bound on deficit top-up rounds within one admission call.
_MAX_CREDIT_ROUNDS = 10_000


@dataclass(frozen=True)
class ContinuousPolicy:
    """Knobs of the batching decision.

    ``drain`` turns mid-flight joins off: the batch refills only once it
    is empty and a step runs it to completion (drain-and-refill).
    ``max_wait_s`` holds back a partial empty batch until its oldest
    request has waited that long. ``quantum`` is the deficit credit a
    weight-1.0 tenant earns per admission round, in units of *normalized
    generation cost* (one full denoising run = 1.0). ``aging_s``
    promotes a queued request one priority class per interval waited
    (``None`` = strict priorities).
    ``timeout_s``/``min_service_s`` are the SLA levers: queue-wait
    timeout, and the service floor used to reject already-infeasible
    deadlines at the door. A queue-depth bound is the fleet's
    (:class:`repro.cluster.slo.SLOPolicy`), enforced per replica.
    """

    max_batch_size: int = 8
    quantum: float = 1.0
    preempt: bool = True
    aging_s: Optional[float] = None
    timeout_s: Optional[float] = None
    min_service_s: float = 0.0
    max_wait_s: float = 0.0
    drain: bool = False

    def __post_init__(self) -> None:
        require_finite(
            max_batch_size=self.max_batch_size, quantum=self.quantum,
            aging_s=self.aging_s, timeout_s=self.timeout_s,
            min_service_s=self.min_service_s, max_wait_s=self.max_wait_s,
        )
        size = self.max_batch_size
        if isinstance(size, bool) or not isinstance(size, numbers.Integral):
            raise ValueError(f"max_batch_size must be an integer, got {size!r}")
        if size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0.0:
            raise ValueError("max_wait_s must be >= 0")
        if self.quantum <= 0.0:
            raise ValueError("quantum must be > 0")
        if self.aging_s is not None and self.aging_s <= 0.0:
            raise ValueError("aging_s must be > 0")
        if self.timeout_s is not None and self.timeout_s < 0.0:
            raise ValueError("timeout_s must be >= 0")
        if self.min_service_s < 0.0:
            raise ValueError("min_service_s must be >= 0")


@dataclass
class QueueEntry:
    """One waiting unit of work: a fresh request or a preempted run."""

    request: GenerationRequest
    run: object = None  # RequestRun of a preempted request, else None

    @property
    def cursor(self) -> int:
        return 0 if self.run is None else self.run.cursor


def _earlier(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """The smaller of two optional instants (``None`` = no instant)."""
    if a is None or b is None:
        return b if a is None else a
    return min(a, b)


class FairQueue:
    """Per-tenant queues with weighted deficit accounting.

    Tenants are served in proportion to their weights over time: every
    admission round credits each backlogged tenant ``quantum x weight``,
    an admission debits the chosen tenant by the work's normalized cost,
    and the largest deficit among affordable candidates wins. A tenant
    whose backlog empties forfeits its residual deficit (the classic DRR
    rule preventing credit hoarding).

    The queue counts its entries (a push adds one, a removal or an
    expiry subtracts what it took, and :attr:`is_empty` follows the
    count), and max-wait and expiry decisions
    read only the oldest submission and the earliest deadline, which the
    queue memoises: a push folds in O(1), a removal drops the memo for
    the next read to rebuild. So ``len``, :attr:`is_empty`,
    :meth:`oldest_wait`, :meth:`next_expiry` and a no-op :meth:`expire`
    — what the fleet simulator calls on every event — cost O(1).
    """

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        quantum: float = 1.0,
        aging_s: Optional[float] = None,
    ) -> None:
        self.weights = dict(weights or {})
        for tenant, weight in self.weights.items():
            require_finite(**{f"tenant {tenant!r} weight": weight})
            if weight <= 0.0:
                raise ValueError(f"tenant {tenant!r} weight must be > 0")
        self.quantum = quantum
        self.aging_s = aging_s
        self._tenants: dict[str, list[QueueEntry]] = {}
        self._deficit: dict[str, float] = {}
        self._bounds_memo: Optional[tuple] = None
        self._count = 0
        self.is_empty = True  # kept with the count: read on every event

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def push(self, entry: QueueEntry) -> None:
        tenant = entry.request.tenant
        self._tenants.setdefault(tenant, []).append(entry)
        self._deficit.setdefault(tenant, 0.0)
        self._count += 1
        self.is_empty = False
        if self._bounds_memo is not None:
            oldest, deadline = self._bounds_memo
            self._bounds_memo = (
                _earlier(oldest, entry.request.submitted_at),
                _earlier(deadline, entry.request.deadline_s),
            )

    def entries(self) -> list[QueueEntry]:
        """Every waiting entry (inspection / expiry), tenant-grouped."""
        out: list[QueueEntry] = []
        for tenant in self._tenants:
            out.extend(self._tenants[tenant])
        return out

    def remove(self, entry: QueueEntry) -> None:
        queue = self._tenants[entry.request.tenant]
        queue.remove(entry)
        self._count -= 1
        self.is_empty = not self._count
        self._bounds_memo = None
        if not queue:
            self._deficit[entry.request.tenant] = 0.0

    def _bounds(self) -> tuple:
        """Rebuild the memo: ``(oldest submitted_at, earliest deadline_s)``
        over every entry; either is ``None`` when no entry carries one."""
        requests = [entry.request for entry in self.entries()]
        self._bounds_memo = (
            min((r.submitted_at for r in requests), default=None),
            min(
                (r.deadline_s for r in requests if r.deadline_s is not None),
                default=None,
            ),
        )
        return self._bounds_memo

    def effective_priority(self, entry: QueueEntry, now: float) -> int:
        """Base class promoted by aging (starvation freedom)."""
        base = int(entry.request.priority)
        if self.aging_s is None:
            return base
        waited = max(0.0, now - entry.request.submitted_at)
        return min(int(Priority.INTERACTIVE), base + int(waited / self.aging_s))

    def oldest_wait(self, now: float) -> float:
        """Queue time of the longest-waiting entry; 0 when empty."""
        oldest, _ = self._bounds_memo or self._bounds()
        return 0.0 if oldest is None else max(0.0, now - oldest)

    def next_expiry(self, timeout_s: Optional[float]) -> Optional[float]:
        """Earliest instant :meth:`expire` would drop something, if any."""
        oldest, due = self._bounds_memo or self._bounds()
        if timeout_s is not None and oldest is not None:
            # Expiry is strict (wait > timeout): one ulp later.
            due = _earlier(
                due, math.nextafter(oldest + timeout_s, math.inf)
            )
        return due

    def best_priority(self, now: float) -> Optional[int]:
        """Highest effective class currently waiting (None when empty)."""
        best = None
        for entry in self.entries():
            eff = self.effective_priority(entry, now)
            best = eff if best is None else max(best, eff)
        return best

    def expire(
        self, now: float, timeout_s: Optional[float]
    ) -> list[QueueEntry]:
        """Drop entries past the queue-wait timeout or their deadline."""
        oldest, deadline = self._bounds_memo or self._bounds()
        any_timed_out = (
            timeout_s is not None
            and oldest is not None
            and now - oldest > timeout_s
        )
        if not any_timed_out and not (deadline is not None and now >= deadline):
            return []  # the oldest and the most urgent entry survive: all do
        self._bounds_memo = None
        dropped = []
        for tenant, queue in self._tenants.items():
            survivors = []
            for entry in queue:
                request = entry.request
                timed_out = (
                    timeout_s is not None
                    and now - request.submitted_at > timeout_s
                )
                past_deadline = (
                    request.deadline_s is not None
                    and now >= request.deadline_s
                )
                if timed_out or past_deadline:
                    dropped.append(entry)
                else:
                    survivors.append(entry)
            self._tenants[tenant] = survivors
            if not survivors:
                self._deficit[tenant] = 0.0
        self._count -= len(dropped)
        self.is_empty = not self._count
        return dropped

    # ------------------------------------------------------------------
    def select(
        self,
        now: float,
        slots: int,
        cost_fn: Callable[[QueueEntry], float],
        eligible_fn: Callable[[QueueEntry], bool],
    ) -> list[QueueEntry]:
        """Admit up to ``slots`` entries under priority + weighted DRR.

        Entries of the highest effective class go first; within a class,
        the affordable candidate whose tenant holds the largest deficit
        wins (ties: earlier submission, then request id). Deficits are
        credited one round at a time until someone can afford admission,
        so a positive quantum guarantees progress.
        """
        admitted: list[QueueEntry] = []
        # Eligibility is fixed for the call (same instant, same members).
        candidates = [e for e in self.entries() if eligible_fn(e)]
        for _ in range(_MAX_CREDIT_ROUNDS):
            if slots <= 0 or not candidates:
                break
            top = max(self.effective_priority(e, now) for e in candidates)
            contenders = [
                e for e in candidates
                if self.effective_priority(e, now) == top
            ]
            affordable = [
                e for e in contenders
                if self._deficit[e.request.tenant] >= cost_fn(e)
            ]
            if not affordable:
                # Credit round: every backlogged tenant with a contender
                # earns quantum x weight, then retry.
                for tenant in {e.request.tenant for e in contenders}:
                    self._deficit[tenant] += self.quantum * self.weight(tenant)
                continue
            winner = max(
                affordable,
                key=lambda e: (
                    self._deficit[e.request.tenant],
                    -e.request.submitted_at,
                    -e.request.request_id,
                ),
            )
            self._deficit[winner.request.tenant] -= cost_fn(winner)
            self.remove(winner)
            candidates.remove(winner)
            admitted.append(winner)
            slots -= 1
        else:  # pragma: no cover - positive quantum always progresses
            raise RuntimeError("fair-queue credit loop failed to progress")
        return admitted


@dataclass
class ServeReport:
    """Aggregate view of everything a server instance has served.

    The server keeps one as its running totals, the only tally of each
    count. ``ticks`` counts one per :meth:`ContinuousServer.step`
    dispatch, i.e. per denoising iteration of the live batch, or per
    whole micro-batch under ``drain``; :meth:`summary` also reports it
    as ``batches_served``.
    ``mean_occupancy`` is the average number of requests sharing each
    dispatch — the quantity continuous batching exists to raise. Each
    record :meth:`ContinuousServer.pop_dropped` hands over is counted
    once, in ``requests_expired`` or ``deadline_evictions``.
    ``timing_source`` records where ``busy_s`` /
    ``queue_wait_s`` came from: ``"simulated"`` when a ``price`` hook
    drove the accounting (deterministic across machines — what the
    cluster event loop installs), ``"wall_clock"`` otherwise.
    """

    requests_served: int = 0
    requests_expired: int = 0  # swept at boundaries (timeout/deadline)
    busy_s: float = 0.0  # time spent inside batched generation
    queue_wait_s: float = 0.0  # summed per-request wait before seating
    timing_source: str = "wall_clock"
    cache_info: dict = field(default_factory=dict)
    #: Deterministic nearest-rank latency quantiles, computed by the
    #: owning server from its histogram (``Histogram.quantile``).
    latency_quantiles: dict = field(default_factory=dict)
    ticks: int = 0
    occupancy_ticks: int = 0  # sum over ticks of live batch size
    joins: int = 0
    preemptions: int = 0
    sla_rejects: int = 0
    deadline_evictions: int = 0

    @property
    def mean_batch_size(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.requests_served / self.ticks

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

    @property
    def mean_occupancy(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.occupancy_ticks / self.ticks

    def summary(self) -> dict:
        """Flat dict for report printing."""
        return {
            "requests_served": self.requests_served,
            "batches_served": self.ticks,
            "requests_expired": self.requests_expired,
            "mean_batch_size": self.mean_batch_size,
            "busy_s": self.busy_s,
            "queue_wait_s": self.queue_wait_s,
            "mean_wait_s": self.mean_wait_s,
            "samples_per_s": self.samples_per_s,
            "timing_source": self.timing_source,
            **self.latency_quantiles,
            # Sorted so two runs' summaries diff stably regardless of
            # the order cache_info accumulated its keys.
            **{f"cache_{k}": v for k, v in sorted(self.cache_info.items())},
            "ticks": self.ticks,
            "mean_occupancy": self.mean_occupancy,
            "joins": self.joins,
            "preemptions": self.preemptions,
            "sla_rejects": self.sla_rejects,
            "deadline_evictions": self.deadline_evictions,
        }


class _DryRun:
    """Cursor-only stand-in for a :class:`RequestRun` in dry-run mode."""

    def __init__(self, request: GenerationRequest) -> None:
        self.request = request
        self.request_id = request.request_id
        self.cursor = 0


class ContinuousServer:
    """Batched multi-request serving of one benchmark model.

    :meth:`step` advances the live batch **one denoising iteration**;
    membership is rebalanced (expiry, preemption, joins) whenever the
    batch sits at a dense-phase boundary. Under ``policy.drain`` the
    only boundary is the empty batch and a step runs the batch it just
    seated through every remaining iteration. ``price`` is the cluster
    hook: a callable ``(batch_size, phase) -> (seconds, joules)`` pricing
    one step — phase ``"dense"`` / ``"sparse"`` for a tick, ``"batch"``
    for a drained generation — with the hardware model instead of
    wall-clock measurement. A price is a function of its point: the
    server asks the hook once per ``(batch_size, phase)`` and keeps the
    answer. ``cold_start_s`` is a one-time surcharge added to the first
    step's seconds (model load / calibration).
    """

    def __init__(
        self,
        model_name: str,
        config: Optional[ExionConfig] = None,
        policy: Optional[ContinuousPolicy] = None,
        tenant_weights: Optional[Mapping[str, float]] = None,
        cache: Optional[ThresholdCache] = None,
        model_seed: int = 0,
        total_iterations: Optional[int] = None,
        calibrate: bool = False,
        calibration_seed: int = 0,
        clock=time.perf_counter,
        price: Optional[Callable[[int, str], tuple]] = None,
        cold_start_s: Optional[float] = None,
        dry_run: bool = False,
        retain_results: bool = True,
        observer=None,
    ) -> None:
        if total_iterations is not None and total_iterations < 1:
            raise ValueError(
                f"total_iterations must be >= 1, got {total_iterations}"
            )
        self.model_name = model_name
        self.config = (
            config if config is not None else ExionConfig.for_model(model_name)
        )
        self.policy = policy if policy is not None else ContinuousPolicy()
        self.cache = cache if cache is not None else ThresholdCache()
        self._clock = clock
        self.price = price
        self.cold_start_s = cold_start_s
        #: Whether the first step ran and paid ``cold_start_s``.
        self.cold_charged = False
        self.dry_run = dry_run
        #: Whether :attr:`results` and :attr:`events` keep what was served;
        #: off, the server's memory stays flat over a long trace.
        self.retain_results = retain_results
        # Nil-by-default observability: every hook below is guarded by
        # an `is not None` check, so a server without an observer does
        # exactly the work it did before the obs layer existed.
        self.observer = observer
        self._model_seed = model_seed
        self._total_iterations = total_iterations
        self._calibrate = calibrate
        self._calibration_seed = calibration_seed

        if dry_run:
            self._executor = None
            spec = get_spec(model_name)
            self.plan = get_plan_cache().compiled(
                spec, self.config, iterations=total_iterations
            )
        else:
            self._executor = self._build_executor()
            self._executor.observer = observer
            self.plan = self._executor.compiled_plan
        # plan.is_boundary per cursor; a live run's entry is its dense flag
        self._boundaries = tuple(
            map(self.plan.is_boundary, range(self.plan.iterations + 1))
        )

        self.queue = FairQueue(
            weights=tenant_weights,
            quantum=self.policy.quantum,
            aging_s=self.policy.aging_s,
        )
        self.active: list = []
        #: One row per join, completion, eviction and expiry (with
        #: ``retain_results``).
        self.events: list[dict] = []
        self.results: dict[int, RequestResult] = {}
        self.last_tick_s = 0.0
        #: The most recent step, as the cluster replica reads it: phase
        #: ("dense"/"sparse", or "batch" under drain; "" = nothing ran),
        #: its members' request ids, the cold surcharge included in
        #: ``last_tick_s``, and the step's priced energy.
        self.last_tick_phase = ""
        self.last_tick_members: tuple = ()
        self.last_tick_cold_s = 0.0
        self.last_tick_energy_j = 0.0
        # The live batch's member ids, rebuilt only after membership
        # changed: at a boundary or when runs finish.
        self._members: Optional[tuple] = None
        self._next_id = 0
        self._joined_at: dict[int, float] = {}
        self._totals = ServeReport(
            timing_source="simulated" if price is not None else "wall_clock"
        )
        self._dropped: list[tuple[GenerationRequest, str]] = []
        # Local import: repro.obs.scenario imports this module, so a
        # top-level obs import here would deadlock package init. This
        # runs at construction time, never at import time.
        from repro.obs.metrics import TIME_BUCKETS, Histogram

        self._latency_hist = Histogram("serve_latency_seconds", TIME_BUCKETS)
        self._prices: dict = {}  # (batch_size, phase) -> (seconds, joules)

    def _build_executor(self):
        from repro.exec.continuous import ContinuousExecutor

        model = self.cache.model(
            self.model_name, self._model_seed, self._total_iterations,
            observer=self.observer,
        )
        table = None
        if self._calibrate and self.config.enable_ffn_reuse:
            table = self.cache.table(
                self.model_name, self.config, self._model_seed,
                self._total_iterations, self._calibration_seed,
                observer=self.observer,
            )
        return ContinuousExecutor(model, self.config, threshold_table=table)

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
    ) -> Optional[int]:
        """Enqueue one request; ``None`` when admission control rejects
        a deadline that cannot be met even by the fastest possible
        service (counted in ``sla_rejects``). A request
        :class:`GenerationRequest` refuses raises before either.
        """
        now = self._clock()
        request = GenerationRequest(
            request_id=self._next_id,
            seed=seed,
            prompt=prompt,
            class_label=class_label,
            submitted_at=now,
            tenant=tenant,
            priority=(
                Priority.STANDARD if priority is None else int(priority)
            ),
            deadline_s=deadline_s,
        )
        if deadline_s is not None and (
            deadline_s <= now + self.policy.min_service_s
        ):
            self._totals.sla_rejects += 1
            return None
        self._next_id += 1
        self.queue.push(QueueEntry(request=request))
        if self.observer is not None:
            self.observer.on_membership(
                "submit", now, request.request_id,
                tenant=request.tenant, priority=int(request.priority),
                deadline_s=request.deadline_s, model=self.model_name,
            )
        return request.request_id

    @property
    def has_work(self) -> bool:
        return bool(self.active) or not self.queue.is_empty

    def at_boundary(self) -> bool:
        """Whether batch membership may change right now."""
        if self.policy.drain:
            return not self.active
        boundaries = self._boundaries
        for run in self.active:
            if not boundaries[run.cursor]:
                return False
        return True

    def due(self, now: float) -> bool:
        """Whether a step at ``now`` would run a batch: one is live, a
        full one is queued, or the oldest request waited ``max_wait_s``."""
        if self.active:
            return True
        if self.queue.is_empty:
            return False
        return (
            len(self.queue) >= self.policy.max_batch_size
            or self.queue.oldest_wait(now) >= self.policy.max_wait_s
        )

    def pop_dropped(self) -> list[tuple[GenerationRequest, str]]:
        """Drain the (request, reason) drop records; an empty result is the
        server's own buffer, to read at once."""
        dropped = self._dropped
        if dropped:
            self._dropped = []
        return dropped

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------
    def step(self, now: Optional[float] = None) -> list[RequestResult]:
        """One denoising iteration of the live batch.

        Rebalances membership first when at a boundary, then ticks every
        active run one plan step — or, under ``drain``, through all the
        steps the just-seated batch has left. Returns the requests that
        completed (their results retained when configured).
        """
        return self._step(self._clock() if now is None else now)

    def _step(self, now: float, flush: bool = False) -> list[RequestResult]:
        """:meth:`step` at ``now``; ``flush`` seats a partial batch
        without waiting out ``max_wait_s``."""
        observer = self.observer
        if observer is not None:
            observer.now = now
        was_boundary = self.at_boundary()
        if was_boundary:
            self._rebalance(now, flush)
            self._members = None
        if observer is not None:
            observer.on_queue_depth("continuous", len(self.queue), now)
        active = self.active
        if not active:
            self.last_tick_s = self.last_tick_cold_s = self.last_tick_energy_j = 0.0
            self.last_tick_phase, self.last_tick_members = "", ()
            return []

        drain = self.policy.drain
        batch_size = len(active)
        members = self._members
        if members is None:
            members = self._members = tuple(run.request_id for run in active)
        boundaries = self._boundaries
        iterations = len(boundaries) - 1
        cursor = active[0].cursor
        phase = "batch" if drain else "dense" if boundaries[cursor] else "sparse"
        steps = iterations - cursor if drain else 1
        if self.dry_run:
            finished = []
            for run in active:
                run.cursor += steps
                if run.cursor == iterations:
                    finished.append(run)
            tick_s = 0.0
        else:
            start = self._clock()
            for _ in range(steps):
                finished = self._executor.run_tick(active)
            tick_s = max(0.0, self._clock() - start)
        energy_j = 0.0
        if self.price is not None:
            point = (batch_size, phase)
            if point not in self._prices:
                self._prices[point] = tuple(map(float, self.price(*point)))
            tick_s, energy_j = self._prices[point]
        cold_s = 0.0
        if self.cold_start_s is not None and not self.cold_charged:
            cold_s = max(0.0, float(self.cold_start_s))
            self.cold_charged = True
            tick_s += cold_s
        if observer is not None:  # drain lists its batch while it is live
            span_args = (
                {"request_ids": list(members),
                 "tenants": [run.request.tenant for run in active]}
                if drain else {"cursor": cursor, "boundary": was_boundary}
            )

        completed_at = now + tick_s
        totals = self._totals
        served: list[RequestResult] = []
        if finished:
            self._members = None
        for run in finished:
            active.remove(run)
            generation = (
                None if self.dry_run else self._executor.finish_run(run)
            )
            joined_at = self._joined_at.pop(run.request_id)
            wait_s = max(0.0, joined_at - run.request.submitted_at)
            self._latency_hist.observe(
                max(0.0, completed_at - run.request.submitted_at)
            )
            record = RequestResult(
                request=run.request,
                result=generation,
                batch_size=batch_size,
                wait_s=wait_s,
                # Seated on this very step: the step's price itself, not
                # (now + tick_s) - now, which drifts in the last ulp.
                service_s=(
                    tick_s if joined_at == now
                    else max(0.0, completed_at - joined_at)
                ),
            )
            if self.retain_results:
                self.results[run.request_id] = record
            served.append(record)
            totals.queue_wait_s += wait_s
            totals.requests_served += 1
            self._edit("complete", completed_at, run.request_id,
                       batch_size=batch_size)
        if observer is not None:
            if self.price is not None:
                span_args["energy_j"] = energy_j
            if cold_s > 0.0:
                span_args["cold_s"] = cold_s
            observer.on_step(now, completed_at, phase, batch_size, **span_args)
        totals.ticks += 1
        totals.occupancy_ticks += batch_size
        totals.busy_s += tick_s
        self.last_tick_s = tick_s
        self.last_tick_phase = phase
        self.last_tick_members = members
        self.last_tick_cold_s = cold_s
        self.last_tick_energy_j = energy_j
        return served

    def run_until_drained(self) -> list[RequestResult]:
        """Serve until queue and batch are empty (partial batches do not
        wait out ``max_wait_s``); results ordered by request id."""
        served: list[RequestResult] = []
        while self.has_work:
            served.extend(self._step(self._clock(), flush=True))
        return sorted(served, key=lambda r: r.request_id)

    # ------------------------------------------------------------------
    # membership rebalancing (only at dense-phase boundaries)
    # ------------------------------------------------------------------
    def expire_queued(
        self, now: float, timeout_s: Optional[float] = None
    ) -> list[GenerationRequest]:
        """Sweep timed-out / deadline-passed queue entries (accounted).

        ``timeout_s`` overrides the policy's queue-wait timeout for this
        sweep (the cluster event loop passes the fleet SLO timeout).
        """
        effective = timeout_s if timeout_s is not None else self.policy.timeout_s
        dropped = [
            (entry.request, "deadline" if entry.request.deadline_s is not None
             and now >= entry.request.deadline_s else "timeout")
            for entry in self.queue.expire(now, effective)
        ]
        # SLA-infeasible entries only get *more* infeasible as they wait:
        # drop them now rather than letting them linger to their deadline
        # (they could never be seated, so keeping them only skews queue
        # depth and wakes the event loop for nothing).
        if self.policy.min_service_s > 0.0:
            for entry in self.queue.entries():
                if not self._sla_feasible(entry, now):
                    self.queue.remove(entry)
                    dropped.append((entry.request, "sla"))
        for request, reason in dropped:
            self._dropped.append((request, reason))
            self._totals.requests_expired += 1
            self._edit("expire", now, request.request_id, reason=reason)
        return [request for request, _ in dropped]

    def _edit(self, kind: str, now: float, request_id: int,
              members: Optional[list] = None, **fields) -> None:
        """Record one membership edit: an :attr:`events` row (with
        ``retain_results``) and, with an observer, a ``serve/membership``
        event of the same fields; only the row holds the ``members``'
        cursors, as ``active_cursors``, built only for a kept row."""
        if self.retain_results:
            row = {"kind": kind, "now": now, "request_id": request_id, **fields}
            if members is not None:
                row["active_cursors"] = tuple(run.cursor for run in members)
            self.events.append(row)
        if self.observer is not None:
            self.observer.on_membership(kind, now, request_id, **fields)

    def _sla_feasible(self, entry: QueueEntry, now: float) -> bool:
        """Whether ``entry`` could still meet its deadline if seated now."""
        deadline = entry.request.deadline_s
        if deadline is None or self.policy.min_service_s <= 0.0:
            return True
        remaining = (
            self.plan.iterations - entry.cursor
        ) / self.plan.iterations
        return now + self.policy.min_service_s * remaining <= deadline

    def _rebalance(self, now: float, flush: bool = False) -> None:
        if not self.queue.is_empty:
            self.expire_queued(now)

        # Deadline re-check of *running* requests: a member whose
        # deadline already passed is evicted and dropped — it must not
        # occupy a batch slot for the rest of the denoising run. Every
        # eviction's row holds the members from before the first one.
        members = list(self.active)
        for run in members:
            deadline = run.request.deadline_s
            if deadline is not None and now >= deadline:
                self.active.remove(run)
                self._joined_at.pop(run.request_id, None)
                self._totals.deadline_evictions += 1
                self._dropped.append((run.request, "deadline"))
                self._edit("evict", now, run.request_id, members,
                           reason="deadline", cursor=run.cursor)

        # Preemption and joins below both draw on the queue.
        if self.queue.is_empty:
            return

        # Priority preemption: while the batch is full and someone
        # strictly more urgent waits, evict the least urgent member
        # (preferring the longest remaining job among equals). The
        # victim's run state is retained and resumes from its cursor.
        if self.policy.preempt:
            while len(self.active) >= self.policy.max_batch_size:
                best_waiting = self.queue.best_priority(now)
                if best_waiting is None:
                    break
                victim = min(
                    self.active,
                    key=lambda run: (
                        int(run.request.priority),
                        -(self.plan.iterations - run.cursor),
                        -run.request_id,
                    ),
                )
                if int(victim.request.priority) >= best_waiting:
                    break
                self.active.remove(victim)
                self._joined_at.pop(victim.request_id, None)
                self._totals.preemptions += 1
                self.queue.push(QueueEntry(
                    request=victim.request, run=victim,
                ))
                self._edit("evict", now, victim.request_id, self.active,
                           reason="preempt", cursor=victim.cursor)

        # Joins: fill free slots under priority + weighted fair queuing,
        # restricted to entries whose schedule aligns with the members'.
        slots = self.policy.max_batch_size - len(self.active)
        if slots <= 0 or not (flush or self.due(now)):
            return
        cursors = [run.cursor for run in self.active]
        iterations = self.plan.iterations
        # The members do not change inside one select() call, so
        # alignment depends only on the candidate's cursor.
        aligned: dict[int, bool] = {}

        def cost(entry: QueueEntry) -> float:
            return (iterations - entry.cursor) / iterations

        def eligible(entry: QueueEntry) -> bool:
            # SLA feasibility: never seat a request that cannot finish
            # by its deadline even at the service floor — it would burn
            # batch capacity only to be evicted at a later boundary.
            if not self._sla_feasible(entry, now):
                return False
            cursor = entry.cursor
            if cursor not in aligned:
                aligned[cursor] = self.plan.cursors_aligned(
                    cursors + [cursor]
                )
            return aligned[cursor]

        for entry in self.queue.select(now, slots, cost, eligible):
            if entry.run is not None:
                run = entry.run
            elif self.dry_run:
                run = _DryRun(entry.request)
            else:
                run = self._executor.start_run(entry.request)
            self.active.append(run)
            cursors.append(run.cursor)
            self._joined_at.setdefault(run.request_id, now)
            self._totals.joins += 1
            self._edit("join", now, run.request_id, self.active[:-1],
                       cursor=run.cursor, resumed=entry.run is not None)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ServeReport:
        """Aggregate throughput and scheduling statistics so far: the
        running totals, with the fields read on demand filled in."""
        quantile = self._latency_hist.quantile
        return dataclasses.replace(
            self._totals, cache_info=self.cache.info(),
            latency_quantiles={f"latency_p{q}_s": quantile(q / 100)
                               for q in (50, 95, 99)},
        )


__all__ = [
    "ContinuousPolicy",
    "ContinuousServer",
    "FairQueue",
    "QueueEntry",
    "ServeReport",
]
