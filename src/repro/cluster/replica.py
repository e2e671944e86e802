"""One fleet member: an accelerator-backed serving replica in sim time.

A :class:`Replica` wraps real serving machinery — per-(model, ablation)
:class:`~repro.serve.continuous.ContinuousServer` instances sharing one
:class:`~repro.serve.cache.ThresholdCache` — behind a :class:`SimClock`
the event loop advances, so batching decisions (coalescing, max-wait
dispatch, joins at dense boundaries) are exactly what the serving layer
would do, while **step prices come from the hardware simulator**, not
from wall clock: :meth:`ServiceTimeModel.price` is the one route from
``(model, ablation, batch_size, phase)`` to a :class:`StepPrice` of
simulated seconds and joules — it lowers each point once through
:func:`repro.program.lower_plan` and prices the plan with
:meth:`repro.hw.accelerator.ExionAccelerator.simulate_plan` for the
replica's Table II configuration (exion4 / exion24 / exion42). Every
server a replica builds gets that function (bound to its key) as its
``price`` hook and reports each step's seconds, joules and cold
surcharge back; the replica only reads them.

The first batch of a ``(model, ablation)`` on a replica pays a
*cold-start* penalty — one vanilla batch-1 generation, mirroring how the
serving layer's offline threshold calibration costs a full vanilla run —
which is what makes cache-affinity routing worth having. The server
charges it (its ``cold_start_s``), once, on top of the first step's
price.

By default replicas run ``dry_run`` servers (accounting only); pass
``execute=True`` to actually run the numeric generation (slow, but
results then carry real samples and sparsity stats).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.serve.cache import ThresholdCache
from repro.serve.continuous import ContinuousPolicy, ContinuousServer
from repro.workloads.specs import get_spec

#: Table II deployment points by CLI/scenario name.
ACCELERATORS = {
    "exion4": ExionAccelerator.exion4,
    "exion24": ExionAccelerator.exion24,
    "exion42": ExionAccelerator.exion42,
}

class SimClock:
    """A clock the event loop sets by hand; servers read it as ``clock()``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_accelerator(
    accelerator: Union[str, ExionAccelerator],
) -> ExionAccelerator:
    """Resolve a Table II configuration name into an accelerator."""
    if isinstance(accelerator, ExionAccelerator):
        return accelerator
    try:
        return ACCELERATORS[accelerator]()
    except KeyError:
        raise KeyError(
            f"unknown accelerator {accelerator!r}; "
            f"known: {', '.join(sorted(ACCELERATORS))}"
        ) from None


#: What a served step can be: a whole generation (a drain micro-batch),
#: the first iteration of one, or a steady-state dense / sparse iteration.
PHASES = ("batch", "cold", "dense", "sparse")


class StepPrice(NamedTuple):
    """What one served step costs on the simulated accelerator."""

    seconds: float
    joules: float

    def minus(self, other: "StepPrice") -> "StepPrice":
        """The price of the iterations ``self`` has beyond ``other``."""
        return StepPrice(
            max(0.0, self.seconds - other.seconds),
            max(0.0, self.joules - other.joules),
        )


class ServiceTimeModel:
    """Simulated step prices from the EXION hardware model.

    :meth:`price` is the only route from ``(model, ablation, batch_size,
    phase)`` to simulated seconds and joules, memoized per point — the
    hw walk is deterministic, so each point is priced once per model
    instance (and lowered / simulated once per process: every plan,
    pricing and sparsity profile behind it is interned by the global
    :class:`~repro.program.cache.PlanCache`). ``iterations=None`` prices
    full paper-scale generations (``spec.total_iterations``); pass a
    smaller count to model truncated schedules.
    """

    def __init__(
        self,
        accelerator: Union[str, ExionAccelerator] = "exion24",
        iterations: Optional[int] = None,
        profile_seed: int = 0,
    ) -> None:
        self.accelerator = make_accelerator(accelerator)
        self.iterations = iterations
        self.profile_seed = profile_seed
        self._prices: dict = {}  # (model, ablation, batch, phase) -> StepPrice

    @property
    def name(self) -> str:
        return self.accelerator.name

    def price(
        self, model: str, ablation: str, batch_size: int, phase: str
    ) -> StepPrice:
        """Simulated seconds and joules of one step of a batch.

        ``"batch"`` is one whole generation of ``self.iterations``
        denoising iterations — what a drain-and-refill step runs. The
        other phases price **one iteration**, for the continuous
        scheduler's per-iteration ticks, by differencing plan lowerings
        at adjacent iteration counts (the phase schedule is strictly
        periodic with period ``sparse_iters_n + 1``, so three prices
        cover every tick):

        - ``"cold"`` — the first iteration of a generation: the
          1-iteration plan, carrying the dense FFN compile plus the
          per-generation fixed work (conditioning, VAE share);
        - ``"dense"`` — a steady-state dense iteration (phase
          recompile): ``t(P+1) - t(P)``;
        - ``"sparse"`` — a sparse iteration riding the compiled phase:
          ``t(2) - t(1)``.

        Without FFN-Reuse every iteration is dense and ``"dense"``
        prices the uniform steady-state iteration. Seconds and joules of
        a phase come from the same simulations, so they always describe
        the same schedule.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown step phase {phase!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        point = (model, ablation, batch_size)
        if (*point, phase) not in self._prices:
            from repro.program.cache import get_plan_cache

            cache = get_plan_cache()
            # The enable flags come from the same config the served
            # pipeline uses, so priced and executed ablations can't drift.
            config = ExionConfig.for_model(model).ablation(ablation)
            spec = get_spec(model)
            profile = cache.profile(spec, seed=self.profile_seed)

            def t(iterations: Optional[int]) -> StepPrice:
                plan = cache.plan(
                    spec, config=config, iterations=iterations,
                    batch=batch_size,
                )
                report = cache.price(self.accelerator, plan, profile)
                return StepPrice(report.latency_s, report.energy_j)

            if phase == "batch":
                self._prices[(*point, "batch")] = t(self.iterations)
            else:  # the three tick prices share their simulations
                cold = t(1)
                sparse = t(2).minus(cold)
                period = (
                    config.sparse_iters_n + 1 if config.enable_ffn_reuse else 1
                )
                # period 1: no sparse iterations exist; same price.
                dense = sparse if period == 1 else t(period + 1).minus(t(period))
                self._prices.update({
                    (*point, "cold"): cold,
                    (*point, "dense"): dense,
                    (*point, "sparse"): sparse,
                })
        return self._prices[(*point, phase)]

    def latency_s(self, model: str, ablation: str, batch_size: int) -> float:
        """Simulated latency of one micro-batch generation."""
        return self.price(model, ablation, batch_size, "batch").seconds

    def calibration_s(self, model: str) -> float:
        """Cold-start cost: one vanilla (Base ablation) batch-1 generation."""
        return self.latency_s(model, "base", 1)


@dataclass(frozen=True)
class DroppedRequest:
    """A queued request abandoned at its SLO timeout or deadline.

    Only expiry produces records (admission control rejects at the door
    and is tallied as a bare counter on the replica).
    """

    model: str
    ablation: str
    reason: str  # "timeout" or "deadline"
    dropped_at_s: float
    waited_s: float = 0.0


@dataclass
class Dispatch:
    """One micro-batch the replica started executing.

    ``phase`` is the tick phase of a continuous dispatch ("dense" /
    "sparse") or ``"batch"`` for a drain-mode micro-batch; ``cold_s``
    is the cold-start surcharge included in ``service_s`` (0 when
    warm); ``members`` lists ``(request_id, tenant, priority)`` of the
    batch that actually executed (continuous: live-batch occupancy,
    which exceeds ``served`` whenever runs continue past this tick);
    ``energy_j`` is the simulated energy of the dispatch.
    """

    replica: str
    model: str
    ablation: str
    served: list
    started_s: float
    service_s: float
    phase: str = "batch"
    cold_s: float = 0.0
    members: tuple = ()
    energy_j: float = 0.0

    @property
    def completion_s(self) -> float:
        return self.started_s + self.service_s

    @property
    def batch_size(self) -> int:
        return len(self.served)


class Replica:
    """One accelerator's worth of serving capacity inside the fleet.

    Each ``(model, ablation)`` key is served by a
    :class:`~repro.serve.continuous.ContinuousServer`, and each
    :meth:`try_dispatch` executes **one server step**: one iteration of
    the live batch or — under ``policy.drain`` — one whole micro-batch,
    priced either way by :meth:`ServiceTimeModel.price` for the phase
    the server reports.

    One accelerator holds one model's weights and phase state at a time:
    the replica serves a single *active* key and only switches keys when
    the active key has no in-flight generations (its live batch fully
    drained), picking the due key whose head request waited longest.

    Per-generation outputs are the server's responsibility
    (``execute=True`` runs the real numerics, byte-identical to solo
    generation); by default servers are ``dry_run`` cursor machines and
    only the schedule and its prices are simulated.
    """

    def __init__(
        self,
        index: int,
        policy: Optional[ContinuousPolicy] = None,
        service_model: Optional[ServiceTimeModel] = None,
        tenant_weights: Optional[dict] = None,
        execute: bool = False,
        execute_iterations: Optional[int] = None,
    ) -> None:
        self.index = index
        self.policy = (
            policy if policy is not None else ContinuousPolicy(drain=True)
        )
        self.service_model = (
            service_model
            if service_model is not None
            else ServiceTimeModel()
        )
        self.tenant_weights = tenant_weights
        self.execute = execute
        self.execute_iterations = execute_iterations
        self.clock = SimClock()
        self.cache = ThresholdCache()
        # (model, ablation) -> ContinuousServer, kept in key order by
        # _server() so every sweep below visits keys deterministically.
        self.servers: dict = {}
        self.warm_keys: set = set()
        self._active_key: Optional[tuple] = None
        self.busy_until = 0.0
        self._inflight = 0
        self.busy_s = 0.0
        self.requests_served = 0
        self.batches_served = 0  # server steps dispatched
        self.admission_drops = 0
        self.timeout_drops = 0

    @property
    def name(self) -> str:
        return f"replica{self.index}"

    @property
    def accelerator_name(self) -> str:
        return self.service_model.name

    @property
    def cold_starts(self) -> int:
        """Keys whose first step paid the cold-start surcharge."""
        return sum(server.cold_charged for server in self.servers.values())

    def policy_doc(self) -> dict:
        """Scenario fingerprint of this replica's batching policy."""
        if self.policy.drain:
            return {
                "max_batch_size": self.policy.max_batch_size,
                "max_wait_s": self.policy.max_wait_s,
            }
        return {
            "mode": "continuous",
            "max_batch_size": self.policy.max_batch_size,
            "quantum": self.policy.quantum,
            "preempt": self.policy.preempt,
        }

    # ------------------------------------------------------------------
    # routing metrics
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests queued and not yet seated (excludes in-flight)."""
        return sum(len(server.queue) for server in self.servers.values())

    def load(self, now: float) -> int:
        """Join-shortest-queue load: queued plus in-flight requests."""
        if self.policy.drain:
            # A drained batch has left its server when step() returns;
            # it stays in flight until the replica's busy window ends.
            inflight = self._inflight if self.busy_until > now else 0
        else:
            inflight = sum(len(s.active) for s in self.servers.values())
        return self.queue_depth() + inflight

    def is_warm(self, key: tuple) -> bool:
        """Whether this replica has (or is about to have) ``key`` cached."""
        return key in self.warm_keys

    # ------------------------------------------------------------------
    # event-loop interface
    # ------------------------------------------------------------------
    def _server(self, model: str, ablation: str) -> ContinuousServer:
        key = (model, ablation)
        if key not in self.servers:
            config = ExionConfig.for_model(model).ablation(ablation)
            server = ContinuousServer(
                model,
                config=config,
                policy=self.policy,
                tenant_weights=self.tenant_weights,
                cache=self.cache,
                total_iterations=(
                    self.execute_iterations
                    if self.execute
                    else self.service_model.iterations
                ),
                clock=self.clock,
                price=functools.partial(
                    self.service_model.price, model, ablation
                ),
                # The first step of a key also pays one vanilla generation
                # (offline threshold calibration), charged by the server.
                cold_start_s=self.service_model.calibration_s(model),
                dry_run=not self.execute,
                # Only execute mode has results worth fetching afterwards;
                # dry-run sweeps keep memory flat over long traces.
                retain_results=self.execute,
            )
            self.servers = dict(sorted([*self.servers.items(), (key, server)]))
        return self.servers[key]

    def enqueue(self, request, now: float, max_queue_depth=None) -> bool:
        """Admit (or reject) one routed request at simulated time ``now``."""
        if (
            max_queue_depth is not None
            and self.queue_depth() >= max_queue_depth
        ):
            self.admission_drops += 1
            return False
        self.clock.now = now
        server = self._server(request.model, request.ablation)
        accepted = server.submit(
            seed=request.seed,
            prompt=request.prompt,
            class_label=request.class_label,
            tenant=getattr(request, "tenant", "default"),
            priority=getattr(request, "priority", None),
            deadline_s=getattr(request, "deadline_s", None),
        )
        if accepted is None:  # server-side admission (depth / SLA) reject
            self.admission_drops += 1
            return False
        self.warm_keys.add(request.pipeline_key)
        return True

    def _collect_drops(self, now: float) -> list:
        dropped = []
        for key, server in self.servers.items():
            model, ablation = key
            stale = server.pop_dropped()
            for request, reason in stale:
                dropped.append(DroppedRequest(
                    model=model,
                    ablation=ablation,
                    reason=reason,
                    dropped_at_s=now,
                    waited_s=max(0.0, now - request.submitted_at),
                ))
            # A key whose every request expired before any batch ran never
            # actually warmed: stop advertising affinity for it, or the
            # router would keep steering traffic at phantom warmth.
            if stale and not server.has_work and not server.cold_charged:
                self.warm_keys.discard(key)
        self.timeout_drops += len(dropped)
        return dropped

    def expire(self, now: float, timeout_s: Optional[float]) -> list:
        """Drop queued requests past the SLO timeout or their deadline."""
        for server in self.servers.values():
            server.expire_queued(now, timeout_s=timeout_s)
        return self._collect_drops(now)

    def _choose_key(self, now: float) -> Optional[tuple]:
        if self._active_key is not None:
            server = self.servers[self._active_key]
            if server.active:
                return self._active_key  # mid-generation: no model swap
            if not server.has_work:
                self._active_key = None
        # FIFO across models: the due key whose head waited longest.
        best = None
        for key, server in self.servers.items():
            if not server.due(now):
                continue
            candidate = (now - server.queue.oldest_wait(now), key)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        self._active_key = best[1]
        return best[1]

    def next_event_time(
        self, now: float, timeout_s: Optional[float] = None
    ) -> Optional[float]:
        """When this replica next needs attention, or ``None`` if idle.

        ``timeout_s`` is the fleet's SLO timeout: queued requests must be
        swept *at* their expiry instant (not at the next arrival or
        max-wait fire), so those instants are wake-ups too — otherwise a
        doomed tail request would inflate the makespan and drop accounting.
        """
        servers = [s for s in self.servers.values() if s.has_work]
        if not servers:
            return None
        if self.busy_until > now:
            fire = self.busy_until
        elif any(server.due(now) for server in servers):
            fire = now
        else:
            # Idle, pending but not due: the earliest max-wait expiry.
            fire = min(
                now - s.queue.oldest_wait(now) + self.policy.max_wait_s
                for s in servers
            )
        for server in servers:
            expiry = server.queue.next_expiry(timeout_s)
            if expiry is not None:
                fire = min(fire, expiry)
        return fire

    def try_dispatch(self, now: float) -> Optional[Dispatch]:
        """Run one step of the active key's server at ``now``."""
        if self.busy_until > now:
            return None
        key = self._choose_key(now)
        if key is None:
            return None
        model, ablation = key
        server = self.servers[key]
        self.clock.now = now
        served = server.step(now=now)
        self._collect_drops(now)
        phase = server.last_tick_phase
        if not phase:
            # The rebalance admitted nothing (everything expired): no
            # step actually ran, nothing to account.
            return None
        tick_s = server.last_tick_s
        self.busy_until = now + tick_s
        self._inflight = len(server.active) + len(served)
        self.busy_s += tick_s
        self.requests_served += len(served)
        self.batches_served += 1
        return Dispatch(
            replica=self.name,
            model=model,
            ablation=ablation,
            served=served,
            started_s=now,
            service_s=tick_s,
            phase=phase,
            cold_s=server.last_tick_cold_s,
            members=tuple(server.last_tick_members),
            energy_j=server.last_tick_energy_j,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def usage(self, makespan_s: float) -> dict:
        """Per-replica accounting row for the cluster report."""
        reports = [s.report() for s in self.servers.values()]
        ticks = sum(r.ticks for r in reports)
        occupancy = sum(r.occupancy_ticks for r in reports)
        row = {
            "name": self.name,
            "accelerator": self.accelerator_name,
            "requests_served": self.requests_served,
            "batches_served": self.batches_served,
            "mean_batch_size": occupancy / ticks if ticks else 0.0,
            "busy_s": self.busy_s,
            "utilization": (
                self.busy_s / makespan_s if makespan_s > 0.0 else 0.0
            ),
            "cold_starts": self.cold_starts,
            "admission_drops": self.admission_drops,
            "timeout_drops": self.timeout_drops,
        }
        if not self.policy.drain:
            row.update(
                ticks=ticks,
                mean_occupancy=row["mean_batch_size"],
                joins=sum(r.joins for r in reports),
                preemptions=sum(r.preemptions for r in reports),
                deadline_evictions=sum(
                    r.deadline_evictions for r in reports
                ),
            )
        return row


__all__ = [
    "ACCELERATORS",
    "Dispatch",
    "DroppedRequest",
    "Replica",
    "ServiceTimeModel",
    "SimClock",
    "StepPrice",
    "make_accelerator",
]
