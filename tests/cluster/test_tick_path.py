"""The fleet tick path reads what its server already fixed.

A continuous server knows its boundary and dense flags by cursor and its
prices by ``(batch_size, phase)``, and a replica finds its next wake-up
in one pass over its servers. Two suites pin that:

- an oracle machine: ``hypothesis`` drives a dry-run :class:`Replica`
  with two keys through enqueues, fleet-timeout sweeps, dispatches and
  clock advances, and after every rule the replica's wake-up, each
  server's boundary predicate and the replica's warmth must equal the
  earlier implementations, kept below verbatim (``next_event_time``'s
  ``self._timeout(...)`` is the one edit: the helper is a module
  function here; the warm-key set is kept by the machine);
- a count guard over one 100-request continuous cell: the
  re-derivations the tick path dropped stay dropped.
"""

import sys
from collections import Counter
from typing import Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import (
    ClusterRequest,
    MMPPProcess,
    Replica,
    ServiceTimeModel,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.program.compiled import CompiledPlan
from repro.serve import ContinuousPolicy, ContinuousServer

ITERATIONS = 12
KEYS = ("dit", "mld")


# ----------------------------------------------------------------------
# the oracles: the earlier wake-up and boundary predicate
# ----------------------------------------------------------------------
def _timeout(self, timeout_s: Optional[float]) -> Optional[float]:
    """The queue timeout a sweep applies: the fleet's, else the policy's."""
    return timeout_s if timeout_s is not None else self.policy.timeout_s


def next_event_time(
    self, now: float, timeout_s: Optional[float] = None
) -> Optional[float]:
    """When this replica next needs attention, or ``None`` if idle.

    ``timeout_s`` is the fleet's SLO timeout (else the policy's, as in
    :meth:`expire`): queued requests must be swept *at* their expiry
    instant (not at the next arrival or max-wait fire), so those
    instants are wake-ups too — otherwise a doomed tail request would
    inflate the makespan and drop accounting.
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
    timeout_s = _timeout(self, timeout_s)
    for server in servers:
        if server.queue.is_empty:
            continue  # a live batch alone: nothing queued can expire
        expiry = server.queue.next_expiry(timeout_s)
        if expiry is not None:
            fire = min(fire, expiry)
    return fire


def at_boundary(self) -> bool:
    """Whether batch membership may change right now."""
    if self.policy.drain:
        return not self.active
    return all(self.plan.is_boundary(run.cursor) for run in self.active)


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------
class _ReplicaMachine(RuleBasedStateMachine):
    """One dry-run continuous replica serving ``dit`` and ``mld``."""

    policy = ContinuousPolicy(max_batch_size=3)

    def __init__(self) -> None:
        super().__init__()
        self.replica = Replica(
            0, policy=self.policy,
            service_model=ServiceTimeModel("exion24", iterations=ITERATIONS),
            tenant_weights={"a": 2.0, "b": 1.0},
        )
        self.now = 0.0
        # The earlier warm-key set: a key joins on an accepted enqueue
        # and leaves when collected drops leave its server idle and
        # uncharged.
        self.warm_keys = set()

    def _collect(self, drops):
        for drop in drops:
            key = (drop.model, drop.ablation)
            server = self.replica.servers[key]
            if not server.has_work and not server.cold_charged:
                self.warm_keys.discard(key)

    @rule(
        model=st.sampled_from(KEYS),
        tenant=st.sampled_from(["a", "b", "c"]),
        priority=st.integers(min_value=0, max_value=2),
        deadline_in=st.none() | st.floats(min_value=0.0, max_value=1.0),
    )
    def enqueue(self, model, tenant, priority, deadline_in):
        request = ClusterRequest(
            arrival_s=self.now, model=model, class_label=1, tenant=tenant,
            priority=priority,
            deadline_s=None if deadline_in is None else self.now + deadline_in,
        )
        if self.replica.enqueue(request, self.now) is not None:
            self.warm_keys.add(request.pipeline_key)

    @rule(timeout_s=st.none() | st.floats(min_value=0.0, max_value=0.5))
    def expire(self, timeout_s):
        self._collect(self.replica.expire(self.now, timeout_s))

    @rule()
    def try_dispatch(self):
        _, drops = self.replica.try_dispatch(self.now)
        self._collect(drops)

    @rule(seconds=st.floats(min_value=0.0, max_value=0.5))
    def advance(self, seconds):
        self.now += seconds

    @rule(timeout_s=st.none() | st.just(0.2))
    def advance_to_wakeup(self, timeout_s):
        wake = self.replica.next_event_time(self.now, timeout_s)
        if wake is not None:
            self.now = max(self.now, wake)

    @invariant()
    def wakeup_matches_the_oracle(self):
        for timeout_s in (None, 0.0, 0.2):
            assert self.replica.next_event_time(self.now, timeout_s) == (
                next_event_time(self.replica, self.now, timeout_s)
            )

    @invariant()
    def warmth_matches_the_oracle(self):
        for key in {*self.replica.servers, *self.warm_keys}:
            assert self.replica.is_warm(key) == (key in self.warm_keys)

    @invariant()
    def boundary_matches_the_oracle(self):
        for server in self.replica.servers.values():
            assert server.at_boundary() == at_boundary(server)


class _WaitingMachine(_ReplicaMachine):
    """Partial batches wait out ``max_wait_s``: the not-due branch."""

    policy = ContinuousPolicy(max_batch_size=3, max_wait_s=0.2)


class _ServiceFloorMachine(_ReplicaMachine):
    """Sweeps also drop requests no service floor can save in time."""

    policy = ContinuousPolicy(max_batch_size=3, min_service_s=0.05)


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestReplicaOracle = _ReplicaMachine.TestCase
TestReplicaOracle.settings = _SETTINGS
TestWaitingReplicaOracle = _WaitingMachine.TestCase
TestWaitingReplicaOracle.settings = _SETTINGS
TestServiceFloorReplicaOracle = _ServiceFloorMachine.TestCase
TestServiceFloorReplicaOracle.settings = _SETTINGS


# ----------------------------------------------------------------------
# what one continuous cell no longer re-derives
# ----------------------------------------------------------------------
def _cell_counts() -> dict:
    """Spy counts over one 100-request continuous MMPP cell, the
    ``fleet_sim`` benchmark's shape (seed 11, four replicas)."""
    counts = {"is_boundary": 0, "price": Counter(), "empty_drops": []}
    patch = pytest.MonkeyPatch()
    is_boundary = CompiledPlan.is_boundary
    price = ServiceTimeModel.price
    pop_dropped = ContinuousServer.pop_dropped

    def spy_is_boundary(plan, cursor):
        # A server tabulates the predicate once when built; count the
        # calls a step makes.
        callers = {sys._getframe(up).f_code.co_name for up in (1, 2, 3)}
        counts["is_boundary"] += bool(callers & {"_step", "at_boundary"})
        return is_boundary(plan, cursor)

    def spy_price(service_model, *point):
        counts["price"][point] += 1
        return price(service_model, *point)

    def spy_pop_dropped(server):
        dropped = pop_dropped(server)
        if not dropped:
            counts["empty_drops"].append(dropped)  # kept alive: ids stay
        return dropped

    patch.setattr(CompiledPlan, "is_boundary", spy_is_boundary)
    patch.setattr(ServiceTimeModel, "price", spy_price)
    patch.setattr(ContinuousServer, "pop_dropped", spy_pop_dropped)
    try:
        trace = synthesize_trace(
            MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 100,
            WorkloadMix(("dit", "mld", "stable_diffusion")), rng=11,
            deadline_s=3.0,
        )
        fleet = build_replicas(4, accelerator="exion24", continuous=True)
        report = simulate_cluster(
            trace, fleet, make_router("jsq"),
            slo=SLOPolicy(latency_target_s=3.0),
        )
    finally:
        patch.undo()
    counts["servers"] = sum(len(replica.servers) for replica in fleet)
    counts["ticks"] = sum(row["ticks"] for row in report.replicas)
    return counts


@pytest.fixture(scope="module")
def cell_counts():
    return _cell_counts()


class TestCellCounts:
    def test_the_cell_is_the_benchmark_shape(self, cell_counts):
        assert cell_counts["servers"] == 12
        assert cell_counts["ticks"] == 3587

    def test_no_step_asks_the_range_checked_boundary(self, cell_counts):
        assert cell_counts["is_boundary"] == 0

    def test_each_server_prices_a_point_once(self, cell_counts):
        # The fleet shares one memo and each server keeps its own, so a
        # point is asked for at most once per replica serving its key
        # (the calibration point once per server built), not per tick.
        prices = cell_counts["price"]
        assert len(prices) == 35
        assert sum(prices.values()) == 86
        assert max(prices.values()) <= 4

    def test_an_empty_drop_collection_allocates_no_list(self, cell_counts):
        empty = cell_counts["empty_drops"]
        assert len(empty) > cell_counts["ticks"]
        # Each server hands back its own empty buffer, not a new list.
        assert len({id(dropped) for dropped in empty}) == 12
