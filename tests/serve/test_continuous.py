"""Unit tests of the continuous scheduler's decision machinery.

Everything here runs the scheduler in ``dry_run`` mode (cursor-only
stand-ins, no numerics) under a hand-cranked clock, so each test pins
one decision rule: weighted-deficit fairness, priority preemption at
dense boundaries, aging-based starvation freedom, SLA admission and
expiry, and the boundary re-check that evicts expired *running*
requests. Output correctness of the same machinery is covered by the
differential suite in ``test_continuous_parity.py``.
"""

import pytest

from repro.core.config import ExionConfig
from repro.serve import (
    ContinuousPolicy,
    ContinuousServer,
    FairQueue,
    Priority,
    QueueEntry,
)
from repro.serve.request import GenerationRequest


class ManualClock:
    """A clock the test advances by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _entry(
    request_id,
    tenant="default",
    priority=Priority.STANDARD,
    submitted_at=0.0,
    deadline_s=None,
):
    return QueueEntry(
        request=GenerationRequest(
            request_id=request_id,
            submitted_at=submitted_at,
            tenant=tenant,
            priority=priority,
            deadline_s=deadline_s,
        )
    )


def _dry_server(policy=None, tenant_weights=None, clock=None, iterations=6):
    """DiT "all" dry-run server: period-3 schedule, boundaries 0/3/6."""
    return ContinuousServer(
        "dit",
        config=ExionConfig.for_model("dit").ablation("all"),
        policy=policy,
        tenant_weights=tenant_weights,
        clock=clock if clock is not None else ManualClock(),
        dry_run=True,
        total_iterations=iterations,
    )


# ----------------------------------------------------------------------
# FairQueue: weighted deficit round-robin
# ----------------------------------------------------------------------
class TestFairQueue:
    def test_weighted_drr_serves_tenants_proportionally(self):
        """Weight 2:1 with unit costs admits in an a,a,b cycle."""
        queue = FairQueue(weights={"a": 2.0, "b": 1.0}, quantum=1.0)
        for i in range(6):
            queue.push(_entry(2 * i, tenant="a"))
            queue.push(_entry(2 * i + 1, tenant="b"))
        admitted = queue.select(
            now=0.0, slots=9, cost_fn=lambda e: 1.0,
            eligible_fn=lambda e: True,
        )
        order = [e.request.tenant for e in admitted]
        # Deterministic a,b,a cycle: "a" banks 2 credits per round and
        # wins twice, "b" once (the tie after a's first win breaks by
        # request id). Long-run service tracks the 2:1 weights.
        assert order == ["a", "b", "a"] * 3
        assert order.count("a") == 2 * order.count("b")

    def test_unknown_tenant_defaults_to_unit_weight(self):
        queue = FairQueue(weights={"a": 1.0})
        assert queue.weight("never-seen") == 1.0

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            FairQueue(weights={"a": 0.0})

    def test_deficit_forfeited_when_tenant_empties(self):
        """The DRR anti-hoarding rule: an emptied tenant restarts at 0."""
        queue = FairQueue(weights={"a": 4.0, "b": 1.0}, quantum=1.0)
        queue.push(_entry(0, tenant="a"))
        queue.push(_entry(1, tenant="b"))
        queue.select(
            now=0.0, slots=1, cost_fn=lambda e: 1.0,
            eligible_fn=lambda e: True,
        )
        # "a" won the slot and emptied; its residual credit (4 - 1 = 3)
        # must not persist to its next burst.
        assert queue._deficit["a"] == 0.0

    def test_select_skips_ineligible_entries(self):
        queue = FairQueue()
        queue.push(_entry(0))
        queue.push(_entry(1))
        admitted = queue.select(
            now=0.0, slots=2, cost_fn=lambda e: 1.0,
            eligible_fn=lambda e: e.request.request_id == 1,
        )
        assert [e.request.request_id for e in admitted] == [1]
        assert len(queue) == 1

    def test_higher_class_served_before_larger_deficit(self):
        """Priority classes dominate fairness: DRR only breaks ties
        within the top effective class."""
        queue = FairQueue(weights={"whale": 100.0})
        queue.push(_entry(0, tenant="whale", priority=Priority.BATCH))
        queue.push(_entry(1, tenant="minnow", priority=Priority.INTERACTIVE))
        admitted = queue.select(
            now=0.0, slots=1, cost_fn=lambda e: 1.0,
            eligible_fn=lambda e: True,
        )
        assert admitted[0].request.request_id == 1

    def test_expire_drops_timeouts_and_deadlines(self):
        queue = FairQueue()
        queue.push(_entry(0, submitted_at=0.0))  # survives
        queue.push(_entry(1, submitted_at=0.0, deadline_s=5.0))  # past deadline
        queue.push(_entry(2, submitted_at=-20.0))  # past timeout
        dropped = queue.expire(now=10.0, timeout_s=15.0)
        assert sorted(e.request.request_id for e in dropped) == [1, 2]
        assert [e.request.request_id for e in queue.entries()] == [0]

    def test_aging_promotes_up_to_interactive_cap(self):
        queue = FairQueue(aging_s=1.0)
        entry = _entry(0, priority=Priority.BATCH, submitted_at=0.0)
        assert queue.effective_priority(entry, now=0.0) == Priority.BATCH
        assert queue.effective_priority(entry, now=1.5) == Priority.STANDARD
        assert queue.effective_priority(entry, now=2.0) == Priority.INTERACTIVE
        # The cap: waiting longer never exceeds INTERACTIVE.
        assert queue.effective_priority(entry, now=99.0) == Priority.INTERACTIVE


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_zero_iterations_rejected_naming_the_argument(self):
        with pytest.raises(ValueError, match="total_iterations must be >= 1"):
            ContinuousServer("dit", total_iterations=0, dry_run=True)

    def test_infeasible_deadline_rejected_at_door(self):
        clock = ManualClock(100.0)
        server = _dry_server(
            policy=ContinuousPolicy(min_service_s=5.0), clock=clock
        )
        # Even instant seating cannot finish by 100 + 1 < 100 + 5.
        assert server.submit(seed=0, deadline_s=101.0) is None
        assert server.submit(seed=1, deadline_s=110.0) is not None
        assert server.report().sla_rejects == 1

    def test_sla_sweep_drops_entries_that_became_infeasible(self):
        """A queued request whose deadline slipped out of reach is swept
        immediately (reason "sla") — it can never be seated again."""
        clock = ManualClock(0.0)
        server = _dry_server(
            policy=ContinuousPolicy(min_service_s=10.0), clock=clock
        )
        assert server.submit(seed=0, deadline_s=11.0) is not None
        clock.now = 2.0  # now + 10 > 11: infeasible before its deadline
        dropped = server.expire_queued(clock.now)
        assert [r.deadline_s for r in dropped] == [11.0]
        assert server.pop_dropped()[0][1] == "sla"
        assert server.report().requests_expired == 1


# ----------------------------------------------------------------------
# boundary-restricted joins
# ----------------------------------------------------------------------
class TestBoundaryJoins:
    def test_mid_phase_arrival_waits_for_dense_boundary(self):
        server = _dry_server()
        server.submit(seed=0)
        server.step()  # joins at cursor 0, ticks to 1
        server.submit(seed=1)
        server.step()  # cursor 1 -> 2: not a boundary, no join
        assert len(server.queue) == 1
        server.step()  # cursor 2 -> 3
        server.step()  # boundary at 3: the join happens here
        assert len(server.queue) == 0
        join = [e for e in server.events if e["kind"] == "join"][-1]
        assert join["cursor"] == 0
        assert join["active_cursors"] == (3,)

    def test_all_join_cursors_are_dense_boundaries(self):
        server = _dry_server()
        for i in range(5):
            server.submit(seed=i)
            server.step()
        server.run_until_drained()
        joins = [e for e in server.events if e["kind"] == "join"]
        assert len(joins) >= 5
        for event in joins:
            assert server.plan.is_boundary(event["cursor"])
            assert all(
                server.plan.is_boundary(c) for c in event["active_cursors"]
            )


# ----------------------------------------------------------------------
# preemption
# ----------------------------------------------------------------------
class TestPreemption:
    def _full_batch_of_batch_class(self, server):
        server.submit(seed=0, priority=Priority.BATCH)
        server.submit(seed=1, priority=Priority.BATCH)
        for _ in range(3):
            server.step()  # both runs reach cursor 3 (a boundary)

    def test_interactive_preempts_full_batch_at_boundary(self):
        server = _dry_server(policy=ContinuousPolicy(max_batch_size=2))
        self._full_batch_of_batch_class(server)
        interactive = server.submit(seed=2, priority=Priority.INTERACTIVE)
        server.step()  # boundary rebalance: evict one, seat interactive
        evict = [e for e in server.events if e["kind"] == "evict"][0]
        assert evict["reason"] == "preempt"
        assert evict["cursor"] == 3  # victim leaves mid-generation
        active_ids = {run.request_id for run in server.active}
        assert interactive in active_ids
        assert server.report().preemptions == 1
        # The victim resumes from its cursor and everyone completes.
        served = server.run_until_drained()
        assert sorted(r.request_id for r in served) == [0, 1, 2]
        resumed = [
            e for e in server.events
            if e["kind"] == "join" and e.get("resumed")
        ]
        assert len(resumed) == 1 and resumed[0]["cursor"] == 3

    def test_preemption_disabled_makes_interactive_wait(self):
        server = _dry_server(
            policy=ContinuousPolicy(max_batch_size=2, preempt=False)
        )
        self._full_batch_of_batch_class(server)
        server.submit(seed=2, priority=Priority.INTERACTIVE)
        server.step()  # boundary, but preemption is off
        assert server.report().preemptions == 0
        assert len(server.queue) == 1

    def test_equal_priority_never_preempts(self):
        server = _dry_server(policy=ContinuousPolicy(max_batch_size=2))
        self._full_batch_of_batch_class(server)
        server.submit(seed=2, priority=Priority.BATCH)
        server.step()
        assert server.report().preemptions == 0


# ----------------------------------------------------------------------
# starvation freedom via aging
# ----------------------------------------------------------------------
class TestAging:
    def _race(self, aging_s):
        """A BATCH request races a later INTERACTIVE one for one slot."""
        clock = ManualClock(0.0)
        server = _dry_server(
            policy=ContinuousPolicy(max_batch_size=1, aging_s=aging_s),
            clock=clock,
        )
        batch_id = server.submit(seed=0, priority=Priority.BATCH)
        clock.now = 5.0  # the BATCH request has waited 5s
        interactive_id = server.submit(seed=1, priority=Priority.INTERACTIVE)
        server.step(now=clock.now)
        (winner,) = server.active
        return batch_id, interactive_id, winner.request_id

    def test_aged_batch_request_wins_the_slot(self):
        batch_id, _, winner = self._race(aging_s=1.0)
        # 5s at aging_s=1 promotes BATCH to the INTERACTIVE class; the
        # tie breaks toward the earlier submission.
        assert winner == batch_id

    def test_without_aging_interactive_always_wins(self):
        _, interactive_id, winner = self._race(aging_s=None)
        assert winner == interactive_id


# ----------------------------------------------------------------------
# deadline re-check at boundaries (queued AND running requests)
# ----------------------------------------------------------------------
class TestDeadlineEviction:
    def test_expired_active_run_evicted_at_boundary(self):
        clock = ManualClock(0.0)
        server = _dry_server(clock=clock)
        server.submit(seed=0, deadline_s=2.0)
        server.submit(seed=1, deadline_s=2.0)
        server.step(now=0.0)  # join at 0, tick to 1
        clock.now = 3.0  # deadline passes mid-phase
        server.step(now=3.0)  # cursor 1 -> 2: no boundary, still running
        assert server.active
        server.step(now=3.0)  # cursor 2 -> 3
        server.step(now=3.0)  # boundary at 3: evicted, not served
        assert not server.active
        report = server.report()
        assert report.deadline_evictions == 2
        assert report.requests_served == 0
        assert [reason for _, reason in server.pop_dropped()] == ["deadline"] * 2
        # Each row holds the members from before the first eviction.
        rows = [e["active_cursors"] for e in server.events if e["kind"] == "evict"]
        assert rows == [(3, 3)] * 2

    def test_expired_queued_request_dropped_not_seated(self):
        clock = ManualClock(0.0)
        server = _dry_server(clock=clock)
        server.submit(seed=0, deadline_s=1.0)
        clock.now = 2.0
        server.step(now=2.0)
        assert not server.active
        assert server.pop_dropped()[0][1] == "deadline"


# ----------------------------------------------------------------------
# server-level fairness and reporting
# ----------------------------------------------------------------------
class TestServerFairness:
    def test_tenant_weights_shape_admission_order(self):
        server = _dry_server(
            policy=ContinuousPolicy(max_batch_size=1),
            tenant_weights={"a": 2.0, "b": 1.0},
        )
        for i in range(4):
            server.submit(seed=2 * i, tenant="a")
            server.submit(seed=2 * i + 1, tenant="b")
        server.run_until_drained()
        joins = [e for e in server.events if e["kind"] == "join"]
        tenants = [
            "a" if e["request_id"] % 2 == 0 else "b" for e in joins
        ]
        assert tenants[:6] == ["a", "b", "a", "a", "b", "a"]
        assert tenants[:6].count("a") == 2 * tenants[:6].count("b")


class TestReporting:
    def test_occupancy_and_counters(self):
        server = _dry_server(policy=ContinuousPolicy(max_batch_size=4))
        for i in range(3):
            server.submit(seed=i)
        served = server.run_until_drained()
        report = server.report()
        assert len(served) == 3
        assert report.requests_served == 3
        assert report.ticks == 6  # all three share every iteration
        assert report.mean_occupancy == pytest.approx(3.0)
        assert report.joins == 3
        summary = report.summary()
        for key in (
            "ticks", "mean_occupancy", "joins", "preemptions",
            "sla_rejects", "deadline_evictions",
        ):
            assert key in summary

    def test_price_hook_drives_simulated_timing(self):
        server = ContinuousServer(
            "dit",
            config=ExionConfig.for_model("dit").ablation("all"),
            clock=ManualClock(),
            dry_run=True,
            total_iterations=6,
            price=lambda batch, phase: {
                "dense": (2.0, 8.0), "sparse": (0.5, 1.0),
            }[phase],
        )
        server.submit(seed=0)
        server.step()
        # cursor 0 is a dense compile
        assert (server.last_tick_s, server.last_tick_energy_j) == (2.0, 8.0)
        server.step()
        assert (server.last_tick_s, server.last_tick_energy_j) == (0.5, 1.0)
        report = server.report()
        assert report.timing_source == "simulated"
        assert report.busy_s == pytest.approx(2.5)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"quantum": 0.0},
            {"aging_s": 0.0},
            {"timeout_s": -1.0},
            {"min_service_s": -0.1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ContinuousPolicy(**kwargs)
