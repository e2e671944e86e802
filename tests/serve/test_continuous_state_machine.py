"""Stateful property suite: a dry-run server's bookkeeping under any
interleaving of submissions, steps, expiry sweeps and clock advances.

Hypothesis drives one :class:`ContinuousServer` (``dry_run=True``, priced
on a :class:`SimClock`) in each scheduling mode and checks, after every
rule, that the counted queue agrees with its entries, that every request
sits in exactly one place, and that a step's members are the batch that
ran, each with its own request's tenant and priority.
"""

import functools

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ServiceTimeModel, SimClock
from repro.serve import ContinuousPolicy, ContinuousServer

#: mld at 12 iterations is dense at cursors 0 and 10 only, so a run can
#: finish while a partner that joined later sits mid-phase: membership
#: then changes off a boundary.
MODEL = "mld"
ITERATIONS = 12
_PRICE = functools.partial(
    ServiceTimeModel("exion24", iterations=ITERATIONS).price, MODEL, "all"
)


class _DryServerMachine(RuleBasedStateMachine):
    drain = False

    def __init__(self) -> None:
        super().__init__()
        self.clock = SimClock()
        self.server = ContinuousServer(
            MODEL,
            policy=ContinuousPolicy(
                max_batch_size=3, drain=self.drain, min_service_s=0.05,
            ),
            tenant_weights={"a": 2.0, "b": 1.0},
            total_iterations=ITERATIONS,
            clock=self.clock,
            dry_run=True,
            price=_PRICE,
        )
        self.requests: dict = {}  # request id -> (tenant, priority)
        self.rejected = 0
        self.served: set = set()
        self.dropped: set = set()

    def _collect_drops(self) -> None:
        for request, _ in self.server.pop_dropped():
            assert request.request_id not in self.dropped
            self.dropped.add(request.request_id)

    @rule(
        tenant=st.sampled_from(["a", "b", "c"]),
        priority=st.integers(min_value=0, max_value=2),
        deadline_in=st.none() | st.floats(min_value=0.0, max_value=1.0),
    )
    def submit(self, tenant, priority, deadline_in):
        deadline_s = None if deadline_in is None else self.clock.now + deadline_in
        request_id = self.server.submit(
            seed=len(self.requests), tenant=tenant, priority=priority,
            deadline_s=deadline_s,
        )
        if request_id is None:
            self.rejected += 1
        else:
            self.requests[request_id] = (tenant, priority)

    @rule()
    def step(self):
        served = self.server.step()
        self._collect_drops()
        served_ids = [record.request_id for record in served]
        assert not self.served & set(served_ids)
        self.served.update(served_ids)
        if self.server.last_tick_phase:
            members = self.server.last_tick_members
            active = [run.request_id for run in self.server.active]
            assert sorted(members) == sorted(active + served_ids)
            assert set(members) <= set(self.requests)
        else:
            assert served == [] and not self.server.last_tick_members
        self.clock.now += self.server.last_tick_s

    @rule(timeout_s=st.none() | st.floats(min_value=0.0, max_value=0.5))
    def expire_queued(self, timeout_s):
        self.server.expire_queued(self.clock.now, timeout_s=timeout_s)
        self._collect_drops()

    @rule(seconds=st.floats(min_value=0.0, max_value=0.5))
    def advance(self, seconds):
        self.clock.now += seconds

    @invariant()
    def queue_count_matches_entries(self):
        queue = self.server.queue
        assert len(queue) == len(queue.entries())
        assert queue.is_empty == (len(queue) == 0)

    @invariant()
    def every_request_in_exactly_one_place(self):
        queued = [entry.request.request_id for entry in self.server.queue.entries()]
        active = [run.request_id for run in self.server.active]
        places = [*queued, *active, *self.served, *self.dropped]
        assert sorted(places) == sorted(self.requests)
        assert self.server.report().sla_rejects == self.rejected


class _DrainMachine(_DryServerMachine):
    drain = True


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None)
TestContinuousServerMachine = _DryServerMachine.TestCase
TestContinuousServerMachine.settings = _SETTINGS
TestDrainServerMachine = _DrainMachine.TestCase
TestDrainServerMachine.settings = _SETTINGS
