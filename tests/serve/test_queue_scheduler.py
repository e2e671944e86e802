"""Micro-batching edge cases on the one server and the one queue.

Drain-and-refill is ``ContinuousPolicy(drain=True)``: these are the
batching-policy corners the cluster event loop leans on (empty queue,
batch of one, max-wait readiness through ``due()``, FIFO under one
tenant and class, expiry sweeps), driven in ``dry_run`` mode under a
hand-set clock.
"""

import pytest

from repro.cluster import SimClock
from repro.serve import (
    ContinuousPolicy,
    ContinuousServer,
    FairQueue,
    QueueEntry,
)
from repro.serve.request import GenerationRequest


def make_server(**knobs):
    """Dry-run drain server; returns (server, clock)."""
    clock = SimClock()
    server = ContinuousServer(
        "dit",
        policy=ContinuousPolicy(drain=True, **knobs),
        clock=clock,
        price=lambda n, phase: (1.0, 0.0),
        dry_run=True,
        total_iterations=6,
    )
    return server, clock


def submit(server, clock, seed, now=None, **kwargs):
    if now is not None:
        clock.now = now
    return server.submit(seed=seed, **kwargs)


def step_seeds(server, clock, now):
    clock.now = now
    return [r.request.seed for r in server.step()]


def entry(request_id, submitted_at=0.0, deadline_s=None):
    return QueueEntry(request=GenerationRequest(
        request_id=request_id, submitted_at=submitted_at,
        deadline_s=deadline_s,
    ))


class TestQueue:
    def test_starts_empty(self):
        queue = FairQueue()
        assert len(queue) == 0
        assert queue.is_empty
        assert queue.oldest_wait(now=100.0) == 0.0
        assert queue.next_expiry(timeout_s=1.0) is None
        assert queue.expire(now=100.0, timeout_s=1.0) == []

    def test_submit_assigns_sequential_ids(self):
        server, clock = make_server()
        assert (submit(server, clock, 3), submit(server, clock, 9)) == (0, 1)
        assert len(server.queue) == 2

    def test_one_tenant_one_class_is_fifo(self):
        queue = FairQueue()
        for rid in (5, 6, 7):
            queue.push(entry(rid, submitted_at=float(rid)))
        picked = queue.select(10.0, 2, lambda e: 1.0, lambda e: True)
        assert [e.request.request_id for e in picked] == [5, 6]
        assert len(queue) == 1

    def test_oldest_wait_tracks_head(self):
        queue = FairQueue()
        queue.push(entry(1, submitted_at=10.0))
        queue.push(entry(2, submitted_at=14.0))
        assert queue.oldest_wait(now=15.0) == pytest.approx(5.0)
        queue.select(15.0, 1, lambda e: 1.0, lambda e: True)
        assert queue.oldest_wait(now=15.0) == pytest.approx(1.0)
        # A re-queued older entry (a preempted run) lands behind younger
        # arrivals and still counts as the oldest.
        queue.push(entry(3, submitted_at=12.0))
        assert queue.oldest_wait(now=15.0) == pytest.approx(3.0)

    def test_expire_drops_the_stale_head_prefix(self):
        queue = FairQueue()
        for rid, at in enumerate((0.0, 5.0, 9.0)):
            queue.push(entry(rid, submitted_at=at))
        expired = queue.expire(now=10.0, timeout_s=4.0)
        assert [e.request.request_id for e in expired] == [0, 1]
        # Survivors keep FIFO order and stay selectable.
        assert queue.oldest_wait(now=10.0) == pytest.approx(1.0)
        left = queue.select(10.0, 8, lambda e: 1.0, lambda e: True)
        assert [e.request.request_id for e in left] == [2]

    def test_expire_noop_when_within_timeout(self):
        queue = FairQueue()
        queue.push(entry(0))
        assert queue.expire(now=1.0, timeout_s=1.0) == []  # > not >=
        assert len(queue) == 1
        # The wake-up instant is one ulp past the timeout, where it fires.
        due = queue.next_expiry(timeout_s=1.0)
        assert due > 1.0
        assert len(queue.expire(now=due, timeout_s=1.0)) == 1

    def test_deadlines_expire_out_of_submission_order(self):
        queue = FairQueue()
        queue.push(entry(0, submitted_at=0.0, deadline_s=9.0))
        queue.push(entry(1, submitted_at=1.0, deadline_s=3.0))
        queue.push(entry(2, submitted_at=2.0))
        assert queue.next_expiry(timeout_s=None) == 3.0
        assert queue.expire(now=2.9, timeout_s=None) == []
        expired = queue.expire(now=3.0, timeout_s=None)  # >= for deadlines
        assert [e.request.request_id for e in expired] == [1]
        assert queue.next_expiry(timeout_s=None) == 9.0
        assert queue.next_expiry(timeout_s=5.0) == pytest.approx(5.0)
        assert len(queue) == 2


class TestPolicy:
    @pytest.mark.parametrize("field", ["max_batch_size", "max_wait_s", "timeout_s"])
    def test_validation_names_the_field(self, field):
        with pytest.raises(ValueError, match=field):
            ContinuousPolicy(**{field: -1})

    def test_defaults(self):
        assert ContinuousPolicy() == ContinuousPolicy(
            max_batch_size=8, max_wait_s=0.0, drain=False
        )


class TestBatching:
    def test_empty_queue_never_due(self):
        server, clock = make_server(max_wait_s=0.0)
        assert not server.due(now=1e9)
        assert step_seeds(server, clock, 1e9) == []
        assert server.run_until_drained() == []
        assert server.report().batches_served == 0

    def test_zero_max_wait_dispatches_whatever_is_queued(self):
        # max_wait=0 degenerates to greedy batching: every step with a
        # non-empty queue dispatches immediately, even a batch of 1.
        server, clock = make_server(max_batch_size=8, max_wait_s=0.0)
        submit(server, clock, 42, now=100.0)
        (record,) = server.step()  # zero elapsed wait
        assert (record.request.seed, record.batch_size) == (42, 1)
        assert server.queue.is_empty

    def test_partial_batch_waits_for_max_wait_then_flushes(self):
        server, clock = make_server(max_batch_size=8, max_wait_s=3.0)
        for seed in range(3):  # 3 < max_batch_size
            submit(server, clock, seed, now=10.0)
        assert not server.due(12.9)
        assert step_seeds(server, clock, 12.9) == []
        assert server.due(13.0)  # >= max_wait
        assert step_seeds(server, clock, 13.0) == [0, 1, 2]
        assert server.queue.is_empty

    def test_full_batch_dispatches_before_max_wait(self):
        server, clock = make_server(max_batch_size=2, max_wait_s=60.0)
        submit(server, clock, 0)
        assert step_seeds(server, clock, 0.0) == []
        submit(server, clock, 1)
        assert step_seeds(server, clock, 0.0) == [0, 1]

    def test_batch_size_capped_and_fifo_preserved(self):
        server, clock = make_server(max_batch_size=3)
        for seed in range(7):
            submit(server, clock, seed)
        batches = []
        while server.has_work:
            batches.append([r.request.seed for r in server.step()])
        assert batches == [[0, 1, 2], [3, 4, 5], [6]]
        assert server.report().batches_served == 3

    def test_burst_larger_than_max_batch_splits_into_full_batches(self):
        server, clock = make_server(max_batch_size=4, max_wait_s=60.0)
        for seed in range(11):  # burst of 11 > max_batch_size
            submit(server, clock, seed, now=0.0)
        sizes = []
        while served := step_seeds(server, clock, 0.0):
            sizes.append(len(served))
        # Two full batches fire immediately; the tail of 3 waits out
        # max_wait before a third step would dispatch it.
        assert sizes == [4, 4]
        assert len(server.queue) == 3
        assert step_seeds(server, clock, 60.0) == [8, 9, 10]

    def test_fifo_preserved_under_interleaved_coalescing(self):
        # Submissions interleave with dispatches; coalescing must never
        # reorder requests across or within micro-batches.
        server, clock = make_server(max_batch_size=3, max_wait_s=0.0)
        order = []
        submit(server, clock, 0)
        submit(server, clock, 1)
        order.extend(step_seeds(server, clock, 0.0))
        for seed in (2, 3, 4, 5):
            submit(server, clock, seed)
        order.extend(step_seeds(server, clock, 1.0))
        submit(server, clock, 6)
        order.extend(step_seeds(server, clock, 2.0))
        assert order == list(range(7))
        assert server.report().batches_served == 3

    def test_sweep_runs_before_the_batch_forms(self):
        # Expiry is re-checked at batch formation: a stale request never
        # occupies a slot, and a queue the sweep leaves short of a full
        # batch waits out max_wait like any partial batch.
        server, clock = make_server(
            max_batch_size=2, max_wait_s=60.0, timeout_s=5.0
        )
        submit(server, clock, 0, now=0.0)
        submit(server, clock, 1, now=4.0, deadline_s=8.0)
        submit(server, clock, 2, now=9.0)
        assert step_seeds(server, clock, 10.0) == []  # 3 queued, 1 live
        dropped = {r.seed: reason for r, reason in server.pop_dropped()}
        assert dropped == {0: "timeout", 1: "deadline"}
        submit(server, clock, 3, now=10.0)
        assert step_seeds(server, clock, 10.0) == [2, 3]
        assert server.report().requests_expired == 2
