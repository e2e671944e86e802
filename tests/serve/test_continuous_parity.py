"""Differential parity: continuous batching never changes the answer.

The scheduler's correctness contract is byte-identity, not closeness:
whatever membership churn the continuous batch goes through — staggered
dense-boundary joins, completions leaving mid-phase, preemption and
resume — every served request's sample and :class:`RunStats` must equal
what a solo ``ExionPipeline.generate()`` of the same request produces.
These tests drive the real executor (no dry-run) through each membership
pattern and compare against the solo oracle.
"""

import functools

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.exec import ContinuousExecutor
from repro.models.zoo import build_model
from repro.serve import (
    ContinuousPolicy,
    ContinuousServer,
    GenerationRequest,
    Priority,
)
from repro.serve.cache import ThresholdCache

FAST_ITERATIONS = 6

#: One cache for the module: every server and the solo oracle share the
#: exact same model build, so differences can only come from scheduling.
_CACHE = ThresholdCache()


def _server(ablation="all", **policy_kwargs):
    return ContinuousServer(
        "dit",
        config=ExionConfig.for_model("dit").ablation(ablation),
        policy=ContinuousPolicy(**policy_kwargs),
        cache=_CACHE,
        total_iterations=FAST_ITERATIONS,
    )


@functools.lru_cache(maxsize=None)
def _oracle(ablation):
    model = _CACHE.model("dit", 0, FAST_ITERATIONS)
    return ExionPipeline(model, ExionConfig.for_model("dit").ablation(ablation),
                         compiled=False)


def _assert_solo_identical(ablation, served):
    assert served, "expected at least one served request"
    oracle = _oracle(ablation)
    for record in served:
        request = record.request
        solo = oracle.generate(seed=request.seed, class_label=request.class_label)
        assert np.array_equal(solo.sample, record.result.sample)
        assert solo.stats.summary() == record.result.stats.summary()


@pytest.mark.parametrize("ablation", ["base", "all"])
def test_staggered_joins_match_solo(ablation):
    """Requests joining a live batch at later dense boundaries produce
    exactly the solo outputs."""
    server = _server(ablation, max_batch_size=4)
    for i in range(3):
        server.submit(seed=10 + i, class_label=i)
    server.step()  # initial cohort starts; batch is now mid-generation
    server.submit(seed=99, class_label=7)  # must wait for a boundary
    served = server.run_until_drained()
    assert len(served) == 4
    late_join = [e for e in server.events if e["kind"] == "join"][-1]
    assert late_join["active_cursors"] != ()  # it really joined a live batch
    _assert_solo_identical(ablation, served)


def test_preemption_and_resume_match_solo():
    """A preempted victim resumes from its cursor and still lands on the
    solo-identical output."""
    server = _server("all", max_batch_size=2)
    server.submit(seed=1, class_label=11, priority=Priority.BATCH)
    server.submit(seed=2, class_label=22, priority=Priority.BATCH)
    for _ in range(3):
        server.step()  # both reach the cursor-3 dense boundary
    server.submit(seed=3, class_label=33, priority=Priority.INTERACTIVE)
    served = server.run_until_drained()
    assert server.report().preemptions == 1
    assert len(served) == 3
    _assert_solo_identical("all", served)


def test_deadline_eviction_leaves_survivors_identical():
    """Evicting an expired member mid-generation is an index-set edit:
    the surviving members' outputs are untouched."""
    clock_now = [0.0]
    server = ContinuousServer(
        "dit",
        config=ExionConfig.for_model("dit").ablation("all"),
        policy=ContinuousPolicy(max_batch_size=4),
        cache=_CACHE,
        total_iterations=FAST_ITERATIONS,
        clock=lambda: clock_now[0],
    )
    doomed = server.submit(seed=5, class_label=1, deadline_s=2.0)
    server.submit(seed=6, class_label=2)
    server.submit(seed=7, class_label=3)
    server.step(now=0.0)
    clock_now[0] = 3.0  # doomed request's deadline passes mid-phase
    served = server.run_until_drained()
    assert server.report().deadline_evictions == 1
    assert sorted(r.request_id for r in served) == [1, 2]
    assert doomed not in {r.request_id for r in served}
    _assert_solo_identical("all", served)


def test_single_request_continuous_equals_solo():
    """Degenerate case: a lone request through the continuous path is the
    solo generation, byte for byte."""
    server = _server("all", max_batch_size=8)
    server.submit(seed=42, class_label=123)
    served = server.run_until_drained()
    assert len(served) == 1
    assert served[0].batch_size == 1
    _assert_solo_identical("all", served)


# ----------------------------------------------------------------------
# batch-wide caches are keyed on run serials, not object addresses
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _mld():
    return (build_model("mld", seed=0, total_iterations=FAST_ITERATIONS),
            ExionConfig.for_model("mld"))


def _drain(executor, run):
    while not executor.run_tick([run]):
        pass
    return executor.finish_run(run)


def test_reused_run_address_gets_fresh_batch_caches():
    """CPython hands a dead run's address to a later ``RequestRun``; the
    dead run's cross-attention K/V must not be served to the new one."""
    model, config = _mld()
    executor = ContinuousExecutor(model, config)
    second = GenerationRequest(1, seed=2, prompt="a person jumps high")
    run = executor.start_run(
        GenerationRequest(0, seed=1, prompt="a person walks")
    )
    _drain(executor, run)
    # Whether the allocator reuses the address is up to it; re-housing the
    # next run's state in the dead run's object makes the reuse certain.
    run.__dict__ = executor.start_run(second).__dict__
    got = _drain(executor, run)
    fresh = ContinuousExecutor(model, config)
    want = _drain(fresh, fresh.start_run(second))
    assert np.array_equal(got.sample, want.sample)
    assert got.stats.summary() == want.stats.summary()


def test_back_to_back_drained_batches_do_not_share_caches():
    model, config = _mld()
    executor = ContinuousExecutor(model, config)
    executor.run_batch([
        GenerationRequest(i, seed=i, prompt="a person walks") for i in range(2)
    ])
    second = [GenerationRequest(i, seed=i, prompt="spin") for i in range(2)]
    got = executor.run_batch(second)
    want = ContinuousExecutor(model, config).run_batch(second)
    for g, w in zip(got, want):
        assert np.array_equal(g.sample, w.sample)
        assert g.stats.summary() == w.stats.summary()
