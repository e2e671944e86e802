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
from repro.models.linear import Linear
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


# ----------------------------------------------------------------------
# cross-attention runs per context length
# ----------------------------------------------------------------------
def test_context_length_groups_survive_a_leaving_member():
    """Members attend 1, 3 and 4 real tokens (two one-token contexts of
    different content share a group); the four-token member leaves
    mid-run, regrouping the rest. Every survivor equals its solo run."""
    model, config = _mld()
    executor = ContinuousExecutor(model, config)
    requests = [
        GenerationRequest(0, seed=1, prompt="a person walks"),
        GenerationRequest(1, seed=2, class_label=3),
        GenerationRequest(2, seed=3, prompt="a person jumps high"),
        GenerationRequest(3, seed=4, class_label=5),
    ]
    runs = [executor.start_run(r) for r in requests]
    executor.run_tick(runs)
    assert sorted(len(rows) for rows, _ in executor._contexts) == [1, 1, 2]
    del runs[2]
    while not executor.run_tick(runs):
        pass
    oracle = ExionPipeline(model, config, compiled=False)
    for run in runs:
        request = run.request
        solo = oracle.generate(seed=request.seed, prompt=request.prompt,
                               class_label=request.class_label)
        got = executor.finish_run(run)
        assert np.array_equal(solo.sample, got.sample)
        assert solo.stats.summary() == got.stats.summary()


def _count_cross_steps(monkeypatch):
    """The batch size of every cross-attention step the executor runs."""
    batches = []
    real = ContinuousExecutor._attention

    def attention(self, layer, x, context, *args, **kwargs):
        if context is not None:
            batches.append(len(x))
        return real(self, layer, x, context, *args, **kwargs)

    monkeypatch.setattr(ContinuousExecutor, "_attention", attention)
    return batches


def _cross_layers(model):
    return sum(b.cross_attn is not None for b in model.network.blocks)


def test_one_context_length_is_one_stacked_cross_step(monkeypatch):
    """A batch whose contexts share a length (every class-label batch)
    runs each cross-attention layer as one call over the whole batch,
    with no gather or scatter. One-token contexts fix that output for
    the membership, so it runs once per membership and block."""
    model, config = _mld()
    executor = ContinuousExecutor(model, config)
    batches = _count_cross_steps(monkeypatch)
    executor.run_batch([
        GenerationRequest(i, seed=i, class_label=i) for i in range(3)
    ])
    assert batches == [3] * _cross_layers(model)
    runs = [executor.start_run(GenerationRequest(i, seed=i, class_label=i))
            for i in range(3)]
    executor.run_tick(runs)
    ((rows, context),) = executor._contexts
    assert rows.tolist() == [0, 1, 2] and context.shape[:2] == (3, 1)


# ----------------------------------------------------------------------
# a one-token cross-attention output is kept per membership
# ----------------------------------------------------------------------
def _solo(model, config, request, **kwargs):
    return ExionPipeline(model, config, compiled=False, **kwargs).generate(
        seed=request.seed, prompt=request.prompt,
        class_label=request.class_label,
    )


def test_one_key_output_cache_follows_membership_edits(monkeypatch):
    """A class-label batch grows 1 -> 3 at a dense boundary, shrinks
    3 -> 2 when its first member finishes and 2 -> 1 by an eviction at
    the next dense boundary: each membership computes the cross output
    once per block, and every finished run equals its solo run."""
    iterations = 12
    model = build_model("mld", seed=0, total_iterations=iterations)
    config = ExionConfig.for_model("mld")
    executor = ContinuousExecutor(model, config)
    dense = [i for i, d in enumerate(executor.compiled_plan.dense_flags) if d]
    assert dense == [0, 10]
    batches = _count_cross_steps(monkeypatch)
    requests = [GenerationRequest(i, seed=20 + i, class_label=3 * i)
                for i in range(3)]
    first = executor.start_run(requests[0])
    for _ in range(dense[1]):
        assert not executor.run_tick([first])
    runs = [first] + [executor.start_run(r) for r in requests[1:]]
    while executor.run_tick(runs) != [first]:
        pass
    runs.remove(first)
    while runs[0].cursor < dense[1]:
        executor.run_tick(runs)
    del runs[1]  # evicted at a dense boundary
    while not executor.run_tick(runs):
        pass
    layers = _cross_layers(model)
    assert batches == [1] * layers + [3] * layers + [2] * layers + [1] * layers
    for run in (first, runs[0]):
        solo = _solo(model, config, run.request)
        got = executor.finish_run(run)
        assert np.array_equal(solo.sample, got.sample)
        assert solo.stats.summary() == got.stats.summary()


def test_a_one_token_context_builds_no_cross_k(monkeypatch):
    """A class-label context is one token, so its cross blocks project V
    alone: no K projection and no K prediction, at a batch of one or
    three. A prompt still builds both, and every run equals its solo
    run."""
    import repro.core.eager_prediction as ep_module

    model, config = _mld()
    executor = ContinuousExecutor(model, config)
    cross = {id(p["cross"].wk_operand) for p in executor._preds if "cross" in p}
    cross_wk = {id(b.cross_attn.wk) for b in model.network.blocks
                if b.cross_attn is not None}
    calls = {"wk": 0, "predict": 0}
    real_linear = Linear.__call__

    def linear(self, x):
        calls["wk"] += id(self) in cross_wk
        return real_linear(self, x)

    monkeypatch.setattr(Linear, "__call__", linear)
    real_predict = ep_module._predict_per_request

    def predict(a_approx, a_scales, weight):
        calls["predict"] += id(weight) in cross
        return real_predict(a_approx, a_scales, weight)

    monkeypatch.setattr(ep_module, "_predict_per_request", predict)
    requests = [GenerationRequest(i, seed=i, class_label=i) for i in range(4)]
    results = executor.run_batch(requests[:3]) + executor.run_batch(requests[3:])
    assert calls == {"wk": 0, "predict": 0}
    for request, got in zip(requests, results):
        solo = _solo(model, config, request)
        assert np.array_equal(solo.sample, got.sample)
        assert solo.stats.summary() == got.stats.summary()
    executor.run_batch([GenerationRequest(4, seed=4, prompt="a person walks")])
    assert calls["wk"] > 0 and calls["predict"] > 0


def test_one_key_output_cache_records_every_keep_mask():
    """With ``collect_masks`` each request still records one all-False
    keep mask per cross-attention step, as its solo run does."""
    model, config = _mld()
    requests = [GenerationRequest(i, seed=i, class_label=i) for i in range(2)]
    results = ContinuousExecutor(model, config, collect_masks=True).run_batch(
        requests
    )
    for request, got in zip(requests, results):
        cross = [m for m in got.stats.attention_keepmasks if m.shape[-1] == 1]
        assert len(cross) == _cross_layers(model) * FAST_ITERATIONS
        assert not any(m.any() for m in cross)
        want = _solo(model, config, request, collect_masks=True)
        masks = want.stats.attention_keepmasks
        assert len(got.stats.attention_keepmasks) == len(masks)
        for g, w in zip(got.stats.attention_keepmasks, masks):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("mixed", ["prompt", "activation_bits"])
def test_one_key_output_cache_needs_one_token_contexts_and_exact_x(
    monkeypatch, mixed
):
    """A membership mixing a prompt with class labels, or one whose
    activations are quantized, computes cross-attention on every tick."""
    model, config = _mld()
    if mixed == "prompt":
        first = GenerationRequest(0, seed=1, prompt="a person walks")
        executor = ContinuousExecutor(model, config)
    else:
        first = GenerationRequest(0, seed=1, class_label=2)
        executor = ContinuousExecutor(model, config, activation_bits=12)
    batches = _count_cross_steps(monkeypatch)
    requests = [first, GenerationRequest(1, seed=2, class_label=5)]
    runs = [executor.start_run(r) for r in requests]
    executor.run_tick(runs)
    assert not executor._cross_fixed
    while not executor.run_tick(runs):
        pass
    steps = [1, 1] if mixed == "prompt" else [2]
    assert batches == steps * _cross_layers(model) * FAST_ITERATIONS
    if mixed == "prompt":
        for run in runs:
            solo = _solo(model, config, run.request)
            got = executor.finish_run(run)
            assert np.array_equal(solo.sample, got.sample)
            assert solo.stats.summary() == got.stats.summary()
