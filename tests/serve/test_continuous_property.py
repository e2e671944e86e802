"""Property suite: the dense-phase join constraint holds under churn.

Hypothesis drives random submit/step interleavings (random priorities,
tenants, batch caps) through the continuous scheduler and checks the
structural invariants the FFN-Reuse constraint demands, for **every**
zoo model's phase schedule:

- a membership change only ever happens while every member sits at a
  dense-phase boundary, and the joiner's cursor is itself a boundary;
- every admitted composition satisfies ``CompiledPlan.cursors_aligned``
  (the scheduler *proves* lockstep compatibility, never assumes it);
- accounting conserves requests: served + expired == submitted.

The structural layer runs dry (cursor arithmetic only), which is what
makes the full model x ablation grid affordable. A numeric layer on DiT
then re-checks byte-identity to solo generation under random staggered
joins — the executor-level guarantee the structural invariants exist to
protect.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.serve import ContinuousPolicy, ContinuousServer
from repro.serve.cache import ThresholdCache
from repro.workloads.specs import MODEL_SPECS

MODELS = sorted(MODEL_SPECS)
#: Covers at least one full phase period of every zoo schedule (the
#: longest is mld's sparse_iters_n=9 -> period 10).
DRY_ITERATIONS = 12

FAST_ITERATIONS = 6
_CACHE = ThresholdCache()

# One scheduling action: enqueue a request or advance the batch a tick.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=2),  # priority class
            st.sampled_from(["a", "b"]),  # tenant
        ),
        st.tuples(st.just("step")),
    ),
    min_size=1,
    max_size=24,
)


def _run_ops(model, ablation, ops, max_batch_size):
    server = ContinuousServer(
        model,
        config=ExionConfig.for_model(model).ablation(ablation),
        policy=ContinuousPolicy(max_batch_size=max_batch_size),
        tenant_weights={"a": 2.0, "b": 1.0},
        dry_run=True,
        total_iterations=DRY_ITERATIONS,
    )
    submitted = 0
    served = []
    for op in ops:
        if op[0] == "submit":
            server.submit(seed=submitted, priority=op[1], tenant=op[2])
            submitted += 1
        else:
            served.extend(server.step())
    served.extend(server.run_until_drained())
    return server, submitted, served


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("ablation", ["base", "all"])
@settings(max_examples=10, deadline=None)
@given(ops=_OPS, max_batch_size=st.integers(min_value=1, max_value=3))
def test_joins_only_at_dense_boundaries(model, ablation, ops, max_batch_size):
    server, submitted, served = _run_ops(model, ablation, ops, max_batch_size)
    plan = server.plan
    joins = [e for e in server.events if e["kind"] == "join"]
    for event in joins:
        # The joiner enters at a dense boundary of its own schedule...
        assert plan.is_boundary(event["cursor"])
        # ...while every incumbent also sits at a boundary...
        assert all(plan.is_boundary(c) for c in event["active_cursors"])
        # ...and the scheduler proved the composition can run lockstep.
        assert plan.cursors_aligned(
            list(event["active_cursors"]) + [event["cursor"]]
        )
    # Conservation: with no deadlines or depth bounds, everything
    # submitted is eventually served exactly once.
    assert len(served) == submitted
    assert sorted(r.request_id for r in served) == list(range(submitted))


@functools.lru_cache(maxsize=None)
def _oracle():
    model = _CACHE.model("dit", 0, FAST_ITERATIONS)
    return ExionPipeline(model, ExionConfig.for_model("dit").ablation("all"),
                         compiled=False)


@settings(max_examples=8, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=3
    ),
    stagger=st.integers(min_value=0, max_value=5),
    late_seed=st.integers(min_value=51, max_value=99),
)
def test_random_staggered_joins_byte_identical(seeds, stagger, late_seed):
    """Numeric layer: whatever boundary the late request lands on, every
    output equals the solo generation of the same request."""
    server = ContinuousServer(
        "dit",
        config=ExionConfig.for_model("dit").ablation("all"),
        policy=ContinuousPolicy(max_batch_size=4),
        cache=_CACHE,
        total_iterations=FAST_ITERATIONS,
    )
    for i, seed in enumerate(seeds):
        server.submit(seed=seed, class_label=i)
    for _ in range(stagger):
        server.step()
    server.submit(seed=late_seed, class_label=7)
    served = server.run_until_drained()
    assert len(served) == len(seeds) + 1
    oracle = _oracle()
    for record in served:
        solo = oracle.generate(
            seed=record.request.seed, class_label=record.request.class_label
        )
        assert np.array_equal(solo.sample, record.result.sample)
        assert solo.stats.summary() == record.result.stats.summary()
