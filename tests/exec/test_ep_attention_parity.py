"""One EP attention layer, three implementations, the same bytes.

:meth:`repro.core.eager_prediction.EagerPredictor._run` (the oracle),
:func:`~repro.core.eager_prediction.ep_attention_step` (the single-seed
engine's 2-D step, its cross K/V read from
:func:`~repro.core.eager_prediction.ep_cross_kv` at a batch of one) and
:func:`~repro.core.eager_prediction.ep_attention_step_batched` all define the
attended output as one ``probs @ v`` over every row, a collapsed row's
``probs`` being exactly one-hot. The end-to-end grid next door
(``test_parity.py``) runs them on the zoo's shapes and Table I knobs;
this layer-level property walks the shapes and knobs the zoo does not:
odd head counts, ``tq != tk``, ``keep_count == 1``, every row collapsed
and none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExionConfig
from repro.core.eager_prediction import (
    CompiledPrediction,
    EagerPredictor,
    ep_attention_step,
    ep_attention_step_batched,
    ep_cross_kv,
)
from repro.core.sparsity import RunStats
from repro.models.attention import MultiHeadAttention

HEAD_DIM = 8


def _stats_key(stats):
    return (
        (stats.attention_scores.dense, stats.attention_scores.computed),
        (stats.q_projection.dense, stats.q_projection.computed),
        (stats.kv_projection.dense, stats.kv_projection.computed),
        tuple(stats.attention_sparsities),
        stats.prediction_overhead_macs,
        tuple(np.asarray(k).tobytes() for k in stats.attention_keepmasks),
    )


def _three_ways(heads, tq, tk, top_k_ratio, q_threshold, seed, cross):
    """Run the oracle per request, then both engines, and compare every
    request's output bytes and statistics. Returns the oracle's keep
    masks and per-row probabilities, one entry per request."""
    rng = np.random.default_rng(seed)
    dim = heads * HEAD_DIM
    layer = MultiHeadAttention(dim, heads, rng, context_dim=12 if cross else None)
    config = ExionConfig(
        top_k_ratio=top_k_ratio, q_threshold=q_threshold,
        enable_ffn_reuse=False,
    )
    pred = CompiledPrediction.for_layer(
        layer, config.lod_mode, config.prediction_bits
    )
    xs = rng.standard_normal((3, tq, dim))
    contexts = rng.standard_normal((3, tk, 12)) if cross else None

    oracle = []
    for b in range(3):
        predictor = EagerPredictor(config, stats=RunStats(),
                                   collect_keepmasks=True)
        context = None if contexts is None else contexts[b]
        out, trace = predictor._run(layer, xs[b], context)
        assert np.isfinite(out).all()
        oracle.append((out, predictor.stats, trace))

        # Cross-attention K/V: derived in the step, or once per generation
        # as the single-seed engine does (the batch kernel at a batch of one).
        kvs = [None]
        if cross:
            kvs.append(tuple(
                a[0] for a in ep_cross_kv(layer, context[None], pred, config)
            ))
        for kv in kvs:
            stats = RunStats()
            step = ep_attention_step(layer, xs[b], context, pred, config,
                                     stats, collect_keepmasks=True, kv=kv)
            assert step.tobytes() == out.tobytes()
            assert _stats_key(stats) == _stats_key(predictor.stats)

    for members in ([1], [0, 1, 2]):
        batch_stats = [RunStats() for _ in members]
        context = kv = None
        if cross:  # the batched step always takes its cross K/V prepared
            context = contexts[members]
            kv = ep_cross_kv(layer, context, pred, config)
        out = ep_attention_step_batched(
            layer, xs[members], context, pred, config, batch_stats,
            collect_keepmasks=True, kv=kv,
        )
        for slot, b in enumerate(members):
            assert out[slot].tobytes() == oracle[b][0].tobytes()
            assert _stats_key(batch_stats[slot]) == _stats_key(oracle[b][1])

    return [(stats.attention_keepmasks[0], trace.probs)
            for _, stats, trace in oracle]


class TestThreeImplementationsAgree:
    @given(
        heads=st.integers(1, 5),
        tq=st.integers(1, 12),
        tk=st.integers(1, 12),
        top_k_ratio=st.floats(0.01, 1.0),
        q_threshold=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.just(1e9)),
        seed=st.integers(0, 2**16),
        cross=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_stats_byte_equal(
        self, heads, tq, tk, top_k_ratio, q_threshold, seed, cross
    ):
        if not cross:
            tk = tq
        _three_ways(heads, tq, tk, top_k_ratio, q_threshold, seed, cross)

    @pytest.mark.parametrize("cross", (False, True))
    def test_every_row_collapsed(self, cross):
        """``q_threshold = 0``: every row is one-hot, nothing is kept."""
        for keep, probs in _three_ways(3, 7, 7, 0.5, 0.0, 1, cross):
            assert not keep.any()
            assert np.all((probs == 0.0) | (probs == 1.0))
            assert np.all(probs.sum(axis=-1) == 1.0)

    @pytest.mark.parametrize("cross", (False, True))
    def test_no_row_collapsed(self, cross):
        """An unreachable ``q_threshold``: every row keeps its top half."""
        tk = 9 if cross else 7
        for keep, _ in _three_ways(3, 7, tk, 0.5, 1e9, 2, cross):
            assert np.all(keep.sum(axis=-1) == (tk + 1) // 2)

    @pytest.mark.parametrize("cross", (False, True))
    def test_rows_that_keep_a_single_score(self, cross):
        """``top_k_ratio`` small enough for ``keep_count == 1`` under an
        unreachable ``q_threshold``: no row is one-hot by dominance, every
        row keeps exactly its top score and softmaxes it to exactly 1.0.
        Closest reachable neighbour of the oracle's nothing-kept fallback;
        no NaN and no ``RuntimeWarning`` may come out of ``softmax``."""
        with np.errstate(all="raise"):
            results = _three_ways(2, 6, 11 if cross else 6, 0.01, 1e9, 3, cross)
        for keep, probs in results:
            assert np.all(keep.sum(axis=-1) == 1)
            np.testing.assert_array_equal(probs, keep.astype(np.float64))
