"""One EP attention layer, two implementations, the same bytes.

:meth:`repro.core.eager_prediction.EagerPredictor._run` (the oracle) and
:func:`~repro.core.eager_prediction.ep_attention_step_batched` (the
engine's one step, at a batch of one and of three, its cross K/V derived
in the step or read from
:func:`~repro.core.eager_prediction.ep_cross_kv`) both define the
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
        repr(stats.attention_sparsities),
        tuple(np.asarray(k).tobytes() for k in stats.attention_keepmasks),
    )


def _both_ways(heads, tq, tk, top_k_ratio, q_threshold, seed, cross,
               context_dim=12):
    """Run the oracle per request, then the engine's step on one request
    and on all three, and compare every request's output bytes and
    statistics. Returns, per request, the oracle's keep mask, collapsed
    rows and output, and the output of every row attending only its
    predicted argmax column."""
    rng = np.random.default_rng(seed)
    dim = heads * HEAD_DIM
    layer = MultiHeadAttention(dim, heads, rng,
                               context_dim=context_dim if cross else None)
    config = ExionConfig(
        top_k_ratio=top_k_ratio, q_threshold=q_threshold,
        enable_ffn_reuse=False,
    )
    pred = CompiledPrediction.for_layer(
        layer, config.lod_mode, config.prediction_bits
    )
    xs = rng.standard_normal((3, tq, dim))
    contexts = rng.standard_normal((3, tk, context_dim)) if cross else None

    oracle = []
    for b in range(3):
        predictor = EagerPredictor(config, stats=RunStats(collect_masks=True))
        context = None if contexts is None else contexts[b]
        out = predictor._run(layer, xs[b], context)
        assert np.isfinite(out).all()
        kv_input = xs[b] if context is None else context
        decisions = predictor.decide(
            predictor.predict_scores(layer, xs[b], kv_input))
        cols = np.stack([d.one_hot_cols for d in decisions])[..., None]
        v = layer.kv(kv_input)[1]
        picked = layer.wo(layer.merge_heads(np.take_along_axis(v, cols, -2)))
        oracle.append((out, predictor.stats, decisions, picked))

    for members in ([1], [0, 1, 2]):
        context = None if contexts is None else contexts[members]
        # Cross-attention K/V: derived in the step, or once per generation
        # as the engine does.
        kvs = (None, ep_cross_kv(layer, context, pred, config)) if cross else (None,)
        for kv in kvs:
            batch_stats = [RunStats(collect_masks=True) for _ in members]
            out = ep_attention_step_batched(
                layer, xs[members], context, pred, config, batch_stats, kv=kv,
            )
            for slot, b in enumerate(members):
                assert out[slot].tobytes() == oracle[b][0].tobytes()
                assert _stats_key(batch_stats[slot]) == _stats_key(oracle[b][1])

    return [
        (stats.attention_keepmasks[0],
         np.stack([d.one_hot_rows for d in decisions]), out, picked)
        for out, stats, decisions, picked in oracle
    ]


class TestStepIsTheOracle:
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
        _both_ways(heads, tq, tk, top_k_ratio, q_threshold, seed, cross)

    @pytest.mark.parametrize("cross", (False, True))
    def test_every_row_collapsed(self, cross):
        """``q_threshold = 0``: every row is one-hot, nothing is kept, and
        each row reads back exactly V at its predicted argmax column."""
        for keep, collapsed, out, picked in _both_ways(3, 7, 7, 0.5, 0.0, 1,
                                                       cross):
            assert not keep.any()
            assert collapsed.all()
            np.testing.assert_array_equal(out, picked)

    @pytest.mark.parametrize("cross", (False, True))
    def test_no_row_collapsed(self, cross):
        """An unreachable ``q_threshold``: every row keeps its top half."""
        tk = 9 if cross else 7
        for keep, collapsed, _, _ in _both_ways(3, 7, tk, 0.5, 1e9, 2, cross):
            assert np.all(keep.sum(axis=-1) == (tk + 1) // 2)
            assert not collapsed.any()

    @pytest.mark.parametrize("cross", (False, True))
    def test_rows_that_keep_a_single_score(self, cross):
        """``top_k_ratio`` small enough for ``keep_count == 1`` under an
        unreachable ``q_threshold``: no row is one-hot by dominance, every
        row keeps exactly its top score and softmaxes it to exactly 1.0.
        Closest reachable neighbour of the oracle's nothing-kept fallback;
        no NaN and no ``RuntimeWarning`` may come out of ``softmax``."""
        with np.errstate(all="raise"):
            results = _both_ways(2, 6, 11 if cross else 6, 0.01, 1e9, 3, cross)
        for keep, collapsed, out, picked in results:
            assert np.all(keep.sum(axis=-1) == 1)
            assert not collapsed.any()
            np.testing.assert_array_equal(out, picked)

    @pytest.mark.parametrize("tq", (1, 5, 16))
    def test_one_key(self, tq):
        """A one-token context, whatever the knobs: the step returns
        before the prediction, and every row still collapses onto the lone
        key exactly as the oracle's decision has it."""
        for q_threshold in (0.0, 1e9):
            for keep, collapsed, out, picked in _both_ways(
                3, tq, 1, 0.5, q_threshold, 4, True
            ):
                assert keep.shape == (3, tq, 1) and not keep.any()
                assert collapsed.all()
                np.testing.assert_array_equal(out, picked)

    @pytest.mark.parametrize("tk", (7, 10))
    def test_a_cross_step_predicts_k_from_its_context(self, tk):
        """Without cached K/V, a cross step predicts K from each request's
        context, not from ``x``. On a context as wide as ``x`` the wrong
        operand gave wrong bytes at ``tq == tk`` and a broadcast error at
        ``tq != tk``."""
        _both_ways(3, 7, tk, 0.5, 1e9, 5, True, context_dim=3 * HEAD_DIM)
