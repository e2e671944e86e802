"""Unit tests for the eager-prediction algorithm."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.eager_prediction import EagerPredictor, ep_decide
from repro.core.sparsity import RunStats
from repro.models.activations import softmax
from repro.models.attention import MultiHeadAttention
from repro.models.network import NetworkType
from repro.models.zoo import BENCHMARK_MODELS, build_model


def make_predictor(top_k=0.5, q_th=10.0, mode="ts_lod"):
    config = ExionConfig(
        top_k_ratio=top_k, q_threshold=q_th, lod_mode=mode,
        enable_ffn_reuse=False,
    )
    return EagerPredictor(config, stats=RunStats())


class TestPrediction:
    def test_predicted_scores_shape(self, rng):
        attn = MultiHeadAttention(16, 4, rng)
        pred = make_predictor().predict_scores(
            attn, rng.standard_normal((6, 16)), rng.standard_normal((6, 16))
        )
        assert pred.shape == (4, 6, 6)

    def test_prediction_correlates_with_exact(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        x = rng.standard_normal((8, 16))
        pred = make_predictor().predict_scores(attn, x, x)
        _, trace = attn.forward_exact(x)
        corr = np.corrcoef(pred.ravel(), trace.scores.ravel())[0, 1]
        assert corr > 0.9


class TestDecisions:
    def test_top_k_count_respected(self, rng):
        predictor = make_predictor(top_k=0.25, q_th=1e9)
        scores = rng.standard_normal((1, 8, 8))
        (decision,) = predictor.decide(scores)
        # ceil(0.25 * 8) = 2 kept per row.
        np.testing.assert_array_equal(decision.keep.sum(axis=1), np.full(8, 2))

    def test_top_k_one_keeps_everything(self, rng):
        predictor = make_predictor(top_k=1.0, q_th=1e9)
        (decision,) = predictor.decide(rng.standard_normal((1, 4, 4)))
        assert decision.keep.all()

    def test_dominance_collapses_row(self):
        predictor = make_predictor(top_k=0.5, q_th=1.0)
        scores = np.array([[[10.0, 0.0, 0.0, 0.0],
                            [1.0, 0.9, 0.8, 0.7]]])
        (decision,) = predictor.decide(scores)
        assert decision.one_hot_rows[0]
        assert not decision.one_hot_rows[1]
        assert decision.one_hot_cols[0] == 0
        # Collapsed row keeps no exact-score elements.
        assert decision.keep[0].sum() == 0

    def test_skipped_elements_counted(self):
        predictor = make_predictor(top_k=0.5, q_th=1e9)
        scores = np.zeros((1, 4, 4))
        scores[0, :, :2] = 1.0
        (decision,) = predictor.decide(scores)
        assert decision.skipped_elements == 8


def _ep_decide_reference(predicted, top_k_ratio, q_threshold):
    """``ep_decide`` as it stood before the flat scatter and the
    ``partition`` gap: ``put_along_axis`` and a full ``sort``."""
    tk = predicted.shape[-1]
    keep_count = max(1, int(np.ceil(top_k_ratio * tk)))
    keep = np.zeros(predicted.shape, dtype=bool)
    if keep_count >= tk:
        keep[:] = True
    else:
        top_idx = np.argpartition(
            -predicted, keep_count - 1, axis=-1
        )[..., :keep_count]
        np.put_along_axis(keep, top_idx, True, axis=-1)
    one_hot_cols = np.argmax(predicted, axis=-1)
    if tk >= 2:
        sorted_scores = np.sort(predicted, axis=-1)
        gap = sorted_scores[..., -1] - sorted_scores[..., -2]
        one_hot_rows = gap > q_threshold
    else:
        one_hot_rows = np.ones(predicted.shape[:-1], dtype=bool)
    keep[one_hot_rows] = False
    return keep, one_hot_rows, one_hot_cols


class TestCompiledDecide:
    """``ep_decide`` takes the same decisions as the formula it replaced,
    ties included (``argpartition`` is what breaks them)."""

    @pytest.mark.parametrize("tk", [1, 2, 3, 16, 77])
    @pytest.mark.parametrize("top_k", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("lead", [(5,), (4, 6), (2, 3, 5)])
    def test_matches_reference_with_ties(self, rng, tk, top_k, lead):
        halves = np.round(rng.standard_normal(lead + (tk,)) * 2.0) / 2.0
        halves[0] = 1.5  # constant rows: every score tied
        stacks = [halves, rng.standard_normal(lead + (tk,)),
                  halves[..., ::-1]]  # non-contiguous input
        for predicted in stacks:
            for q_th in (0.0, 0.5, 1e9):
                got = ep_decide(predicted, top_k, q_th)
                want = _ep_decide_reference(predicted, top_k, q_th)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)
                # the invariant the compiled step relies on: a row keeps
                # something unless it collapsed
                np.testing.assert_array_equal(got[0].any(axis=-1), ~got[1])

    def test_each_head_gets_the_oracle_decision(self, rng):
        predictor = make_predictor(top_k=0.3, q_th=0.5)
        predicted = np.round(rng.standard_normal((4, 9, 13)) * 2.0) / 2.0
        keep, rows, cols = ep_decide(predicted, 0.3, 0.5)
        for h, decision in enumerate(predictor.decide(predicted)):
            np.testing.assert_array_equal(keep[h], decision.keep)
            np.testing.assert_array_equal(rows[h], decision.one_hot_rows)
            np.testing.assert_array_equal(cols[h], decision.one_hot_cols)


class TestExecutor:
    def test_full_keep_matches_exact(self, rng):
        """top_k=1 and an unreachable q_th must reproduce exact attention."""
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=1.0, q_th=1e9)
        x = rng.standard_normal((6, 16))
        out, _ = attn(x, executor=predictor.executor())
        exact, _ = attn.forward_exact(x)
        np.testing.assert_allclose(out, exact, atol=1e-9)

    def test_sparse_output_close_to_exact(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.5, q_th=1e9)
        x = rng.standard_normal((8, 16))
        out, trace = attn(x, executor=predictor.executor())
        exact, _ = attn.forward_exact(x)
        rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert rel < 0.5
        assert trace.output_sparsity > 0.0

    def test_cross_attention_supported(self, rng):
        attn = MultiHeadAttention(16, 2, rng, context_dim=8)
        predictor = make_predictor(top_k=0.5, q_th=1e9)
        x = rng.standard_normal((6, 16))
        ctx = rng.standard_normal((4, 8))
        out, trace = attn(x, context=ctx, executor=predictor.executor())
        assert out.shape == (6, 16)
        assert trace.scores.shape == (2, 6, 4)

    def test_one_hot_rows_return_argmax_value_row(self, rng):
        attn = MultiHeadAttention(8, 1, rng)
        predictor = make_predictor(top_k=0.5, q_th=0.0)  # everything one-hot
        x = rng.standard_normal((4, 8))
        out, trace = attn(x, executor=predictor.executor())
        # All rows collapsed: probabilities are one-hot.
        assert np.all(trace.probs.sum(axis=-1) == 1.0)
        assert np.all((trace.probs == 0) | (trace.probs == 1))

    def test_probs_rows_are_distributions(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.5, q_th=0.5)
        x = rng.standard_normal((8, 16))
        _, trace = attn(x, executor=predictor.executor())
        np.testing.assert_allclose(
            trace.probs.sum(axis=-1), np.ones((2, 8)), atol=1e-9
        )


class TestStatistics:
    def test_sparsity_tracks_top_k(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.25, q_th=1e9)
        x = rng.standard_normal((8, 16))
        attn(x, executor=predictor.executor())
        assert predictor.stats.attention_sparsities[0] == pytest.approx(
            0.75, abs=0.01
        )

    def test_projection_skips_accumulated(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.1, q_th=0.2)
        x = rng.standard_normal((16, 16))
        attn(x, executor=predictor.executor())
        stats = predictor.stats
        assert stats.q_projection.dense > 0
        assert stats.kv_projection.dense > 0
        assert 0.0 <= stats.q_projection_skip_rate <= 1.0
        assert 0.0 <= stats.kv_projection_skip_rate <= 1.0

    def test_prediction_overhead_counted(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor()
        attn(rng.standard_normal((4, 16)), executor=predictor.executor())
        assert predictor.stats.prediction_overhead_macs > 0

    def test_keepmasks_collected_when_enabled(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        config = ExionConfig(top_k_ratio=0.5, q_threshold=1e9)
        predictor = EagerPredictor(config, collect_keepmasks=True)
        attn(rng.standard_normal((4, 16)), executor=predictor.executor())
        assert len(predictor.stats.attention_keepmasks) == 1
        assert predictor.stats.attention_keepmasks[0].shape == (2, 4, 4)


def _zoo_attention_shapes():
    """``(heads, tq, tk)`` of every attention call a zoo model makes:
    self- and cross-attention, at full and at downsampled resolution."""
    shapes = set()
    for name in BENCHMARK_MODELS:
        model = build_model(name, total_iterations=2)
        network, heads = model.network, model.spec.num_heads
        resolutions = {network.tokens}
        if network.network_type is not NetworkType.TRANSFORMER_ONLY:
            resolutions.add((network.tokens + 1) // 2)
        for tq in resolutions:
            shapes.add((heads, tq, tq))
            if model.conditioning is not None:
                shapes.add((heads, tq, model.conditioning.max_tokens))
    return sorted(shapes)


class TestStackedContractions:
    """The oracle takes one 2-D product per head, the engines one stacked
    ``matmul`` over heads (and requests). Their byte parity rests on the
    two being the same bytes on every shape the zoo runs, with operands
    laid out as ``split_heads`` lays them out (strided views)."""

    @pytest.mark.parametrize("heads,tq,tk", _zoo_attention_shapes())
    def test_stacked_matmul_is_the_per_head_product(self, rng, heads, tq, tk):
        layer = MultiHeadAttention(64, heads, rng)
        x = rng.standard_normal((3, tq, 64))
        kv_input = rng.standard_normal((3, tk, 64))
        q = layer.split_heads(layer.wq(x))
        k, v = layer.kv(kv_input)
        probs = softmax(rng.standard_normal((3, heads, tq, tk)))
        scores4 = np.matmul(q, k.transpose(0, 1, 3, 2))
        attended4 = np.matmul(probs, v)
        for b in range(3):
            scores3 = np.matmul(q[b], k[b].transpose(0, 2, 1))
            attended3 = np.matmul(probs[b], v[b])
            assert scores4[b].tobytes() == scores3.tobytes()
            assert attended4[b].tobytes() == attended3.tobytes()
            for h in range(heads):
                assert scores3[h].tobytes() == (q[b, h] @ k[b, h].T).tobytes()
                assert attended3[h].tobytes() == (
                    probs[b, h] @ v[b, h]
                ).tobytes()

    @pytest.mark.parametrize("heads,tq,tk", _zoo_attention_shapes())
    def test_collapsed_row_reads_back_its_value_row(self, rng, heads, tq, tk):
        layer = MultiHeadAttention(64, heads, rng)
        v = layer.split_heads(layer.wv(rng.standard_normal((tk, 64))))
        cols = rng.integers(0, tk, size=(heads, tq))
        probs = softmax(rng.standard_normal((heads, tq, tk)))
        collapsed = rng.random((heads, tq)) < 0.5
        collapsed[0, 0] = True
        hh, rr = np.nonzero(collapsed)
        probs[hh, rr] = 0.0
        probs[hh, rr, cols[hh, rr]] = 1.0
        attended = np.matmul(probs, v)
        assert attended[hh, rr].tobytes() == v[hh, cols[hh, rr]].tobytes()

    def test_negative_zero_value_comes_back_positive(self, rng):
        """``1.0 * -0.0 + 0.0 * w`` sums to ``+0.0``: the one byte the
        full-row product changes, identically in oracle and engines."""
        v = rng.standard_normal((2, 6, 16))
        v[:, 3, ::2] = -0.0
        probs = np.zeros((2, 4, 6))
        probs[:, :, 3] = 1.0
        attended = np.matmul(probs, v)
        for h in range(2):
            assert attended[h].tobytes() == (probs[h] @ v[h]).tobytes()
        row = attended[0, 0]
        assert np.array_equal(row, v[0, 3])
        assert row.tobytes() != v[0, 3].tobytes()
        assert not np.signbit(row[::2]).any()
        assert row[1::2].tobytes() == v[0, 3, 1::2].tobytes()
