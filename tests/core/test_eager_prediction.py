"""Unit tests for the eager-prediction algorithm."""

import warnings
from collections import Counter

import numpy as np
import pytest

import repro.core.eager_prediction as ep_module
import repro.exec.continuous as continuous_module
from repro.core.config import ExionConfig
from repro.core.eager_prediction import (
    CompiledPrediction,
    EagerPredictor,
    _masked_softmax,
    ep_attention_step_batched,
    ep_cross_kv,
    ep_decide,
)
from repro.core.pipeline import ExionPipeline
from repro.core.sparsity import RunStats
from repro.models.activations import softmax
from repro.models.attention import MultiHeadAttention
from repro.models.linear import Linear
from repro.models.network import NetworkType
from repro.models.zoo import BENCHMARK_MODELS, build_model
from repro.workloads.specs import get_spec


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
        q, k = attn.split_heads(attn.wq(x)), attn.split_heads(attn.wk(x))
        exact = (q @ k.swapaxes(-1, -2)) * attn.scale
        corr = np.corrcoef(pred.ravel(), exact.ravel())[0, 1]
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
        assert np.count_nonzero(~decision.keep) == 8


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
    ties included (``argpartition`` is what breaks them). A one-key step
    never reaches it (``test_ep_attention_parity`` holds that step to the
    oracle at ``tk == 1``)."""

    @pytest.mark.parametrize("tk", [2, 3, 16, 77])
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

    @pytest.mark.parametrize("tk,top_k", [
        (tk, top_k) for tk in (2, 5, 16) for top_k in (0.05, 0.25, 0.5, 0.8, 0.9)
        if np.ceil(top_k * tk) < tk  # keep-all rows have no boundary
    ])
    def test_unique_and_boundary_tied_rows_in_one_stack(self, rng, tk, top_k):
        """One call over rows whose top-k set is unique and rows tied
        exactly at the k-th boundary: the tied rows take the fallback, the
        unique ones the ``>= kth`` test, and neither may leak into the
        other (the fallback works on a gathered subset of rows)."""
        keep_count = max(1, int(np.ceil(top_k * tk)))
        stack = rng.standard_normal((3, 4, 6, tk))
        rows = stack.reshape(-1, tk)
        order = np.argsort(-rows, axis=-1)
        ranks = np.arange(len(rows))
        # Every third row: the k-th and (k+1)-th largest made equal.
        tie = ranks[::3]
        rows[tie, order[tie, keep_count]] = rows[tie, order[tie, keep_count - 1]]
        # Every third row from the second: one real score and zero
        # padding, the class-label cross-attention pattern.
        pad = ranks[1::3]
        rows[pad, 1:] = 0.0
        ordered = np.sort(rows, axis=-1)
        tied = ordered[:, tk - keep_count - 1] == ordered[:, tk - keep_count]
        assert tied[tie].all() and not tied[2::3].any()
        if 1 < keep_count < tk - 1:  # the real score is off the boundary
            assert tied[pad].all()

        predictor = make_predictor(top_k=top_k, q_th=0.5)
        for predicted in (stack, stack[..., ::-1], stack.swapaxes(0, 2)):
            for q_th in (0.0, 0.5, 1e9):
                got = ep_decide(predicted, top_k, q_th)
                want = _ep_decide_reference(predicted, top_k, q_th)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    np.testing.assert_array_equal(g, w)
            keep, one_hot, cols = ep_decide(predicted, top_k, 0.5)
            heads = predicted.reshape(-1, *predicted.shape[-2:])
            for h, decision in enumerate(predictor.decide(heads)):
                index = np.unravel_index(h, predicted.shape[:-2])
                np.testing.assert_array_equal(keep[index], decision.keep)
                np.testing.assert_array_equal(one_hot[index],
                                              decision.one_hot_rows)
                np.testing.assert_array_equal(cols[index],
                                              decision.one_hot_cols)

    def test_each_head_gets_the_oracle_decision(self, rng):
        predictor = make_predictor(top_k=0.3, q_th=0.5)
        predicted = np.round(rng.standard_normal((4, 9, 13)) * 2.0) / 2.0
        keep, rows, cols = ep_decide(predicted, 0.3, 0.5)
        for h, decision in enumerate(predictor.decide(predicted)):
            np.testing.assert_array_equal(keep[h], decision.keep)
            np.testing.assert_array_equal(rows[h], decision.one_hot_rows)
            np.testing.assert_array_equal(cols[h], decision.one_hot_cols)


class TestMaskedSoftmax:
    """The steps' softmax skips the ``-inf`` fill's slow ``exp`` and the
    last-axis max reduction; it must stay the masked softmax's bytes."""

    @staticmethod
    def _check(exact, attend):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _masked_softmax(exact, attend)
            want = softmax(np.where(attend, exact, -np.inf), axis=-1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tk", [1, 2, 3, 7, 16, 77])
    def test_byte_equal_to_the_masked_softmax(self, rng, tk):
        exact = rng.standard_normal((2, 3, 9, tk)) * 4.0
        attend = rng.random(exact.shape) < 0.4
        one = rng.integers(0, tk, size=exact.shape[:-1])
        attend[..., 0, :] = False
        attend[..., 0, :][one[..., 0, None] == np.arange(tk)] = True  # one kept
        attend[..., 1, :] = True  # all kept
        attend |= ~attend.any(axis=-1, keepdims=True)  # no empty row
        self._check(exact, attend)
        self._check(exact[..., ::-1], attend[..., ::-1])  # non-contiguous

    def test_gaps_above_800_neither_overflow_nor_warn(self, rng):
        """A dropped score 900 above the kept ones would overflow an
        unfilled ``exp``; a kept score 900 below its row max underflows
        to 0 exactly as in the definition."""
        exact = rng.standard_normal((4, 8, 16))
        attend = rng.random(exact.shape) < 0.5
        attend[..., 3] = True
        exact[~attend] += 900.0
        exact[..., 5] -= 900.0
        attend[..., 5] = True
        self._check(exact, attend)
        self._check(-exact, attend)

    def test_signed_zero_maxima(self):
        """The row max of ``+0.0`` and ``-0.0`` is either; every shift
        then exponentiates to the same bytes."""
        exact = np.array([[0.0, -0.0, -1.0, 2.0], [-0.0, 0.0, -0.0, -3.0]])
        attend = np.array([[True, True, True, False], [True, True, True, True]])
        self._check(exact, attend)
        self._check(exact[:, ::-1], attend[:, ::-1])


class TestCrossAttentionTies:
    """A context holds its real tokens only (``ConditioningEncoder.
    encode_ids`` does not pad). A class label is one token, the argmax of
    every score row, so its cross-attention step returns before the
    log-domain prediction and never reaches ``ep_decide``. A prompt's
    tokens are distinct embeddings, so no cross-attention score row ties
    at its top-k boundary; zero padding used to tie every class-label row
    and, on the prompt below, 99 of 192 rows on ``mld`` up to 576 of 576
    on ``videocrafter2``. Self-attention rows never tie."""

    CONDITIONED = [
        name for name in BENCHMARK_MODELS if get_spec(name).context_dim
    ]

    @staticmethod
    def _spy(monkeypatch):
        """Per attention kind: how many prediction operands the steps
        prepared and ``[tied, rows]`` of the score rows they decided."""
        kinds = []
        prepared = {"self": 0, "cross": 0}
        tallies = {"self": [0, 0], "cross": [0, 0]}

        def wrap_step(real):
            def step(layer, x, context, *args, **kwargs):
                kinds.append("self" if context is None else "cross")
                try:
                    return real(layer, x, context, *args, **kwargs)
                finally:
                    kinds.pop()
            return step

        def wrap_prepare(real):
            def prepare(*args, **kwargs):
                if kinds:  # ep_cross_kv's per-membership constants are not
                    prepared[kinds[-1]] += 1  # a step's prediction
                return real(*args, **kwargs)
            return prepare

        real_decide = ep_module.ep_decide

        def decide(predicted, top_k_ratio, q_threshold):
            tk = predicted.shape[-1]
            keep_count = max(1, int(np.ceil(top_k_ratio * tk)))
            ordered = np.sort(predicted.reshape(-1, tk), axis=-1)
            tally = tallies[kinds[-1]]
            if keep_count < tk:
                tally[0] += np.count_nonzero(
                    ordered[:, tk - keep_count - 1]
                    == ordered[:, tk - keep_count]
                )
            tally[1] += len(ordered)
            return real_decide(predicted, top_k_ratio, q_threshold)

        monkeypatch.setattr(
            continuous_module, "ep_attention_step_batched",
            wrap_step(continuous_module.ep_attention_step_batched))
        monkeypatch.setattr(ep_module, "_prepare_per_request",
                            wrap_prepare(ep_module._prepare_per_request))
        monkeypatch.setattr(ep_module, "ep_decide", decide)
        return prepared, tallies

    @pytest.mark.parametrize("name", CONDITIONED)
    def test_a_class_label_step_neither_predicts_nor_decides(
        self, monkeypatch, name
    ):
        prepared, tallies = self._spy(monkeypatch)
        model = build_model(name, total_iterations=2)
        assert model.make_pipeline().embed_prompt(None, 3).shape[0] == 1
        pipeline = ExionPipeline(model, ExionConfig.for_model(name))
        pipeline.generate(seed=7, class_label=3)  # a batch of one
        pipeline.generate_batch([7, 8, 9], class_label=3, batched=True)
        assert prepared["cross"] == 0 and tallies["cross"] == [0, 0]
        assert prepared["self"] and tallies["self"][1]
        assert tallies["self"][0] == 0

    @pytest.mark.parametrize("name", CONDITIONED)
    def test_no_cross_row_ties_on_a_prompt_and_no_self_row_does(
        self, monkeypatch, name
    ):
        _, tallies = self._spy(monkeypatch)
        model = build_model(name, total_iterations=2)
        prompt = "a corgi surfing on a wave"
        assert model.make_pipeline().embed_prompt(prompt).shape[0] == 6
        ExionPipeline(model, ExionConfig.for_model(name)).generate_batch(
            [7, 8, 9], prompt=prompt, batched=True
        )
        for kind in ("cross", "self"):
            tied, rows = tallies[kind]
            assert rows and tied == 0, (kind, tied, rows)


class TestExecutor:
    def test_full_keep_matches_exact(self, rng):
        """top_k=1 and an unreachable q_th must reproduce exact attention."""
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=1.0, q_th=1e9)
        x = rng.standard_normal((6, 16))
        out = attn(x, executor=predictor.executor())
        np.testing.assert_allclose(out, attn.forward_exact(x), atol=1e-9)

    def test_sparse_output_close_to_exact(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.5, q_th=1e9)
        x = rng.standard_normal((8, 16))
        out = attn(x, executor=predictor.executor())
        exact = attn.forward_exact(x)
        rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert rel < 0.5
        assert predictor.stats.attention_sparsities[0] > 0.0

    def test_cross_attention_supported(self, rng):
        attn = MultiHeadAttention(16, 2, rng, context_dim=8)
        predictor = make_predictor(top_k=0.5, q_th=1e9)
        x = rng.standard_normal((6, 16))
        ctx = rng.standard_normal((4, 8))
        out = attn(x, context=ctx, executor=predictor.executor())
        assert out.shape == (6, 16)
        # 2 heads x 6 queries x 4 context keys, head_dim 8 MACs each.
        assert predictor.stats.attention_scores.dense == 2 * 6 * 4 * 8

    def test_one_hot_rows_return_argmax_value_row(self, rng):
        attn = MultiHeadAttention(8, 1, rng)
        predictor = make_predictor(top_k=0.5, q_th=0.0)  # everything one-hot
        x = rng.standard_normal((4, 8))
        out = attn(x, executor=predictor.executor())
        # All rows collapsed: each reads back V at its argmax column.
        (decision,) = predictor.decide(predictor.predict_scores(attn, x, x))
        assert decision.one_hot_rows.all()
        np.testing.assert_allclose(
            out, attn.wo(attn.wv(x)[decision.one_hot_cols]), rtol=0,
            atol=1e-12,
        )

    def test_probs_rows_are_distributions(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        predictor = make_predictor(top_k=0.5, q_th=0.5)
        x = rng.standard_normal((8, 16))
        # All-ones values: every head of every row reads back its
        # probability row's sum.
        attn.wv = lambda a: np.ones((a.shape[0], 16))
        out = attn(x, executor=predictor.executor())
        np.testing.assert_allclose(out, attn.wo(np.ones((8, 16))), atol=1e-9)


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

    def test_keepmasks_collected_when_enabled(self, rng):
        attn = MultiHeadAttention(16, 2, rng)
        config = ExionConfig(top_k_ratio=0.5, q_threshold=1e9)
        predictor = EagerPredictor(config, RunStats(collect_masks=True))
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


def _count_projections(monkeypatch, layers):
    """Tally, from here on, the exact Q, K and V projections ``layers``
    run (``Linear`` calls on their ``wq`` / ``wk`` / ``wv``)."""
    roles = {}
    for layer in layers:
        roles.update({id(layer.wq): "wq", id(layer.wk): "wk",
                      id(layer.wv): "wv"})
    counts = Counter()
    real = Linear.__call__

    def call(self, x):
        counts[roles.get(id(self))] += 1
        return real(self, x)

    monkeypatch.setattr(Linear, "__call__", call)
    return counts


def _stats_key(stats):
    return (
        (stats.attention_scores.dense, stats.attention_scores.computed),
        (stats.q_projection.dense, stats.q_projection.computed),
        (stats.kv_projection.dense, stats.kv_projection.computed),
        repr(stats.attention_sparsities),
        tuple(mask.tobytes() for mask in stats.attention_keepmasks),
    )


class TestSingleColumnSkip:
    """A step whose every score row attends one column takes ``attend``
    as its probabilities and runs no exact Q or K projection, no score
    and no softmax. Each request must still get the oracle's bytes and
    statistics, and a batch holding one wider row takes the exact path."""

    @staticmethod
    def _all_forms(monkeypatch, layer, config, xs, contexts=None, v=None):
        """Each request through the oracle, then through the step alone
        and through the step over the whole batch; asserts they agree
        byte for byte, statistics included. Returns the projections the
        steps ran and the batch's output. ``v`` replaces every step's
        cross V."""
        pred = CompiledPrediction.for_layer(layer, config.lod_mode,
                                            config.prediction_bits)
        kv = None
        if contexts is not None:
            kh, k, v_exact = ep_cross_kv(layer, contexts, pred, config)
            kv = (kh, k, v_exact if v is None else v)
        want = []
        for b, x in enumerate(xs):
            predictor = EagerPredictor(config, RunStats(collect_masks=True))
            context = None if contexts is None else contexts[b]
            if v is not None:
                monkeypatch.setattr(layer, "kv",
                                    lambda _, b=b: (kv[1][b], kv[2][b]))
            out = predictor._run(layer, x, context)
            want.append((out.tobytes(), _stats_key(predictor.stats)))

        counts = _count_projections(monkeypatch, [layer])
        for b, x in enumerate(xs):
            context = None if contexts is None else contexts[b]
            cached = None if kv is None else tuple(
                None if a is None else a[b:b + 1] for a in kv)  # no K at tk = 1
            # A cross step without cached K/V projects its own.
            uncached = () if kv is None or v is not None else (None,)
            for step_kv in (cached, *uncached):
                stats = RunStats(collect_masks=True)
                out = ep_attention_step_batched(
                    layer, x[None], None if context is None else context[None],
                    pred, config, [stats], kv=step_kv)
                assert (out[0].tobytes(), _stats_key(stats)) == want[b]
        batch_stats = [RunStats(collect_masks=True) for _ in xs]
        out = ep_attention_step_batched(layer, xs, contexts, pred, config,
                                        batch_stats, kv=kv)
        for b, stats in enumerate(batch_stats):
            assert (out[b].tobytes(), _stats_key(stats)) == want[b]
        return counts, out

    @pytest.mark.parametrize("cross", (False, True))
    @pytest.mark.parametrize("top_k,q_th", [
        (0.01, 1e9), (0.5, 0.0), (0.01, 0.0),
    ], ids=("keep_count=1", "all-one-hot", "both"))
    def test_single_column_steps_are_the_oracle(self, monkeypatch, rng,
                                                cross, top_k, q_th):
        layer = MultiHeadAttention(24, 3, rng,
                                   context_dim=12 if cross else None)
        xs = rng.standard_normal((3, 7, 24))
        contexts = rng.standard_normal((3, 11, 12)) if cross else None
        config = ExionConfig(top_k_ratio=top_k, q_threshold=q_th,
                             enable_ffn_reuse=False)
        counts, _ = self._all_forms(monkeypatch, layer, config, xs, contexts)
        assert counts["wq"] == counts["wk"] == 0
        # V is still projected by every step without cached K/V: three
        # one-request steps, plus the whole batch's for self-attention.
        assert counts["wv"] == (3 if cross else 4)

    @pytest.mark.parametrize("cross", (False, True))
    def test_a_single_key(self, monkeypatch, rng, cross):
        """``tk = 1``: every row collapses onto the one key."""
        layer = MultiHeadAttention(16, 2, rng,
                                   context_dim=12 if cross else None)
        xs = rng.standard_normal((3, 5 if cross else 1, 16))
        contexts = rng.standard_normal((3, 1, 12)) if cross else None
        config = ExionConfig(top_k_ratio=0.5, q_threshold=1e9,
                             enable_ffn_reuse=False)
        counts, _ = self._all_forms(monkeypatch, layer, config, xs, contexts)
        assert counts["wq"] == counts["wk"] == 0

    def test_negative_zero_value_comes_back_positive(self, monkeypatch, rng):
        """The skip keeps ``probs @ v`` a product: a -0.0 at an attended
        value comes back +0.0 in every form, never gathered as -0.0."""
        layer = MultiHeadAttention(16, 2, rng, context_dim=12)
        monkeypatch.setattr(layer, "wo", np.ascontiguousarray)  # out = attended
        v = rng.standard_normal((3, 2, 9, 8))
        v[..., ::2] = -0.0  # every key's value: whichever column is attended
        config = ExionConfig(top_k_ratio=0.5, q_threshold=0.0,
                             enable_ffn_reuse=False)
        counts, out = self._all_forms(
            monkeypatch, layer, config, rng.standard_normal((3, 6, 16)),
            rng.standard_normal((3, 9, 12)), v=v,
        )
        assert counts["wq"] == counts["wk"] == 0
        assert not out[..., ::2].any() and not np.signbit(out[..., ::2]).any()

    def test_one_wider_row_sends_the_batch_down_the_exact_path(
        self, monkeypatch, rng
    ):
        """Request 0 is all one-hot; request 1 keeps two of eight keys in
        every row. Alone, request 0 skips; batched, both run exact."""
        layer = MultiHeadAttention(16, 2, rng)
        config = ExionConfig(top_k_ratio=0.25, q_threshold=0.5,
                             enable_ffn_reuse=False)
        xs = rng.standard_normal((2, 8, 16))
        xs[0] *= 100.0  # dominance gaps far above q_threshold
        xs[1] *= 0.01  # and far below it
        counts, _ = self._all_forms(monkeypatch, layer, config, xs[:1])
        assert counts["wq"] == counts["wk"] == 0
        stats = [RunStats(collect_masks=True), RunStats(collect_masks=True)]
        pred = CompiledPrediction.for_layer(layer, config.lod_mode,
                                            config.prediction_bits)
        ep_attention_step_batched(layer, xs, None, pred, config, stats)
        keep0, keep1 = (s.attention_keepmasks[0] for s in stats)
        assert not keep0.any() and (keep1.sum(axis=-1) == 2).all()
        counts, _ = self._all_forms(monkeypatch, layer, config, xs)
        # request 1's own step and the batch's
        assert counts["wq"] == counts["wk"] == 2

    @pytest.mark.parametrize("name,skips", [
        ("dit", True), ("stable_diffusion", False),
    ])
    def test_zoo_steps_project_q_and_k_only_to_score(self, monkeypatch,
                                                     name, skips):
        """``dit`` keeps one of 16 keys, so its every compiled EP step is
        single-column and projects no exact Q or K; ``stable_diffusion``
        keeps more, and its steps project both."""
        model = build_model(name, total_iterations=2)
        layers = [
            layer for block in model.network.blocks
            for layer in (getattr(block, "self_attn", None),
                          getattr(block, "cross_attn", None))
            if layer is not None
        ]
        counts = _count_projections(monkeypatch, layers)
        pipeline = ExionPipeline(model, ExionConfig.for_model(name))
        pipeline.generate(7, class_label=3)
        pipeline.generate_batch([7, 8], class_label=3, batched=True)
        assert counts["wv"] > 0
        if skips:
            assert counts["wq"] == counts["wk"] == 0
        else:
            assert counts["wq"] > 0 and counts["wk"] > 0
