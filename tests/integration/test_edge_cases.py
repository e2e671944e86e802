"""Edge cases and failure-injection tests across the library."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.conmerge.cvg import conmerge, conmerge_tiled
from repro.core.eager_prediction import EagerPredictor
from repro.core.ffn_reuse import FFNReuse
from repro.core.pipeline import ExionPipeline
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable
from repro.models.attention import MultiHeadAttention
from repro.models.ffn import FeedForward
from repro.models.zoo import build_model


def _positions(result) -> set:
    """(input_row, origin_col) of every cell the merged blocks compute."""
    return {
        (cell.input_row, cell.origin_col)
        for block in result.blocks for cell in block.entries()
    }


class TestDegenerateMasks:
    def test_single_row_mask(self, rng):
        mask = Bitmask.random(1, 64, sparsity=0.9, rng=rng)
        result = conmerge(mask)
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        assert _positions(result) == expected

    def test_single_column_mask(self, rng):
        mask = Bitmask(rng.random((16, 1)) < 0.3)
        result = conmerge(mask)
        assert _positions(result) == {
            (int(r), 0) for r in np.flatnonzero(mask.mask[:, 0])
        }

    def test_width_one_blocks(self, rng):
        mask = Bitmask.random(8, 16, sparsity=0.9, rng=rng)
        result = conmerge(mask, width=1)
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        assert _positions(result) == expected

    def test_tile_rows_larger_than_mask(self, rng):
        mask = Bitmask.random(5, 32, sparsity=0.8, rng=rng)
        result = conmerge_tiled(mask, tile_rows=16)
        assert len(result.tile_results) == 1

    def test_full_dense_single_element_mask(self):
        mask = Bitmask(np.ones((1, 1), dtype=bool))
        result = conmerge(mask)
        assert _positions(result) == {(0, 0)}


class TestDegenerateEP:
    def test_single_token_attention(self, rng):
        """One query and one key: the dominance rule collapses trivially."""
        attn = MultiHeadAttention(8, 2, rng)
        config = ExionConfig(top_k_ratio=0.5, q_threshold=0.5)
        predictor = EagerPredictor(config, stats=RunStats())
        x = rng.standard_normal((1, 8))
        out = attn(x, executor=predictor.executor())
        assert out.shape == (1, 8)
        assert np.all(np.isfinite(out))

    def test_constant_scores_no_dominance(self, rng):
        """All-equal predicted scores must never trigger dominance skips."""
        config = ExionConfig(top_k_ratio=0.5, q_threshold=0.1)
        predictor = EagerPredictor(config)
        (decision,) = predictor.decide(np.zeros((1, 4, 4)))
        assert not decision.one_hot_rows.any()

    def test_extreme_activations_finite(self, rng):
        attn = MultiHeadAttention(8, 2, rng)
        predictor = EagerPredictor(ExionConfig(), stats=RunStats())
        x = rng.standard_normal((4, 8)) * 1e6
        out = attn(x, executor=predictor.executor())
        assert np.all(np.isfinite(out))


def _fixed_threshold(value):
    """Force ``value`` at every dense iteration of block 0."""
    table = ThresholdTable(target_sparsity=0.9)
    table.set(0, 0, value)
    return table


class TestDegenerateFFNReuse:
    def test_zero_threshold_recomputes_everything(self, rng):
        ffn = FeedForward(8, 16, rng)
        mgr = FFNReuse(ExionConfig(sparse_iters_n=1), num_blocks=1,
                       threshold_table=_fixed_threshold(0.0))
        x = rng.standard_normal((4, 8))
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, x)
        mgr.begin_iteration(1)
        out = mgr.executor_for_block(0)(ffn, x)
        exact = ffn.forward_exact(x)
        # Threshold 0: only exact zeros reuse; output matches exact.
        np.testing.assert_allclose(out, exact, atol=1e-10)

    def test_huge_threshold_reuses_everything(self, rng):
        ffn = FeedForward(8, 16, rng)
        mgr = FFNReuse(ExionConfig(sparse_iters_n=1), num_blocks=1,
                       threshold_table=_fixed_threshold(1e9))
        x0 = rng.standard_normal((4, 8))
        mgr.begin_iteration(0)
        dense_out = mgr.executor_for_block(0)(ffn, x0)
        mgr.begin_iteration(1)
        out = mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        np.testing.assert_allclose(out, dense_out, atol=1e-10)
        assert mgr.stats.ffn_sparsities == [1.0]

    def test_n_zero_never_reuses(self, rng):
        ffn = FeedForward(8, 16, rng)
        config = ExionConfig(sparse_iters_n=0, ffn_target_sparsity=0.9)
        mgr = FFNReuse(config, num_blocks=1)
        states = []
        for i in range(3):
            mgr.begin_iteration(i)
            assert mgr.is_dense_iteration
            mgr.executor_for_block(0)(
                ffn, np.random.default_rng(i).standard_normal((4, 8))
            )
            states.append(mgr.state_for_block(0))
        # Every call compiled a fresh dense state; no sparse pass ran.
        assert len({id(state) for state in states}) == 3
        assert mgr.stats.ffn_sparsities == []


class TestBatchAPI:
    def test_generate_batch_shapes(self):
        model = build_model("mld", seed=0, total_iterations=5)
        pipeline = ExionPipeline(model, ExionConfig.for_model("mld"))
        samples, results = pipeline.generate_batch(
            [1, 2, 3], prompt="batch test"
        )
        assert samples.shape == (3, 4, 64)
        assert len(results) == 3

    def test_compiled_vanilla_matches_oracle(self):
        model = build_model("mld", seed=0, total_iterations=5)
        pipeline = ExionPipeline(model, ExionConfig.for_model("mld"))
        compiled = pipeline.generate_vanilla(seed=7, prompt="x")
        single = ExionPipeline(
            model, pipeline.config, compiled=False
        ).generate_vanilla(seed=7, prompt="x")
        np.testing.assert_array_equal(compiled.sample, single.sample)

    def test_generate_batch_rejects_empty(self):
        model = build_model("mld", seed=0, total_iterations=5)
        pipeline = ExionPipeline(model, ExionConfig.for_model("mld"))
        with pytest.raises(ValueError):
            pipeline.generate_batch([])
