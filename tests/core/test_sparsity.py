"""Unit tests for sparsity statistics."""

import numpy as np
import pytest

from repro.core.sparsity import OpCounter, RunStats, add_attention_step, add_ffn_step
from repro.models.attention import MultiHeadAttention
from repro.models.ffn import FeedForward


class TestOpCounter:
    def test_reduction(self):
        counter = OpCounter()
        counter.add(100, 25)
        assert counter.reduction == 0.75

    def test_zero_dense_is_zero_reduction(self):
        assert OpCounter().reduction == 0.0

    def test_rejects_computed_exceeding_dense(self):
        with pytest.raises(ValueError):
            OpCounter().add(10, 11)

    def test_accumulates(self):
        counter = OpCounter()
        counter.add(100, 50)
        counter.add(100, 0)
        assert counter.reduction == 0.75


class TestRunStats:
    def test_empty_stats_are_zero(self):
        stats = RunStats()
        assert stats.ffn_output_sparsity == 0.0
        assert stats.attention_output_sparsity == 0.0
        assert stats.ffn_ops_reduction == 0.0

    def test_mean_sparsities(self):
        stats = RunStats()
        stats.ffn_sparsities.extend([0.8, 1.0])
        stats.attention_sparsities.extend([0.2, 0.4])
        assert stats.ffn_output_sparsity == pytest.approx(0.9)
        assert stats.attention_output_sparsity == pytest.approx(0.3)

    def test_combined_ffn_reduction(self):
        stats = RunStats()
        stats.ffn_layer1.add(100, 10)
        stats.ffn_layer2.add(100, 30)
        assert stats.ffn_ops_reduction == pytest.approx(0.8)

    def test_summary_keys(self):
        summary = RunStats().summary()
        assert "ffn_output_sparsity" in summary
        assert "q_projection_skip_rate" in summary
        assert "dense_iterations" in summary


# dim 8, hidden 32, 2 heads of 4, 4 FFN tokens, 3 query rows; a cross context has 6 channels.
RNG = np.random.default_rng(0)
GELU, GEGLU = FeedForward(8, 32, RNG), FeedForward(8, 32, RNG, "geglu")
SELF, CROSS = MultiHeadAttention(8, 2, RNG), MultiHeadAttention(8, 2, RNG, context_dim=6)
MASKS = RNG.random((2, 4, 32)) < 0.5  # two requests' (tokens, hidden) bitmasks
KEEP_SELF, KEEP_CROSS = RNG.random((2, 2, 3, 3)) < 0.5, RNG.random((2, 2, 3, 5)) < 0.5
L1, L2, Q = 4 * 8 * 32, 4 * 32 * 8, 3 * 8 * 8  # dense MACs: GELU layers, Q projection


def _record(stats):
    """The nonzero counters' (dense, computed), then both per-step lists."""
    counters = (stats.ffn_layer1, stats.ffn_layer2, stats.attention_scores,
                stats.q_projection, stats.kv_projection)
    return [(c.dense, c.computed) for c in counters if c.dense] + [
        stats.ffn_sparsities, stats.attention_sparsities]


WRITES = {  # writer, layer, its arguments, the masks a record copies, two requests' records
    "gelu-dense": (add_ffn_step, GELU, (4, None, MASKS), MASKS, [[(L1, L1), (L2, L2), [], []]] * 2),
    "gelu-sparse": (add_ffn_step, GELU, (4, np.array([10, 0])), None, [
        [(L1, 10 * 8), (L2, 10 * 8), [1 - 10 / 128], []], [(L1, 0), (L2, 0), [1.0], []]]),
    "geglu-dense": (add_ffn_step, GEGLU, (4, None, MASKS), MASKS,
                    [[(2 * L1, 2 * L1), (L2, L2), [], []]] * 2),
    "geglu-sparse": (add_ffn_step, GEGLU, (4, np.array([10, 128])), None, [
        [(2 * L1, 10 * 8 * 2), (L2, 10 * 8), [1 - 10 / 128], []],
        [(2 * L1, 2 * L1), (L2, L2), [0.0], []]]),
    "self-attention": (add_attention_step, SELF,
                       (3, 3, np.array([5, 18]), [2, 3], [3, 1], KEEP_SELF), KEEP_SELF, [
        [(18 * 4, 5 * 4), (Q, 2 * 8 * 8), (2 * 3 * 8 * 8,) * 2, [], [13 / 18]],
        [(18 * 4,) * 2, (Q, Q), (2 * 3 * 8 * 8, 2 * 8 * 8), [], [0.0]]]),
    "cross-attention": (add_attention_step, CROSS,
                        (3, 5, [7, 0], [1, 0], np.array([2, 5]), KEEP_CROSS), KEEP_CROSS, [
        [(30 * 4, 7 * 4), (Q, 8 * 8), (2 * 5 * 6 * 8, 2 * 2 * 6 * 8), [], [23 / 30]],
        [(30 * 4, 0), (Q, 0), (2 * 5 * 6 * 8,) * 2, [], [1.0]]]),
    "one-key": (add_attention_step, CROSS, (3, 1, [0, 0], [0, 0], [1, 1], None),
                np.zeros((2, 2, 3, 1), bool),
                [[(6 * 4, 0), (Q, 0), (2 * 6 * 8,) * 2, [], [1.0]]] * 2),
}


@pytest.mark.parametrize("collect", (False, True))
@pytest.mark.parametrize("writer,layer,args,masks,want", WRITES.values(), ids=WRITES)
def test_writers_follow_the_formulas(writer, layer, args, masks, want, collect):
    """Python ints and floats only (``repr``); a collecting record copies its mask."""
    batch = [RunStats(collect_masks=collect) for _ in want]
    writer(batch, layer, *args)
    assert repr([_record(stats) for stats in batch]) == repr(want)
    for b, stats in enumerate(batch):
        kept = [m.mask for m in stats.ffn_bitmasks] + stats.attention_keepmasks
        assert len(kept) == (collect and masks is not None)
        for mask in kept:
            assert np.array_equal(mask, masks[b]) and not np.shares_memory(mask, masks)
