"""Unit tests for the FFN-Reuse algorithm."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.ffn_reuse import FFNReuse, schedule_phases
from repro.core.sparsity import RunStats
from repro.core.thresholds import ThresholdTable
from repro.models.ffn import FeedForward


@pytest.fixture
def ffn(rng):
    return FeedForward(8, 32, rng)


def make_manager(n=3, target=0.8, num_blocks=1, threshold_table=None):
    config = ExionConfig(sparse_iters_n=n, ffn_target_sparsity=target)
    return FFNReuse(config, num_blocks=num_blocks, stats=RunStats(),
                    threshold_table=threshold_table)


def fixed_threshold(value, num_blocks=1):
    """A table forcing ``value`` at every dense iteration of every block
    (:meth:`ThresholdTable.get` falls back to dense index 0)."""
    table = ThresholdTable(target_sparsity=0.8)
    for block in range(num_blocks):
        table.set(0, block, value)
    return table


class TestSchedule:
    def test_one_dense_then_n_sparse(self):
        phases = schedule_phases(7, 2)
        assert phases == [True, False, False, True, False, False, True]

    def test_zero_sparse_is_all_dense(self):
        assert schedule_phases(3, 0) == [True, True, True]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            schedule_phases(-1, 2)
        with pytest.raises(ValueError):
            schedule_phases(3, -1)


class TestPhaseControl:
    def test_dense_iteration_detection(self):
        mgr = make_manager(n=3)
        expected = [True, False, False, False, True, False]
        for i, want in enumerate(expected):
            mgr.begin_iteration(i)
            assert mgr.is_dense_iteration is want

    def test_stats_count_phases(self):
        mgr = make_manager(n=1)
        for i in range(4):
            mgr.begin_iteration(i)
        assert mgr.stats.dense_iterations == 2
        assert mgr.stats.sparse_iterations == 2

    def test_rejects_negative_iteration(self):
        with pytest.raises(ValueError):
            make_manager().begin_iteration(-1)

    def test_executor_requires_begin(self, ffn, rng):
        mgr = make_manager()
        with pytest.raises(RuntimeError, match="begin_iteration"):
            mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))

    def test_block_index_bounds(self):
        mgr = make_manager(num_blocks=2)
        with pytest.raises(IndexError):
            mgr.executor_for_block(2)


class TestDenseIteration:
    def test_dense_matches_exact(self, ffn, rng):
        mgr = make_manager()
        mgr.begin_iteration(0)
        x = rng.standard_normal((4, 8))
        out, trace = mgr.executor_for_block(0)(ffn, x)
        exact, _ = ffn.forward_exact(x)
        np.testing.assert_allclose(out, exact)

    def test_dense_stores_state(self, ffn, rng):
        mgr = make_manager()
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        state = mgr.state_for_block(0)
        assert state is not None
        assert state.bitmask.sparsity == pytest.approx(0.8, abs=0.05)

    def test_fixed_threshold_respected(self, ffn, rng):
        mgr = make_manager(threshold_table=fixed_threshold(0.25))
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        state = mgr.state_for_block(0)
        assert state.threshold == 0.25
        np.testing.assert_array_equal(
            state.bitmask.mask, np.abs(state.hidden_dense) > 0.25
        )


class TestSparseIteration:
    def test_sparse_output_semantics(self, ffn, rng):
        """Sparse output equals: partial sums of reused elements plus the
        recomputed elements' contribution (paper Fig. 6)."""
        mgr = make_manager()
        mgr.begin_iteration(0)
        x0 = rng.standard_normal((4, 8))
        mgr.executor_for_block(0)(ffn, x0)
        state = mgr.state_for_block(0)

        x1 = x0 + 0.01 * rng.standard_normal((4, 8))
        mgr.begin_iteration(1)
        out, trace = mgr.executor_for_block(0)(ffn, x1)

        mask = state.bitmask.mask
        hidden_new = ffn.nonlinear(ffn.linear1(x1))
        mixed = np.where(mask, hidden_new, state.hidden_dense)
        expected = ffn.linear2(mixed)
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert trace.reused_from_dense

    def test_sparse_close_to_exact_for_smooth_inputs(self, ffn, rng):
        mgr = make_manager(target=0.9)
        mgr.begin_iteration(0)
        x0 = rng.standard_normal((4, 8))
        mgr.executor_for_block(0)(ffn, x0)
        x1 = x0 + 0.001 * rng.standard_normal((4, 8))
        mgr.begin_iteration(1)
        out, _ = mgr.executor_for_block(0)(ffn, x1)
        exact, _ = ffn.forward_exact(x1)
        rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_sparsity_recorded(self, ffn, rng):
        mgr = make_manager(target=0.75)
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        mgr.begin_iteration(1)
        mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        assert mgr.stats.ffn_sparsities[-1] == pytest.approx(0.75, abs=0.05)

    def test_ops_reduction_tracks_sparsity(self, ffn, rng):
        mgr = make_manager(n=4, target=0.9)
        x = rng.standard_normal((4, 8))
        for i in range(5):
            mgr.begin_iteration(i)
            mgr.executor_for_block(0)(ffn, x)
        # 1 dense + 4 sparse at 90% sparsity: layer-1 reduction ~ 0.9*4/5.
        assert mgr.stats.ffn_layer1.reduction == pytest.approx(0.72, abs=0.05)

    def test_first_iteration_always_dense_even_mid_schedule(self, ffn, rng):
        """If the first call happens at a sparse-phase index, the executor
        falls back to dense because no state exists yet."""
        mgr = make_manager()
        mgr.begin_iteration(1)  # schedule says sparse
        out, trace = mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        assert not trace.reused_from_dense


class TestGegluSupport:
    def test_sparse_semantics_with_geglu(self, rng):
        ffn = FeedForward(8, 16, rng, activation="geglu")
        mgr = make_manager()
        mgr.begin_iteration(0)
        x0 = rng.standard_normal((4, 8))
        mgr.executor_for_block(0)(ffn, x0)
        state = mgr.state_for_block(0)
        mgr.begin_iteration(1)
        x1 = x0 + 0.01 * rng.standard_normal((4, 8))
        out, _ = mgr.executor_for_block(0)(ffn, x1)
        hidden_new = ffn.nonlinear(ffn.linear1(x1))
        mixed = np.where(state.bitmask.mask, hidden_new, state.hidden_dense)
        np.testing.assert_allclose(out, ffn.linear2(mixed), atol=1e-10)

    def test_geglu_ops_count_doubled_first_layer(self, rng):
        """Each recomputed GEGLU hidden element costs two dot products."""
        ffn = FeedForward(8, 16, rng, activation="geglu")
        mgr = make_manager(target=0.5)
        x = np.random.default_rng(0).standard_normal((4, 8))
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, x)
        nnz = mgr.state_for_block(0).bitmask.nnz
        mgr.begin_iteration(1)
        mgr.executor_for_block(0)(ffn, x)
        # Sparse-iteration layer-1 computed MACs = nnz * dim * 2.
        computed = mgr.stats.ffn_layer1.computed - ffn.linear1.macs(4)
        assert computed == nnz * 8 * 2


class TestBitmaskCollection:
    def test_bitmasks_collected_when_enabled(self, ffn, rng):
        config = ExionConfig(sparse_iters_n=2, ffn_target_sparsity=0.8)
        mgr = FFNReuse(config, num_blocks=1, collect_bitmasks=True)
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, rng.standard_normal((4, 8)))
        assert len(mgr.stats.ffn_bitmasks) == 1
