"""Cross-module property-based invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExionConfig
from repro.core.eager_prediction import EagerPredictor
from repro.core.ffn_reuse import FFNReuse, schedule_phases
from repro.core.pipeline import _fake_quantize as fake_quantize
from repro.core.sparsity import RunStats
from repro.models.ffn import FeedForward


class TestScheduleProperties:
    @given(st.integers(0, 200), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_schedule_density(self, total, n):
        """Dense iterations appear exactly every N+1 steps from step 0."""
        phases = schedule_phases(total, n)
        assert len(phases) == total
        dense = [i for i, p in enumerate(phases) if p]
        assert dense == list(range(0, total, n + 1))

    @given(st.integers(1, 200), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_first_iteration_always_dense(self, total, n):
        assert schedule_phases(total, n)[0] is True


class TestFFNReuseProperties:
    @given(st.floats(0.0, 0.98), st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_sparse_iteration_error_bounded_by_drift(self, target, seed):
        """The sparse-iteration output error is bounded: for zero input
        drift, the reused output equals the exact output on the recomputed
        positions and equals the dense output elsewhere."""
        rng = np.random.default_rng(seed)
        ffn = FeedForward(4, 8, rng)
        mgr = FFNReuse(
            ExionConfig(sparse_iters_n=1, ffn_target_sparsity=target),
            num_blocks=1,
        )
        x = rng.standard_normal((3, 4))
        mgr.begin_iteration(0)
        dense_out, _ = mgr.executor_for_block(0)(ffn, x)
        mgr.begin_iteration(1)
        sparse_out, _ = mgr.executor_for_block(0)(ffn, x)
        # Same input: reuse is exact regardless of threshold.
        np.testing.assert_allclose(sparse_out, dense_out, atol=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_sparsity_statistic_in_range(self, seed):
        rng = np.random.default_rng(seed)
        ffn = FeedForward(4, 8, rng)
        stats = RunStats()
        mgr = FFNReuse(
            ExionConfig(sparse_iters_n=2, ffn_target_sparsity=0.7),
            num_blocks=1, stats=stats,
        )
        for i in range(3):
            mgr.begin_iteration(i)
            mgr.executor_for_block(0)(ffn, rng.standard_normal((3, 4)))
        for s in stats.ffn_sparsities:
            assert 0.0 <= s <= 1.0
        assert 0.0 <= stats.ffn_ops_reduction <= 1.0


class TestEPProperties:
    @given(
        st.integers(2, 12),
        st.floats(0.05, 1.0),
        st.integers(0, 100_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_keep_counts_and_sparsity_consistent(self, tk, k_ratio, seed):
        rng = np.random.default_rng(seed)
        predictor = EagerPredictor(
            ExionConfig(top_k_ratio=k_ratio, q_threshold=1e12)
        )
        scores = rng.standard_normal((1, 4, tk))
        (decision,) = predictor.decide(scores)
        keep_count = max(1, int(np.ceil(k_ratio * tk)))
        assert np.all(decision.keep.sum(axis=1) == min(keep_count, tk))
        sparsity = decision.skipped_elements / decision.keep.size
        assert abs(sparsity - (1 - min(keep_count, tk) / tk)) < 1e-9

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_dominance_monotone_in_threshold(self, seed):
        """Lowering q_th can only collapse more rows."""
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((1, 6, 6)) * 2
        loose = EagerPredictor(ExionConfig(q_threshold=0.1, top_k_ratio=0.5))
        tight = EagerPredictor(ExionConfig(q_threshold=2.0, top_k_ratio=0.5))
        (d_loose,) = loose.decide(scores)
        (d_tight,) = tight.decide(scores)
        assert d_loose.one_hot_rows.sum() >= d_tight.one_hot_rows.sum()


class TestQuantProperties:
    @given(st.integers(2, 16), st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_fake_quant_bounded_error(self, bits, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) * rng.uniform(0.1, 100)
        q = fake_quantize(x, bits)
        max_abs = np.max(np.abs(x))
        lsb = max_abs / ((1 << (bits - 1)) - 1)
        assert np.max(np.abs(q - x)) <= lsb / 2 + 1e-12

    @given(st.integers(2, 16))
    @settings(max_examples=20, deadline=None)
    def test_fake_quant_preserves_sign(self, bits):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        q = fake_quantize(x, bits)
        assert np.all(np.sign(q) * np.sign(x) >= 0)
