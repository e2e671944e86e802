"""Unit tests for synthetic workload generation."""

import numpy as np
import pytest

from repro.workloads.generator import (
    attention_keepmask,
    ffn_output_bitmask,
)


class TestFFNBitmask:
    def test_target_sparsity_hit(self, rng):
        mask = ffn_output_bitmask(64, 256, sparsity=0.9, rng=rng)
        assert mask.sparsity == pytest.approx(0.9, abs=0.02)

    def test_dead_columns_present(self, rng):
        mask = ffn_output_bitmask(
            64, 256, sparsity=0.9, dead_col_fraction=0.3, rng=rng
        )
        dead_ratio = 1 - len(mask.nonzero_columns()) / mask.cols
        assert dead_ratio == pytest.approx(0.3, abs=0.12)

    def test_no_dead_columns_when_zero(self, rng):
        mask = ffn_output_bitmask(
            256, 64, sparsity=0.5, dead_col_fraction=0.0, rng=rng
        )
        assert mask.cols - len(mask.nonzero_columns()) < 5

    def test_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            ffn_output_bitmask(4, 4, sparsity=1.5, rng=rng)
        with pytest.raises(ValueError):
            ffn_output_bitmask(4, 4, sparsity=0.5, dead_col_fraction=1.0, rng=rng)

    def test_deterministic(self):
        a = ffn_output_bitmask(16, 32, 0.8, rng=np.random.default_rng(1))
        b = ffn_output_bitmask(16, 32, 0.8, rng=np.random.default_rng(1))
        assert a == b


class TestAttentionKeepmask:
    def test_rows_keep_topk(self, rng):
        mask = attention_keepmask(16, 32, top_k_ratio=0.25, rng=rng)
        counts = mask.mask.sum(axis=1)
        assert np.all(counts == 8)

    def test_one_hot_rows_empty(self, rng):
        mask = attention_keepmask(
            64, 32, top_k_ratio=0.25, one_hot_rate=0.5, rng=rng
        )
        empty_rows = int((mask.mask.sum(axis=1) == 0).sum())
        assert empty_rows == pytest.approx(32, abs=12)

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_popularity_creates_dead_key_columns(self, seed):
        """64 rows keeping 7 of 64 keys each would touch ~64 columns if
        they chose independently; the shared key popularity makes them
        agree, leaving at least a third of the key columns dead."""
        mask = attention_keepmask(
            64, 64, 0.1, rng=np.random.default_rng(seed)
        )
        assert len(mask.nonzero_columns()) <= 64 * 2 // 3

    def test_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            attention_keepmask(4, 4, top_k_ratio=0.0, rng=rng)
        with pytest.raises(ValueError):
            attention_keepmask(4, 4, 0.5, one_hot_rate=2.0, rng=rng)
