"""Unit tests for condensing."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.conmerge.condense import condense


class TestCondense:
    def test_removes_all_zero_columns(self):
        mask = Bitmask(np.array([[1, 0, 1], [0, 0, 1]], dtype=bool))
        result = condense(mask)
        np.testing.assert_array_equal(result.kept_columns, [0, 2])
        assert result.remaining_ratio == pytest.approx(2 / 3)

    def test_dense_mask_unchanged(self):
        result = condense(Bitmask.dense(4, 5))
        assert result.remaining_ratio == 1.0
        np.testing.assert_array_equal(result.kept_columns, np.arange(5))

    def test_fully_sparse_mask(self):
        mask = Bitmask(np.zeros((4, 5), dtype=bool))
        result = condense(mask)
        assert result.remaining_ratio == 0.0
        assert result.kept_columns.size == 0

    def test_condensed_mask_contents(self):
        mask = Bitmask(np.array([[1, 0, 0], [0, 0, 1]], dtype=bool))
        result = condense(mask)
        np.testing.assert_array_equal(
            mask.mask[:, result.kept_columns], [[True, False], [False, True]]
        )

    def test_small_rows_condense_well(self, rng):
        """With few rows (MLD: 4 tokens), high sparsity leaves few columns —
        the paper's Fig. 8 MLD case (13.8% remaining)."""
        mask = Bitmask.random(4, 1024, sparsity=0.95, rng=rng)
        result = condense(mask)
        expected = 1.0 - 0.95**4
        assert result.remaining_ratio == pytest.approx(expected, abs=0.05)

    def test_large_rows_condense_poorly(self, rng):
        """With many rows (Stable Diffusion), random sparsity leaves almost
        every column alive — why merging is needed (Fig. 8)."""
        mask = Bitmask.random(1024, 256, sparsity=0.97, rng=rng)
        result = condense(mask)
        assert result.remaining_ratio > 0.9
