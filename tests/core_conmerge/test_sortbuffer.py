"""Unit tests for the CAU SortBuffer."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.conmerge.sortbuffer import (
    SortBuffer,
    SparsityClass,
    classify,
)


def _class_counts(buf: SortBuffer) -> dict:
    return {cls: len(entries) for cls, entries in buf._classes.items()}


class TestClassify:
    def test_levels(self):
        assert classify(16, 16) is SparsityClass.HIGH_DENSE
        assert classify(10, 16) is SparsityClass.DENSE
        assert classify(6, 16) is SparsityClass.SPARSE
        assert classify(2, 16) is SparsityClass.HIGH_SPARSE

    def test_boundaries(self):
        assert classify(12, 16) is SparsityClass.DENSE  # 0.75 is not > 0.75
        assert classify(13, 16) is SparsityClass.HIGH_DENSE

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify(17, 16)


class TestSortBuffer:
    def test_all_zero_columns_condensed(self):
        buf = SortBuffer(rows=4)
        assert not buf.insert(0, np.zeros(4, dtype=bool))
        assert buf.condensed_columns == 1
        assert len(buf) == 0

    def test_insert_classifies(self):
        buf = SortBuffer(rows=4)
        buf.insert(0, np.array([1, 1, 1, 1], dtype=bool))
        buf.insert(1, np.array([1, 0, 0, 0], dtype=bool))
        counts = _class_counts(buf)
        assert counts[SparsityClass.HIGH_DENSE] == 1
        assert counts[SparsityClass.HIGH_SPARSE] == 1

    def test_overflow_to_next_sparser_class(self):
        buf = SortBuffer(rows=4, class_capacity=1)
        dense_col = np.array([1, 1, 1, 1], dtype=bool)
        buf.insert(0, dense_col)
        buf.insert(1, dense_col)  # HIGH_DENSE full -> DENSE
        buf.insert(2, dense_col)  # DENSE full -> SPARSE
        counts = _class_counts(buf)
        assert counts[SparsityClass.HIGH_DENSE] == 1
        assert counts[SparsityClass.DENSE] == 1
        assert counts[SparsityClass.SPARSE] == 1

    def test_overflow_lands_in_extra(self):
        buf = SortBuffer(rows=4, class_capacity=1)
        col = np.array([1, 0, 0, 0], dtype=bool)  # HIGH_SPARSE
        buf.insert(0, col)
        buf.insert(1, col)
        assert _class_counts(buf)[SparsityClass.EXTRA] == 1

    def test_insert_mask_counts(self, rng):
        mask = Bitmask.random(4, 64, sparsity=0.9, rng=rng)
        buf = SortBuffer(rows=4)
        stored = buf.insert_mask(mask)
        assert stored == len(mask.nonzero_columns())
        assert buf.condensed_columns == mask.cols - stored

    def test_drain_sorted_dense_first(self, rng):
        buf = SortBuffer(rows=16)
        sparse_col = np.zeros(16, dtype=bool)
        sparse_col[0] = True
        dense_col = np.ones(16, dtype=bool)
        buf.insert(0, sparse_col)
        buf.insert(1, dense_col)
        entries = buf.drain_sorted()
        assert [e.origin_col for e in entries] == [1, 0]

    def test_drain_empties_buffer(self, rng):
        buf = SortBuffer(rows=4)
        buf.insert(0, np.array([1, 0, 0, 0], dtype=bool))
        buf.drain_sorted()
        assert len(buf) == 0

    def test_rejects_bad_occupancy_shape(self):
        buf = SortBuffer(rows=4)
        with pytest.raises(ValueError):
            buf.insert(0, np.zeros(5, dtype=bool))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SortBuffer(rows=0)
        with pytest.raises(ValueError):
            SortBuffer(rows=4, class_capacity=0)
