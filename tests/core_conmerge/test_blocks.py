"""Unit tests for tile blocks."""

import numpy as np
import pytest

from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.vectors import CellAssignment


def put(block, lane, slot, input_row, origin_col, buffer_index):
    """Occupy one DPU cell: set its lane bit and write its record."""
    block.columns[slot] |= 1 << lane
    block.records[lane * block.width + slot] = (input_row, origin_col, buffer_index)


class TestTileBlock:
    def test_empty_block(self):
        block = TileBlock(rows=4, width=3)
        assert block.num_elements == 0
        assert block.entries() == []

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TileBlock(rows=0, width=3)

    def test_occupancy_grid(self):
        block = TileBlock(rows=2, width=2)
        put(block, 0, 0, 0, 0, 0)
        grid = block.occupancy()
        np.testing.assert_array_equal(grid, [[True, False], [False, False]])

    def test_copy_is_deep(self):
        block = TileBlock(rows=2, width=2)
        put(block, 0, 0, 0, 0, 0)
        clone = block.copy()
        clone.columns[0] = 0
        clone.records[0] = None
        assert block.num_elements == 1
        assert block.entries() == [CellAssignment(0, 0, 0, 0, 0)]

    def test_validate_accepts_fresh_block(self):
        block = TileBlock(rows=2, width=1)
        put(block, 0, 0, 0, 0, 0)
        put(block, 1, 0, 1, 0, 0)
        block.validate()

    def test_validate_rejects_cv_mismatch(self):
        block = TileBlock(rows=2, width=1)
        put(block, lane=0, slot=0, input_row=1, origin_col=0, buffer_index=1)
        # Conflict vector not set for the foreign row.
        with pytest.raises(ValueError, match="conflict vector"):
            block.validate()

    def test_validate_rejects_two_foreign_rows_per_lane(self):
        block = TileBlock(rows=3, width=2)
        put(block, 0, 0, 1, 5, 1)
        put(block, 0, 1, 2, 6, 1)
        block.conflict_vector[0] = 1
        with pytest.raises(ValueError, match="conflict rows"):
            block.validate()

    def test_validate_rejects_bitmask_without_record(self):
        block = TileBlock(rows=2, width=1)
        block.columns[0] = 0b10
        with pytest.raises(ValueError, match="bitmask disagrees"):
            block.validate()

    def test_entries_are_lane_major(self):
        block = TileBlock(rows=2, width=2)
        put(block, 1, 0, 1, 7, 0)
        put(block, 0, 1, 0, 8, 0)
        assert [(c.lane, c.col_slot) for c in block.entries()] == [(0, 1), (1, 0)]
        assert block.num_elements == 2

    def test_validate_rejects_too_many_origins(self):
        block = TileBlock(rows=2, width=1, num_origins=4)
        with pytest.raises(ValueError, match="3 origins"):
            block.validate()

