"""Unit tests for tile blocks."""

import numpy as np
import pytest

from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.vectors import CellAssignment


class TestTileBlock:
    def test_empty_block(self):
        block = TileBlock(rows=4, width=3)
        assert block.num_elements == 0
        assert block.utilization == 0.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TileBlock(rows=0, width=3)

    def test_occupancy_grid(self):
        block = TileBlock(rows=2, width=2)
        block.cells[0][0] = CellAssignment(0, 0, 0, 0, 0)
        grid = block.occupancy()
        np.testing.assert_array_equal(grid, [[True, False], [False, False]])

    def test_copy_is_deep(self):
        block = TileBlock(rows=2, width=2)
        block.cells[0][0] = CellAssignment(0, 0, 0, 0, 0)
        clone = block.copy()
        clone.cells[0][0] = None
        assert block.num_elements == 1

    def test_validate_accepts_fresh_block(self):
        block = TileBlock(rows=2, width=1)
        block.cells[0][0] = CellAssignment(0, 0, 0, 0, 0)
        block.cells[1][0] = CellAssignment(1, 0, 1, 0, 0)
        block.validate()

    def test_validate_rejects_cv_mismatch(self):
        block = TileBlock(rows=2, width=1)
        block.cells[0][0] = CellAssignment(
            lane=0, col_slot=0, input_row=1, origin_col=0, buffer_index=1
        )
        # Conflict vector not set for the foreign row.
        with pytest.raises(ValueError, match="conflict vector"):
            block.validate()

    def test_validate_rejects_two_foreign_rows_per_lane(self):
        block = TileBlock(rows=3, width=2)
        block.cells[0][0] = CellAssignment(0, 0, 1, 5, 1)
        block.cells[0][1] = CellAssignment(0, 1, 2, 6, 1)
        block.conflict_vector[0] = 1
        with pytest.raises(ValueError, match="conflict rows"):
            block.validate()

    def test_validate_rejects_too_many_origins(self):
        block = TileBlock(rows=2, width=1, num_origins=4)
        with pytest.raises(ValueError, match="3 origins"):
            block.validate()

