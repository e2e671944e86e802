"""The paper's toy hardware model walked end-to-end (Figs. 8, 9, 11).

The toy configuration: 8 input rows, 3-column-wide blocks. Fig. 9 merges
Block0 and Block1 (conflicts at rows R4, R5 relocated to sparse rows with
conflict-vector updates), then merges the result with Block2 (a conflict
whose preferred CV slot is occupied must find another candidate row).
"""

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.conmerge.condense import condense
from repro.core.conmerge.cvg import _blocks_from_entries
from repro.core.conmerge.merge import try_merge
from repro.core.conmerge.sortbuffer import ColumnEntry


def toy_blocks(mask_grid, origin_offset=0):
    grid = np.asarray(mask_grid, dtype=bool)
    entries = [
        ColumnEntry(origin_col=col + origin_offset, occupancy=grid[:, col])
        for col in range(grid.shape[1])
    ]
    return _blocks_from_entries(entries, grid.shape[0], width=3)


class TestToyModel:
    def test_condensing_removes_toy_dead_columns(self):
        """Fig. 8: all-sparse columns disappear before blocking."""
        grid = np.zeros((8, 9), dtype=bool)
        grid[0, 0] = grid[3, 2] = grid[5, 4] = True  # columns 1,3,5,... dead
        result = condense(Bitmask(grid))
        assert result.original_cols - len(result.kept_columns) == 6
        np.testing.assert_array_equal(result.kept_columns, [0, 2, 4])

    def test_first_merge_relocates_r4_r5(self):
        """Fig. 9 first merge: Block0 and Block1 conflict at rows 4 and 5;
        the conflicting Block1 elements move to sparse rows of the same
        columns and the CV records rows 4 and 5."""
        # Column-aligned conflicts at rows 4 and 5; rows 5/6 free in block0.
        block0_grid = np.zeros((8, 3), dtype=bool)
        block1_grid = np.zeros((8, 3), dtype=bool)
        block0_grid[[0, 2, 4], 0] = True
        block0_grid[[1, 5], 1] = True
        block1_grid[[4, 6], 0] = True  # conflict at (4, col 0)
        block1_grid[[5, 7], 1] = True  # conflict at (5, col 1)
        (b0,) = toy_blocks(block0_grid)
        (b1,) = toy_blocks(block1_grid)
        # Distinct origins for the incoming block.
        for cell_row in b1.cells:
            for i, cell in enumerate(cell_row):
                if cell is not None:
                    cell_row[i] = type(cell)(
                        lane=cell.lane, col_slot=cell.col_slot,
                        input_row=cell.input_row,
                        origin_col=cell.origin_col + 10,
                        buffer_index=0,
                    )
        attempt = try_merge(b0, b1)
        assert attempt.success
        merged = attempt.merged
        merged.validate()
        assert attempt.conflicts_resolved == 2
        relocated_rows = sorted(
            cell.input_row for cell in merged.entries()
            if cell.input_row != cell.lane
        )
        assert relocated_rows == [4, 5]
        cv_entries = [v for v in merged.conflict_vector if v is not None]
        assert sorted(cv_entries) == [4, 5]

    def test_second_merge_respects_occupied_cv_slot(self):
        """Fig. 9 second merge: a conflict wanting a lane whose CV already
        carries a different row must relocate to another candidate."""
        base_grid = np.zeros((8, 3), dtype=bool)
        base_grid[[0, 1, 4], 0] = True
        inc1_grid = np.zeros((8, 3), dtype=bool)
        inc1_grid[4, 0] = True  # conflict -> relocate, sets a CV
        inc2_grid = np.zeros((8, 3), dtype=bool)
        inc2_grid[[0, 1], 0] = True  # two more conflicts on column 0

        (base,) = toy_blocks(base_grid)
        (inc1,) = toy_blocks(inc1_grid)
        (inc2,) = toy_blocks(inc2_grid)
        first = try_merge(base, inc1)
        assert first.success
        second = try_merge(first.merged, inc2)
        assert second.success
        merged = second.merged
        merged.validate()
        assert merged.num_origins == 3
        # Every lane carries at most one foreign row (the CV constraint).
        for lane, cv in enumerate(merged.conflict_vector):
            foreign = {
                c.input_row for c in merged.cells[lane] if c is not None
                and c.input_row != lane
            }
            assert len(foreign) <= 1
            if foreign:
                assert cv == foreign.pop()

    def test_third_merge_rejected_by_triple_buffering(self):
        """Only three WMEM buffers exist: a fourth origin cannot merge."""
        grids = []
        for i in range(4):
            grid = np.zeros((8, 3), dtype=bool)
            grid[i, 0] = True
            grids.append(grid)
        blocks = [toy_blocks(g)[0] for g in grids]
        merged = try_merge(blocks[0], blocks[1]).merged
        merged = try_merge(merged, blocks[2]).merged
        assert merged.num_origins == 3
        final = try_merge(merged, blocks[3])
        assert not final.success

    def test_toy_example_element_coverage(self):
        """Whatever the merge path, every element of all three blocks is
        computed exactly once in the merged result."""
        rng = np.random.default_rng(9)
        grids = [rng.random((8, 3)) < 0.25 for _ in range(3)]
        blocks = []
        for i, grid in enumerate(grids):
            (block,) = toy_blocks(grid, origin_offset=10 * i)
            blocks.append(block)
        merged = try_merge(blocks[0], blocks[1])
        if merged.success:
            final = try_merge(merged.merged, blocks[2])
            target = final.merged if final.success else merged.merged
            covered = {(c.input_row, c.origin_col) for c in target.entries()}
            want = set()
            sources = [blocks[0], blocks[1]] + (
                [blocks[2]] if final.success else []
            )
            for block in sources:
                want |= {
                    (c.input_row, c.origin_col) for c in block.entries()
                }
            assert covered == want
