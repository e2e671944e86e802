"""Unit + property tests for block merging with conflict vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bitmask import Bitmask
from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.cvg import _blocks_from_entries
from repro.core.conmerge.merge import greedy_merge, try_merge
from repro.core.conmerge.sortbuffer import ColumnEntry


def blocks_from_grid(grid, width, origin_offset=0):
    """Fresh width-wide blocks, one slot per column of a boolean grid."""
    grid = np.asarray(grid, dtype=bool)
    entries = [
        ColumnEntry(origin_col=col + origin_offset, occupancy=grid[:, col])
        for col in range(grid.shape[1])
    ]
    return _blocks_from_entries(entries, grid.shape[0], width)


def block_from_grid(grid, origin_offset=0):
    """Fresh block whose occupancy follows a boolean grid."""
    (block,) = blocks_from_grid(grid, np.shape(grid)[1], origin_offset)
    return block


def positions(block):
    return {(c.input_row, c.origin_col) for c in block.entries()}


class TestTryMergeBasics:
    def test_disjoint_blocks_merge_without_conflicts(self):
        a = block_from_grid([[1, 0], [0, 0]])
        b = block_from_grid([[0, 0], [1, 0]], origin_offset=10)
        attempt = try_merge(a, b)
        assert attempt.success
        assert attempt.conflicts_resolved == 0
        assert attempt.merged.num_origins == 2
        assert positions(attempt.merged) == positions(a) | positions(b)

    def test_conflict_relocated_with_cv(self):
        """Paper Fig. 9: conflicting element moves to a sparse row within
        the same column and the CV records the original input row."""
        a = block_from_grid([[1], [0]])
        b = block_from_grid([[1], [0]], origin_offset=10)
        attempt = try_merge(a, b)
        assert attempt.success
        assert attempt.conflicts_resolved == 1
        merged = attempt.merged
        merged.validate()
        # The relocated element sits on lane 1 but reads input row 0.
        relocated = [c for c in merged.entries() if c.input_row != c.lane]
        assert len(relocated) == 1
        assert relocated[0].input_row == 0
        assert merged.conflict_vector[relocated[0].lane] == 0

    def test_merge_fails_when_no_free_slot(self):
        a = block_from_grid([[1], [1]])
        b = block_from_grid([[1], [0]], origin_offset=10)
        attempt = try_merge(a, b)
        assert not attempt.success
        assert attempt.merged is None
        assert attempt.cycles >= 1

    def test_merge_fails_beyond_three_origins(self):
        a = block_from_grid([[1, 0], [0, 0]])
        a.num_origins = 2
        b = block_from_grid([[0, 1], [0, 0]], origin_offset=10)
        b.num_origins = 2
        attempt = try_merge(a, b)
        assert not attempt.success

    def test_base_not_mutated_on_failure(self):
        a = block_from_grid([[1], [1]])
        before = positions(a)
        b = block_from_grid([[1], [0]], origin_offset=10)
        try_merge(a, b)
        assert positions(a) == before
        assert a.conflict_vector == [None, None]

    def test_rejects_mismatched_dims(self):
        a = TileBlock(rows=2, width=2)
        b = TileBlock(rows=3, width=2)
        with pytest.raises(ValueError):
            try_merge(a, b)

    def test_buffer_indices_shift_for_incoming(self):
        a = block_from_grid([[1, 0]])
        b = block_from_grid([[0, 1]], origin_offset=10)
        merged = try_merge(a, b).merged
        buffers = {c.origin_col: c.buffer_index for c in merged.entries()}
        assert buffers[0] == 0  # base keeps buffer 0
        assert buffers[11] == 1  # incoming uses the next WMEM


class TestCVConstraint:
    def test_lane_reuses_cv_for_same_row(self):
        """Two conflicts needing the same input row can share one lane's CV
        only if they're in different columns."""
        a = block_from_grid([[1, 1], [0, 0], [0, 0]])
        b = block_from_grid([[1, 1], [0, 0], [0, 0]], origin_offset=10)
        attempt = try_merge(a, b)
        assert attempt.success
        merged = attempt.merged
        merged.validate()
        # Both relocated cells need row 0; they may share a lane (one per
        # column) or occupy different lanes with CV = 0.
        for cell in merged.entries():
            if cell.input_row != cell.lane:
                assert cell.input_row == 0

    def test_cv_occupied_forces_other_lane(self):
        """Paper Fig. 9 second merge: a CV slot already holding a different
        row cannot serve a new conflict; the CVG finds another candidate."""
        a = block_from_grid([[1], [1], [0], [0]])
        b = block_from_grid([[1], [1], [0], [0]], origin_offset=10)
        attempt = try_merge(a, b)
        assert attempt.success
        merged = attempt.merged
        merged.validate()
        relocated = sorted(
            (c.input_row, c.lane) for c in merged.entries()
            if c.input_row != c.lane
        )
        # Rows 0 and 1 relocated to distinct lanes with distinct CVs.
        assert [r for r, _ in relocated] == [0, 1]
        lanes = [l for _, l in relocated]
        assert len(set(lanes)) == 2


class TestGreedyMerge:
    def test_reduces_block_count(self, rng):
        mask = Bitmask.random(8, 32, sparsity=0.9, rng=rng)
        blocks = blocks_from_grid(mask.mask, width=8)
        merged, cycles, attempts, successes = greedy_merge(blocks)
        assert len(merged) < len(blocks)
        assert cycles >= attempts  # every attempt costs at least one cycle
        assert successes == len(blocks) - len(merged)

    def test_preserves_all_elements(self, rng):
        mask = Bitmask.random(8, 32, sparsity=0.85, rng=rng)
        blocks = blocks_from_grid(mask.mask, width=8)
        merged, *_ = greedy_merge(blocks)
        got = set().union(*(positions(b) for b in merged))
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        assert got == expected

    def test_dense_blocks_cannot_merge(self):
        blocks = [
            block_from_grid(np.ones((4, 4)), origin_offset=i * 4)
            for i in range(3)
        ]
        merged, *_ = greedy_merge(blocks)
        assert len(merged) == 3


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
grids = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 6)),
)


@given(grids, grids, st.integers(0, 1_000_000))
@settings(max_examples=80, deadline=None)
def test_merge_preserves_elements_and_hw_invariants(grid_a, grid_b, seed):
    """For any two equal-shaped blocks: a successful merge covers exactly
    the union of elements, satisfies the one-conflict-row-per-lane
    constraint, and never exceeds three origins."""
    if grid_a.shape != grid_b.shape:
        rows = min(grid_a.shape[0], grid_b.shape[0])
        cols = min(grid_a.shape[1], grid_b.shape[1])
        grid_a = grid_a[:rows, :cols]
        grid_b = grid_b[:rows, :cols]
    a = block_from_grid(grid_a)
    b = block_from_grid(grid_b, origin_offset=1000)
    attempt = try_merge(a, b)
    if attempt.success:
        merged = attempt.merged
        merged.validate()
        assert positions(merged) == positions(a) | positions(b)
        assert merged.num_origins == 2
        # No duplicated physical cells.
        assert merged.num_elements == a.num_elements + b.num_elements
