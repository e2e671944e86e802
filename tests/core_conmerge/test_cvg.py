"""Unit + property tests for the end-to-end ConMerge pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import conmerge, conmerge_tiled


def _positions(result) -> set:
    """(input_row, origin_col) of every cell the merged blocks compute."""
    return {
        (cell.input_row, cell.origin_col)
        for block in result.blocks for cell in block.entries()
    }


class TestConMerge:
    def test_empty_mask(self):
        result = conmerge(Bitmask(np.zeros((8, 16), dtype=bool)))
        assert result.condensed_cols == 0
        assert result.remaining_column_ratio == 0.0
        assert not result.blocks

    def test_dense_mask_not_compactable(self):
        result = conmerge(Bitmask.dense(8, 32), width=8)
        assert result.condense_ratio == 1.0
        # Dense columns cannot merge: remaining ratio stays 1.
        assert result.remaining_column_ratio == pytest.approx(1.0)

    def test_sparse_mask_compacts(self, rng):
        mask = Bitmask.random(16, 128, sparsity=0.95, rng=rng)
        result = conmerge(mask)
        assert result.remaining_column_ratio < result.condense_ratio
        assert result.utilization > 0.0

    def test_merging_bounded_by_triple_buffering(self, rng):
        """Remaining ratio can never drop below condensed/3 (two merges)."""
        mask = Bitmask.random(16, 128, sparsity=0.99, rng=rng)
        result = conmerge(mask)
        assert result.physical_columns * 3 + 48 >= result.condensed_cols

    def test_element_positions_preserved(self, rng):
        mask = Bitmask.random(16, 96, sparsity=0.9, rng=rng)
        result = conmerge(mask)
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        assert _positions(result) == expected

    def test_blocks_satisfy_hw_invariants(self, rng):
        mask = Bitmask.random(16, 96, sparsity=0.9, rng=rng)
        for block in conmerge(mask).blocks:
            block.validate()

    def test_unsorted_mode_also_correct(self, rng):
        mask = Bitmask.random(16, 96, sparsity=0.9, rng=rng)
        result = conmerge(mask, sort=False)
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        assert _positions(result) == expected

    def test_sorting_reduces_cycles(self):
        """The Fig. 12 claim: sparsity-sorted merging needs fewer CVG
        cycles than arrival-order merging, on column-structured masks like
        the FFN layers produce."""
        from repro.workloads.generator import ffn_output_bitmask

        totals = {"sorted": 0, "random": 0}
        for seed in range(5):
            mask = ffn_output_bitmask(
                16, 256, sparsity=0.9, dead_col_fraction=0.2,
                rng=np.random.default_rng(seed),
            )
            totals["sorted"] += conmerge(mask, sort=True).cycles
            totals["random"] += conmerge(mask, sort=False).cycles
        assert totals["sorted"] < totals["random"]


class TestTiled:
    def test_tile_count(self, rng):
        mask = Bitmask.random(64, 32, sparsity=0.9, rng=rng)
        result = conmerge_tiled(mask, tile_rows=16)
        assert len(result.tile_results) == 4

    def test_aggregates_sum(self, rng):
        mask = Bitmask.random(48, 32, sparsity=0.9, rng=rng)
        result = conmerge_tiled(mask, tile_rows=16)
        assert result.original_columns == 3 * 32
        assert result.cycles == sum(r.cycles for r in result.tile_results)

    def test_tiling_improves_condensing(self, rng):
        """Per-tile condensing removes columns that are only locally dead —
        the effect that lets merging reach single-digit remaining ratios on
        large-row models (Fig. 9)."""
        mask = Bitmask.random(256, 64, sparsity=0.97, rng=rng)
        whole = conmerge(Bitmask(mask.mask[:16]), width=16)
        tiled = conmerge_tiled(mask, tile_rows=16)
        from repro.core.conmerge.condense import condense

        assert tiled.condense_ratio < condense(mask).remaining_ratio + 1e-9

    def test_ragged_final_tile(self, rng):
        mask = Bitmask.random(20, 32, sparsity=0.9, rng=rng)
        result = conmerge_tiled(mask, tile_rows=16)
        assert len(result.tile_results) == 2
        assert result.tile_results[1].rows == 4


@given(
    st.integers(0, 10_000),
    st.floats(0.5, 0.99),
    st.integers(4, 16),
    st.integers(8, 64),
)
@settings(max_examples=40, deadline=None)
def test_conmerge_correctness_property(seed, sparsity, rows, cols):
    """For arbitrary masks: every non-sparse element appears exactly once,
    all hardware invariants hold, and compaction never loses columns."""
    rng = np.random.default_rng(seed)
    mask = Bitmask.random(rows, cols, sparsity=sparsity, rng=rng)
    result = conmerge(mask)
    expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
    assert _positions(result) == expected
    total_cells = sum(b.num_elements for b in result.blocks)
    assert total_cells == mask.nnz  # exactly once, no duplicates
    for block in result.blocks:
        block.validate()
    assert 0.0 <= result.remaining_column_ratio <= 1.0 + 1e-9
