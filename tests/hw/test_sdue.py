"""Unit tests for the sparse-dense unified engine."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import conmerge, conmerge_tiled
from repro.hw.sdue import SDUEModel


class TestDenseCycles:
    def test_cycle_count(self):
        # 2 row tiles x 2 col tiles x 2 depth cycles.
        assert SDUEModel().dense_cycles(32, 32, 32) == 8

    def test_edge_tiles_round_up(self):
        assert SDUEModel().dense_cycles(17, 16, 17) == 4

    def test_geometry_is_the_papers_16x16_array(self):
        sdue = SDUEModel()
        assert (sdue.rows, sdue.cols, sdue.lane_length) == (16, 16, 16)
        # One tile of 16 outputs per side, one depth cycle per 16 MACs.
        assert sdue.dense_cycles(16, 16, 16) == 1


class TestMergedPath:
    @pytest.mark.parametrize("sort", (True, False))
    @pytest.mark.parametrize("rows,k,cols,sparsity", (
        (16, 16, 16, 0.0),
        (16, 40, 64, 0.5),
        (20, 24, 48, 0.9),
        (33, 8, 96, 0.97),
        (5, 17, 31, 1.0),
    ))
    def test_merged_execution_is_the_masked_matmul(self, rows, k, cols,
                                                   sparsity, sort):
        """For any sparsity (dense to fully sparse), ragged row tiles and
        sorted or unsorted merging, the SDUE writes exactly the masked
        elements of ``x @ w`` and leaves every other element at its
        baseline value."""
        rng = np.random.default_rng(rows * 1000 + cols)
        x = rng.standard_normal((rows, k))
        w = rng.standard_normal((k, cols))
        mask = Bitmask.random(rows, cols, sparsity=sparsity, rng=rng)
        tiled = conmerge_tiled(mask, tile_rows=16, sort=sort)
        baseline = rng.standard_normal((rows, cols))
        sdue = SDUEModel()
        out = sdue.run_conmerge(tiled, x, w, baseline)
        expected = np.where(mask.mask, x @ w, baseline)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        assert sdue.stats.macs == mask.nnz * k
        assert sdue.stats.active_cell_cycles <= sdue.stats.total_cell_cycles

    def test_conflict_line_cell_reads_the_conflict_row(self):
        """A cell relocated onto another lane (``input_row != lane``, the
        i_sw conflict line of Fig. 11) multiplies its own input row, not
        the lane's, and scatters to its original position."""
        from repro.core.conmerge.blocks import TileBlock

        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        w = np.arange(8, dtype=np.float64).reshape(4, 2)
        block = TileBlock(rows=3, width=1)
        block.columns[0] = 0b001  # lane 0 busy in slot 0
        block.records[0] = (2, 1, 1)  # (input_row, origin_col, buffer_index)
        block.conflict_vector[0] = 2
        block.validate()
        out = np.zeros((3, 2))
        SDUEModel().run_merged_block(block, x, w, out)
        expected = np.zeros((3, 2))
        expected[2, 1] = x[2] @ w[:, 1]
        np.testing.assert_array_equal(out, expected)

    def test_conmerge_execution_matches_masked_matmul(self, rng):
        """The headline correctness property: executing ConMerge blocks on
        the SDUE reproduces exactly the non-sparse elements of the dense
        result, leaving sparse positions at their baseline value."""
        sdue = SDUEModel()
        rows, k, cols = 16, 32, 48
        x = rng.standard_normal((rows, k))
        w = rng.standard_normal((k, cols))
        mask = Bitmask.random(rows, cols, sparsity=0.85, rng=rng)
        tiled = conmerge_tiled(mask, tile_rows=16)
        baseline = np.full((rows, cols), -7.0)
        out = sdue.run_conmerge(tiled, x, w, baseline)
        dense = x @ w
        np.testing.assert_allclose(out[mask.mask], dense[mask.mask])
        np.testing.assert_allclose(out[~mask.mask], -7.0)

    def test_multi_row_tile_execution(self, rng):
        sdue = SDUEModel()
        rows, k, cols = 48, 16, 32
        x = rng.standard_normal((rows, k))
        w = rng.standard_normal((k, cols))
        mask = Bitmask.random(rows, cols, sparsity=0.9, rng=rng)
        tiled = conmerge_tiled(mask, tile_rows=16)
        out = sdue.run_conmerge(tiled, x, w, np.zeros((rows, cols)))
        dense = x @ w
        np.testing.assert_allclose(out[mask.mask], dense[mask.mask])

    def test_merged_cycles_fewer_than_dense(self, rng):
        """ConMerge must reduce SDUE cycles versus dense execution of the
        same output matrix — the whole point of the mechanism."""
        rows, k, cols = 16, 32, 128
        x = rng.standard_normal((rows, k))
        w = rng.standard_normal((k, cols))
        mask = Bitmask.random(rows, cols, sparsity=0.95, rng=rng)
        merged_engine = SDUEModel()
        tiled = conmerge_tiled(mask, tile_rows=16)
        merged_engine.run_conmerge(tiled, x, w, np.zeros((rows, cols)))
        assert merged_engine.stats.cycles < merged_engine.dense_cycles(
            rows, k, cols
        )

    def test_clock_gating_activity_tracked(self, rng):
        sdue = SDUEModel()
        mask = Bitmask.random(16, 16, sparsity=0.9, rng=rng)
        result = conmerge(mask)
        out = np.zeros((16, 16))
        for block in result.blocks:
            sdue.run_merged_block(
                block, rng.standard_normal((16, 8)),
                rng.standard_normal((8, 16)), out,
            )
        assert 0.0 < sdue.stats.utilization <= 1.0

    def test_rejects_block_larger_than_input(self, rng):
        from repro.core.conmerge.blocks import TileBlock

        sdue = SDUEModel()
        block = TileBlock(rows=16, width=16)
        with pytest.raises(ValueError, match="exceed"):
            sdue.run_merged_block(
                block, np.zeros((8, 4)), np.zeros((4, 16)), np.zeros((8, 16))
            )
