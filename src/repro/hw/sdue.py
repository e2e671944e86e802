"""Sparse-dense unified engine: cycle model of dense tiles and merged blocks.

The SDUE is a ``rows x cols`` DPU array (16x16 in the paper's
configuration). Dense MMUL tiles map one output element per DPU; ConMerge
merged blocks map through the cv_sw / i_sw / w_sw switch fabric: each cell
reads either its lane's original input row or the lane's single conflict
row, and one of up to three broadcast weight columns (paper Fig. 11).

Dense tiles are priced only (:meth:`SDUEModel.dense_cycles`). Merged
blocks also execute: :meth:`SDUEModel.run_conmerge` scatters exactly the
non-sparse elements, which the hardware-in-the-loop example and the test
suite compare against the masked reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.dpu import LANE_LENGTH, dot_product_cycles


@dataclass
class SDUEStats:
    """Cycle and activity accounting for one SDUE instance."""

    cycles: int = 0
    tiles: int = 0
    active_cell_cycles: int = 0
    total_cell_cycles: int = 0
    macs: int = 0

    @property
    def utilization(self) -> float:
        if self.total_cell_cycles == 0:
            return 0.0
        return self.active_cell_cycles / self.total_cell_cycles


class SDUEModel:
    """Cycle model of the SDUE DPU array, with merged-block execution."""

    #: The paper's 16x16 DPU array.
    rows = 16
    cols = 16
    lane_length = LANE_LENGTH

    def __init__(self) -> None:
        self.stats = SDUEStats()

    def dense_cycles(self, r: int, k: int, c: int) -> int:
        """Cycle count of a dense ``(r, k) @ (k, c)`` without executing it."""
        row_tiles = -(-r // self.rows)
        col_tiles = -(-c // self.cols)
        return row_tiles * col_tiles * dot_product_cycles(k, self.lane_length)

    # ------------------------------------------------------------------
    # merged (ConMerge) path
    # ------------------------------------------------------------------
    def run_merged_block(
        self,
        block,
        inputs: np.ndarray,
        weights: np.ndarray,
        output: np.ndarray,
    ) -> None:
        """Execute one ConMerge tile block and scatter into ``output``.

        ``block`` is a :class:`repro.core.conmerge.blocks.TileBlock` whose
        lanes index rows of ``inputs`` (a row-tile slice); ``weights`` is
        the full ``(K, C_original)`` weight matrix; results scatter to
        ``output[input_row, origin_col]``.
        """
        if block.rows > inputs.shape[0]:
            raise ValueError("block lanes exceed input rows")
        k = inputs.shape[1]
        depth_cycles = dot_product_cycles(k, self.lane_length)
        entries = block.entries()
        for cell in entries:
            value = float(inputs[cell.input_row] @ weights[:, cell.origin_col])
            output[cell.input_row, cell.origin_col] = value
        cells = self.rows * self.cols
        self.stats.tiles += 1
        self.stats.cycles += depth_cycles
        self.stats.total_cell_cycles += depth_cycles * cells
        self.stats.active_cell_cycles += depth_cycles * len(entries)
        self.stats.macs += len(entries) * k

    def run_conmerge(
        self,
        tiled_result,
        inputs: np.ndarray,
        weights: np.ndarray,
        baseline: np.ndarray,
    ) -> np.ndarray:
        """Execute a tiled ConMerge result over the full output matrix.

        ``baseline`` provides values for skipped (sparse) elements — the
        reused data of FFN-Reuse or zeros for eager prediction. Rows tile
        in the same order ``conmerge_tiled`` produced.
        """
        output = np.array(baseline, dtype=np.float64, copy=True)
        tile_rows = self.rows
        for index, tile in enumerate(tiled_result.tile_results):
            start = index * tile_rows
            tile_inputs = inputs[start : start + tile.rows]
            view = output[start : start + tile.rows]
            for block in tile.blocks:
                self.run_merged_block(block, tile_inputs, weights, view)
        return output
