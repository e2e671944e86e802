"""ConMerge vector generation: the end-to-end compaction pass.

``conmerge`` processes one row-tile of an output bitmask the way the CAU +
CVG do in hardware: columns stream through the SortBuffer (condensing
all-zero columns, coarse-sorting the rest), fresh tile blocks form from the
sorted order (one ``packbits`` turns every column's occupancy into its
lane bitmask), and merging pairs the densest block with the sparsest, then
the result with the next sparsest ("(Dense+Sparse) + Sparse_Next",
Fig. 13), emitting conflict vectors and control maps per merged block.
Every result aggregate counts bitmask bits; none builds cell records.

``conmerge_tiled`` applies the pass over every 16-row tile of a large
output matrix, which is how the hardware actually executes FFN layers with
many tokens.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.merge import greedy_merge, try_merge
from repro.core.conmerge.sortbuffer import ColumnEntry, SortBuffer


@dataclass
class ConMergeResult:
    """Compaction outcome for one row-tile."""

    rows: int
    original_cols: int
    condensed_cols: int
    blocks: list = field(default_factory=list)
    cycles: int = 0
    merge_successes: int = 0

    @property
    def physical_columns(self) -> int:
        """DPU column slots actually occupied across all blocks."""
        return sum(1 for block in self.blocks for column in block.columns if column)

    @property
    def remaining_column_ratio(self) -> float:
        """Physical columns over original columns (Figs. 8, 9, 17 metric)."""
        if self.original_cols == 0:
            return 0.0
        return self.physical_columns / self.original_cols

    @property
    def condense_ratio(self) -> float:
        """Columns remaining after condensing alone."""
        if self.original_cols == 0:
            return 0.0
        return self.condensed_cols / self.original_cols

    @property
    def utilization(self) -> float:
        """Mean active-DPU fraction when the blocks execute."""
        if not self.blocks:
            return 0.0
        cells = sum(b.num_elements for b in self.blocks)
        area = sum(b.rows * b.width for b in self.blocks)
        return cells / area


def _blocks_from_entries(entries: list, rows: int, width: int) -> list:
    """Fresh width-wide blocks from ordered SortBuffer entries."""
    occupancy = np.array([entry.occupancy for entry in entries], dtype=bool)
    packed = np.packbits(occupancy, axis=1, bitorder="little")
    blocks = [TileBlock(rows=rows, width=width) for _ in range(0, len(entries), width)]
    for index, column in enumerate(packed):
        blocks[index // width].columns[index % width] = int.from_bytes(column, "little")
    origins = [int(entry.origin_col) for entry in entries]
    for index, lane in zip(*(axis.tolist() for axis in np.nonzero(occupancy))):
        blocks[index // width].records[lane * width + index % width] = (lane, origins[index], 0)
    return blocks


def _paired_merge(blocks: list) -> tuple:
    """Dense-with-sparse pairing over blocks ordered densest first."""
    dq = deque(blocks)
    out = []
    cycles = 0
    successes = 0
    while dq:
        base = dq.popleft()  # densest remaining
        while dq and base.num_origins < 3:
            merged = None
            # Try partners from the sparsest end inward.
            for i in range(len(dq) - 1, -1, -1):
                attempt = try_merge(base, dq[i])
                cycles += attempt.cycles
                if attempt.success:
                    merged = attempt.merged
                    del dq[i]
                    successes += 1
                    break
            if merged is None:
                break
            base = merged
        out.append(base)
    return out, cycles, successes


def conmerge(
    mask: Bitmask,
    width: int = 16,
    sort: bool = True,
    class_capacity: int = 256,
) -> ConMergeResult:
    """Run condensing + merging on one row-tile bitmask.

    ``sort=False`` skips the SortBuffer ordering and merges blocks in
    arrival order — the Fig. 12 baseline.
    """
    result = ConMergeResult(
        rows=mask.rows, original_cols=mask.cols, condensed_cols=0
    )
    buffer = SortBuffer(rows=mask.rows, class_capacity=class_capacity)
    if sort:
        stored = buffer.insert_mask(mask)
        entries = buffer.drain_sorted()
    else:
        entries = [
            ColumnEntry(origin_col=c, occupancy=mask.column(c))
            for c in mask.nonzero_columns()
        ]
        stored = len(entries)
    result.condensed_cols = stored
    if not entries:
        return result

    blocks = _blocks_from_entries(entries, mask.rows, width)
    if sort:
        merged, cycles, successes = _paired_merge(blocks)
    else:
        merged, cycles, successes = greedy_merge(blocks)
    result.blocks = merged
    result.cycles = cycles
    result.merge_successes = successes
    return result


@dataclass
class TiledConMergeResult:
    """Aggregate of per-row-tile ConMerge results."""

    tile_results: list = field(default_factory=list)

    @property
    def original_columns(self) -> int:
        return sum(r.original_cols for r in self.tile_results)

    @property
    def condensed_columns(self) -> int:
        return sum(r.condensed_cols for r in self.tile_results)

    @property
    def physical_columns(self) -> int:
        return sum(r.physical_columns for r in self.tile_results)

    @property
    def condense_ratio(self) -> float:
        total = self.original_columns
        return self.condensed_columns / total if total else 0.0

    @property
    def remaining_column_ratio(self) -> float:
        total = self.original_columns
        return self.physical_columns / total if total else 0.0

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.tile_results)

    @property
    def num_blocks(self) -> int:
        return sum(len(r.blocks) for r in self.tile_results)

    @property
    def utilization(self) -> float:
        blocks = [b for r in self.tile_results for b in r.blocks]
        if not blocks:
            return 0.0
        cells = sum(b.num_elements for b in blocks)
        area = sum(b.rows * b.width for b in blocks)
        return cells / area


def conmerge_tiled(
    mask: Bitmask,
    tile_rows: int = 16,
    width: int = 16,
    sort: bool = True,
    class_capacity: int = 256,
) -> TiledConMergeResult:
    """Apply :func:`conmerge` to each ``tile_rows``-row slice of a mask."""
    result = TiledConMergeResult()
    for start in range(0, mask.rows, tile_rows):
        sub = Bitmask(mask.mask[start : start + tile_rows])
        result.tile_results.append(
            conmerge(sub, width=width, sort=sort, class_capacity=class_capacity)
        )
    return result
