"""ConMerge assistant unit: sorting + vector-generation cycle model.

The CAU streams output-column bitmasks through the sparsity-level
classifier and SortBuffer while the SDUE runs the dense iteration (so
classification cycles overlap compute), then the CVG resolves merges. Its
cycle cost is what the Fig. 12 sorting study measures; its silicon cost is
0.94% of the DSC (Table III: 0.04 / 4.37 mm^2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import TiledConMergeResult, conmerge_tiled


@dataclass
class CAUReport:
    """Outcome of one CAU pass over an output bitmask."""

    result: TiledConMergeResult
    classify_cycles: int  # overlapped with SDUE dense execution
    merge_cycles: int  # CVG conflict-resolution work
    cvmem_words: int  # conflict vectors + control maps written

    @property
    def total_cycles(self) -> int:
        return self.classify_cycles + self.merge_cycles


class CAUModel:
    """Drives ConMerge and accounts its cycles and CVMEM traffic."""

    #: Row tile and merged-block width: the 16x16 SDUE array.
    rows = 16
    width = 16
    #: SortBuffer entries per sparsity class.
    class_capacity = 256

    def process(self, mask: Bitmask, sort: bool = True) -> CAUReport:
        """Run ConMerge over a (possibly multi-tile) output bitmask."""
        result = conmerge_tiled(
            mask,
            tile_rows=self.rows,
            width=self.width,
            sort=sort,
            class_capacity=self.class_capacity,
        )
        # One classify/insert cycle per column per row-tile.
        tiles = len(result.tile_results)
        classify_cycles = mask.cols * tiles
        merge_cycles = result.cycles
        # CVMEM stores one conflict vector per lane plus one control map
        # per occupied cell for every merged block.
        words = 0
        for tile in result.tile_results:
            for block in tile.blocks:
                words += block.rows + block.num_elements
        return CAUReport(
            result=result,
            classify_cycles=classify_cycles,
            merge_cycles=merge_cycles,
            cvmem_words=words,
        )
