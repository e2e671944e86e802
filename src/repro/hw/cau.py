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
    merge_cycles: int  # CVG conflict-resolution work


class CAUModel:
    """Drives ConMerge and accounts its cycles."""

    #: Row tile and merged-block width: the 16x16 SDUE array.
    rows = 16
    width = 16
    #: SortBuffer entries per sparsity class.
    class_capacity = 256

    def process(self, mask: Bitmask) -> CAUReport:
        """Run ConMerge, sorted, over a (possibly multi-tile) output
        bitmask."""
        result = conmerge_tiled(
            mask,
            tile_rows=self.rows,
            width=self.width,
            sort=True,
            class_capacity=self.class_capacity,
        )
        return CAUReport(
            result=result,
            merge_cycles=result.cycles,
        )
