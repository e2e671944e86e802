"""Cell-assignment datatype for ConMerge execution on the SDUE.

Each DPU cell of a merged block needs to know (paper Fig. 11):

- which input row feeds it — its lane's *original line* or the lane's
  single *conflict line* (selected by ``i_sw``, configured per lane by the
  conflict vector): the cell reads the conflict line exactly when its
  ``input_row`` differs from its ``lane``;
- which of up to three broadcast weight columns it multiplies (selected by
  ``w_sw``, one per merge round / WMEM buffer): its ``buffer_index``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CellAssignment:
    """One active DPU cell within a merged tile block.

    ``lane`` / ``col_slot`` locate the DPU; ``input_row`` is the original
    output-matrix row the cell computes (equal to ``lane`` unless the
    element was relocated during conflict resolution); ``origin_col`` is
    the original weight-column index; ``buffer_index`` selects the WMEM
    holding that weight column (0 = original block, 1 = first merge,
    2 = second merge).
    """

    lane: int
    col_slot: int
    input_row: int
    origin_col: int
    buffer_index: int

    def __post_init__(self) -> None:
        if self.buffer_index not in (0, 1, 2):
            raise ValueError("buffer_index must be 0, 1 or 2 (triple-buffered WMEM)")
        if min(self.lane, self.col_slot, self.input_row, self.origin_col) < 0:
            raise ValueError("indices must be non-negative")
