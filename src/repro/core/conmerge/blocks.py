"""Tile blocks: the unit the SDUE executes and ConMerge merges.

The hardware tiles the output matrix into blocks of ``width`` columns over
``rows`` input rows (the DPU-array shape, 16x16 in the real configuration,
3-wide in the paper's toy model of Figs. 8-9). A fresh block holds one
origin column per column slot with every element at its own lane; merging
may relocate elements and stack up to three origin columns per slot.

A block is stored the way the CVG sees it (Fig. 14): each column slot is
one ``int`` lane bitmask, bit ``l`` set when lane ``l`` is busy, so merge
decisions are integer and/or/popcount work. What each busy cell computes
lives in one flat list, ``records[lane * width + slot] = (input_row,
origin_col, buffer_index)``; :meth:`TileBlock.entries` builds the
:class:`~repro.core.conmerge.vectors.CellAssignment` views on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.conmerge.vectors import CellAssignment


@dataclass
class TileBlock:
    """A (possibly merged) tile of the output matrix.

    ``columns[slot]`` is the lane bitmask of busy DPUs in that column slot
    and ``records[lane * width + slot]`` the busy cell's ``(input_row,
    origin_col, buffer_index)`` (None when idle). ``conflict_vector[lane]``
    is the single foreign input row the lane's conflict line carries
    (None = unused).
    """

    rows: int
    width: int
    columns: list = field(default_factory=list)  # [width] int lane bitmask
    records: list = field(default_factory=list)  # [rows * width] Optional[tuple]
    conflict_vector: list = field(default_factory=list)  # [rows] Optional[int]
    num_origins: int = 1  # how many source blocks were merged in (<= 3)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.width <= 0:
            raise ValueError("TileBlock dimensions must be positive")
        if not self.columns:
            self.columns = [0] * self.width
        if not self.records:
            self.records = [None] * (self.rows * self.width)
        if not self.conflict_vector:
            self.conflict_vector = [None] * self.rows

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def entries(self) -> list:
        """All active cell assignments, lane by lane."""
        width = self.width
        return [
            CellAssignment(index // width, index % width, *record)
            for index, record in enumerate(self.records)
            if record is not None
        ]

    @property
    def num_elements(self) -> int:
        return sum(column.bit_count() for column in self.columns)

    def occupancy(self) -> np.ndarray:
        """Boolean (rows, width) grid of active cells."""
        return np.array(
            [[column >> lane & 1 for column in self.columns]
             for lane in range(self.rows)],
            dtype=bool,
        )

    def copy(self) -> "TileBlock":
        return TileBlock(
            rows=self.rows,
            width=self.width,
            columns=list(self.columns),
            records=list(self.records),
            conflict_vector=list(self.conflict_vector),
            num_origins=self.num_origins,
        )

    def validate(self) -> None:
        """Check the hardware feasibility invariants; raise on violation."""
        if self.num_origins > 3:
            raise ValueError("a block cannot merge more than 3 origins")
        width = self.width
        for lane in range(self.rows):
            cells = self.records[lane * width : (lane + 1) * width]
            if any((column >> lane & 1) != (cell is not None)
                   for column, cell in zip(self.columns, cells)):
                raise ValueError(f"lane {lane} bitmask disagrees with its cells")
            foreign = {
                cell[0] for cell in cells if cell is not None and cell[0] != lane
            }
            if len(foreign) > 1:
                raise ValueError(
                    f"lane {lane} needs {len(foreign)} conflict rows; 1 allowed"
                )
            if foreign:
                (row,) = foreign
                if self.conflict_vector[lane] != row:
                    raise ValueError(
                        f"lane {lane} conflict vector {self.conflict_vector[lane]}"
                        f" does not carry required row {row}"
                    )
