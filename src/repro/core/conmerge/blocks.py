"""Tile blocks: the unit the SDUE executes and ConMerge merges.

The hardware tiles the output matrix into blocks of ``width`` columns over
``rows`` input rows (the DPU-array shape, 16x16 in the real configuration,
3-wide in the paper's toy model of Figs. 8-9). A fresh block holds one
origin column per column slot with every element at its own lane; merging
may relocate elements and stack up to three origin columns per slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TileBlock:
    """A (possibly merged) tile of the output matrix.

    ``cells[lane][col_slot]`` is the :class:`CellAssignment` occupying that
    DPU, or ``None`` when idle. ``conflict_vector[lane]`` is the single
    foreign input row the lane's conflict line carries (None = unused).
    """

    rows: int
    width: int
    cells: list = field(default_factory=list)  # [rows][width] Optional[CellAssignment]
    conflict_vector: list = field(default_factory=list)  # [rows] Optional[int]
    num_origins: int = 1  # how many source blocks were merged in (<= 3)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.width <= 0:
            raise ValueError("TileBlock dimensions must be positive")
        if not self.cells:
            self.cells = [[None] * self.width for _ in range(self.rows)]
        if not self.conflict_vector:
            self.conflict_vector = [None] * self.rows

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def entries(self) -> list:
        """All active cell assignments."""
        return [
            cell
            for row in self.cells
            for cell in row
            if cell is not None
        ]

    @property
    def num_elements(self) -> int:
        return len(self.entries())

    @property
    def utilization(self) -> float:
        """Active DPU fraction when this block executes."""
        return self.num_elements / (self.rows * self.width)

    def occupancy(self) -> np.ndarray:
        """Boolean (rows, width) grid of active cells."""
        grid = np.zeros((self.rows, self.width), dtype=bool)
        for lane in range(self.rows):
            for slot in range(self.width):
                grid[lane, slot] = self.cells[lane][slot] is not None
        return grid

    def copy(self) -> "TileBlock":
        return TileBlock(
            rows=self.rows,
            width=self.width,
            cells=[list(row) for row in self.cells],
            conflict_vector=list(self.conflict_vector),
            num_origins=self.num_origins,
        )

    def validate(self) -> None:
        """Check the hardware feasibility invariants; raise on violation."""
        if self.num_origins > 3:
            raise ValueError("a block cannot merge more than 3 origins")
        for lane in range(self.rows):
            foreign = {
                cell.input_row
                for cell in self.cells[lane]
                if cell is not None and cell.input_row != lane
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
