"""CAU SortBuffer: coarse sparsity-level sorting of output columns.

During dense iterations the CAU receives, per output column, the original
column index and a row-occupancy bitmask. A sparsity-level classifier
buckets each column into one of five classes (paper Fig. 13); full classes
overflow to the next sparser class and finally to the extra class. All-zero
bitmasks are never stored — that *is* the condensing step.

The coarse sort raises merge success rates: merging a dense block with a
sparse block rarely conflicts, cutting CVG cycles by 29-73% (Fig. 12).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.bitmask import Bitmask


class SparsityClass(enum.Enum):
    """Coarse sparsity levels, densest first."""

    HIGH_DENSE = 0
    DENSE = 1
    SPARSE = 2
    HIGH_SPARSE = 3
    EXTRA = 4


# Overflow target per class: "the next sparse class", then EXTRA.
_OVERFLOW = {
    SparsityClass.HIGH_DENSE: SparsityClass.DENSE,
    SparsityClass.DENSE: SparsityClass.SPARSE,
    SparsityClass.SPARSE: SparsityClass.HIGH_SPARSE,
    SparsityClass.HIGH_SPARSE: SparsityClass.EXTRA,
}


def classify(popcount: int, rows: int) -> SparsityClass:
    """Sparsity level of a column with ``popcount`` non-sparse rows."""
    if not 0 <= popcount <= rows:
        raise ValueError("popcount out of range")
    ratio = popcount / rows
    if ratio > 0.75:
        return SparsityClass.HIGH_DENSE
    if ratio > 0.50:
        return SparsityClass.DENSE
    if ratio > 0.25:
        return SparsityClass.SPARSE
    return SparsityClass.HIGH_SPARSE


@dataclass
class ColumnEntry:
    """A SortBuffer record: original column index plus occupancy bitmask."""

    origin_col: int
    occupancy: np.ndarray  # bool (rows,)

    @property
    def popcount(self) -> int:
        return int(self.occupancy.sum())


class SortBuffer:
    """Banked class buffer with overflow, as in the CAU (Fig. 13)."""

    def __init__(self, rows: int, class_capacity: int = 256) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        if class_capacity <= 0:
            raise ValueError("class_capacity must be positive")
        self.rows = rows
        self.class_capacity = class_capacity
        self._classes: dict = {cls: [] for cls in SparsityClass}
        self.condensed_columns = 0  # all-zero columns dropped on insert

    def insert(self, origin_col: int, occupancy: np.ndarray) -> bool:
        """Store one column; returns False when condensed away (all zero)."""
        occupancy = np.asarray(occupancy, dtype=bool)
        if occupancy.shape != (self.rows,):
            raise ValueError(f"occupancy must have shape ({self.rows},)")
        entry = ColumnEntry(origin_col=origin_col, occupancy=occupancy)
        if entry.popcount == 0:
            self.condensed_columns += 1
            return False
        cls = classify(entry.popcount, self.rows)
        while cls is not SparsityClass.EXTRA and self._is_full(cls):
            cls = _OVERFLOW[cls]
        self._classes[cls].append(entry)
        return True

    def insert_mask(self, mask: Bitmask) -> int:
        """Insert every column of a bitmask; returns stored-column count."""
        stored = 0
        for col in range(mask.cols):
            if self.insert(col, mask.column(col)):
                stored += 1
        return stored

    def _is_full(self, cls: SparsityClass) -> bool:
        return len(self._classes[cls]) >= self.class_capacity

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._classes.values())

    def drain_sorted(self) -> list:
        """All entries ordered densest-to-sparsest (class-coarse order).

        Within a class the arrival order is preserved — the hardware sorts
        "not completely but in a coarse manner, which is sufficient"
        (paper Section IV-C).
        """
        ordered = []
        for cls in (
            SparsityClass.HIGH_DENSE,
            SparsityClass.DENSE,
            SparsityClass.EXTRA,
            SparsityClass.SPARSE,
            SparsityClass.HIGH_SPARSE,
        ):
            ordered.extend(self._classes[cls])
        self._classes = {cls: [] for cls in SparsityClass}
        return ordered
