"""Condensing: drop output-matrix columns that are entirely sparse.

When every element of a column is sparse, the column's weight vector is
never needed: the column is removed from the computation and from weight
fetching (paper Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitmask import Bitmask


@dataclass
class CondenseResult:
    """Outcome of condensing one output bitmask."""

    original_cols: int
    kept_columns: np.ndarray  # original column indices that survive
    condensed: Bitmask  # mask restricted to the kept columns

    @property
    def remaining_ratio(self) -> float:
        """Fraction of columns remaining after condensing (Fig. 8 metric)."""
        if self.original_cols == 0:
            return 0.0
        return len(self.kept_columns) / self.original_cols


def condense(mask: Bitmask) -> CondenseResult:
    """Remove all-sparse columns from ``mask``."""
    kept = mask.nonzero_columns()
    condensed = Bitmask(mask.mask[:, kept]) if kept.size else Bitmask(
        np.zeros((mask.rows, 0), dtype=bool)
    )
    return CondenseResult(
        original_cols=mask.cols, kept_columns=kept, condensed=condensed
    )
