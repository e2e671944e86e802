"""Bitmask over an output matrix: which elements must be (re)computed.

The convention throughout follows the paper's Fig. 6: bit ``1`` marks a
non-sparse element (compute it), bit ``0`` marks a sparse element (skip /
reuse). Rows index the input (token) axis, columns index the weight-column
(output-feature) axis — the orientation ConMerge condenses and merges over.
"""

from __future__ import annotations

import numpy as np


class Bitmask:
    """Boolean mask over a ``(rows, cols)`` output matrix."""

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError("Bitmask must be 2-D (rows x cols)")
        self.mask = mask.astype(bool)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_threshold(cls, values: np.ndarray, threshold: float) -> "Bitmask":
        """Mark elements whose magnitude exceeds ``threshold`` as non-sparse.

        This is the dense-iteration bitmask generation of FFN-Reuse: values
        above the threshold are "important and need to be recomputed at
        every iteration".
        """
        return cls(np.abs(np.asarray(values, dtype=np.float64)) > threshold)

    @classmethod
    def dense(cls, rows: int, cols: int) -> "Bitmask":
        return cls(np.ones((rows, cols), dtype=bool))

    @classmethod
    def random(
        cls, rows: int, cols: int, sparsity: float, rng: np.random.Generator
    ) -> "Bitmask":
        """Random mask with the given expected sparsity (for benches/tests)."""
        if not 0.0 <= sparsity <= 1.0:
            raise ValueError("sparsity must be in [0, 1]")
        return cls(rng.random((rows, cols)) >= sparsity)

    # ------------------------------------------------------------------
    # shape and statistics
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.mask.shape[0]

    @property
    def cols(self) -> int:
        return self.mask.shape[1]

    @property
    def nnz(self) -> int:
        """Number of non-sparse (compute-required) elements."""
        return int(self.mask.sum())

    @property
    def sparsity(self) -> float:
        """Fraction of sparse elements."""
        return 1.0 - self.nnz / self.mask.size

    def nonzero_columns(self) -> np.ndarray:
        """Indices of columns with at least one non-sparse element."""
        return np.flatnonzero(self.mask.any(axis=0))

    def column(self, index: int) -> np.ndarray:
        """The boolean occupancy of one column."""
        return self.mask[:, index]

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def __and__(self, other: "Bitmask") -> "Bitmask":
        return Bitmask(self.mask & other.mask)

    def __or__(self, other: "Bitmask") -> "Bitmask":
        return Bitmask(self.mask | other.mask)

    def __invert__(self) -> "Bitmask":
        return Bitmask(~self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmask):
            return NotImplemented
        return self.mask.shape == other.mask.shape and bool(
            np.all(self.mask == other.mask)
        )

    def __hash__(self) -> int:  # pragma: no cover - masks are not dict keys
        return hash((self.mask.shape, self.mask.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Bitmask(rows={self.rows}, cols={self.cols}, "
            f"sparsity={self.sparsity:.3f})"
        )
