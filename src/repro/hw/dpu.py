"""Dot-product unit: the SDUE's compute element (paper Fig. 11).

Each DPU multiplies a 16-element input slice with a 16-element weight slice
(integer multipliers), reduces through a Wallace-tree adder and accumulates
into clock-gated registers. This module is its cycle model: how many cycles
one dot product of a given depth occupies a DPU; the array-level
accounting lives in :mod:`repro.hw.sdue`.
"""

from __future__ import annotations

#: Elements each DPU consumes per cycle (the "lane length" of Fig. 11).
LANE_LENGTH = 16


def dot_product_cycles(depth: int, lane_length: int = LANE_LENGTH) -> int:
    """Cycles for one DPU to finish a ``depth``-long dot product."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return -(-depth // lane_length)
