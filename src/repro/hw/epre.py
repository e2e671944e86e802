"""Eager-prediction engine: LD_DPU array with one-hot adder trees.

The EPRE computes attention-score predictions in the log domain
(paper Fig. 15): TS-LOD decomposes each operand into its two leading
powers of two, multiplications become shift operations whose outputs are
one-hot, and the one-hot partials reduce through OR-gate trees before a
low-precision accumulation. Its latency hides behind SDUE/CFSE execution
via pipelining (Section IV-A); the model still reports its cycles for the
energy account. The prediction arithmetic itself is
:func:`repro.core.logdomain.log_domain_matmul`.
"""

from __future__ import annotations

from repro.hw.dpu import dot_product_cycles


class EPREModel:
    """Cycle model of the eager-prediction engine."""

    #: A 16x16 LD_DPU array of 16-element lanes.
    rows = 16
    cols = 16
    lane_length = 16

    def prediction_cycles(self, r: int, k: int, c: int) -> int:
        """Cycle count of one ``(r, k) @ (k, c)`` prediction MMUL."""
        row_tiles = -(-r // self.rows)
        col_tiles = -(-c // self.cols)
        return row_tiles * col_tiles * dot_product_cycles(k, self.lane_length)
