"""Configurable SIMD engine: special functions at full precision.

The CFSE computes layer normalization, Softmax, non-linear functions and
residual additions (paper Fig. 10). Its ALUs run either one-way 32-bit or
two-way 16-bit for double throughput; MMULs never run here.
"""

from __future__ import annotations


class CFSEModel:
    """Cycle model of the SIMD special-function engine."""

    #: Approximate ALU ops per element for each supported function.
    OPS_PER_ELEMENT = {
        "softmax": 4,  # max-subtract, exp, sum, divide
        "layernorm": 5,
        "gelu": 3,
        "residual_add": 1,
        "scale": 1,
    }

    #: Elements processed per cycle: 16 lanes, doubled by running the
    #: ALUs two-way 16-bit.
    throughput_per_cycle = 2 * 16

    def function_cycles(self, function: str, elements: int) -> int:
        """Cycles to apply ``function`` to ``elements`` values."""
        if function not in self.OPS_PER_ELEMENT:
            raise ValueError(f"unsupported CFSE function {function!r}")
        ops = elements * self.OPS_PER_ELEMENT[function]
        return -(-ops // self.throughput_per_cycle)
