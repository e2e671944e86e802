"""Unit tests for the dot-product unit's cycle model."""

import pytest

from repro.hw.dpu import LANE_LENGTH, dot_product_cycles


class TestCycles:
    def test_exact_multiple(self):
        assert dot_product_cycles(32) == 2

    def test_rounds_up(self):
        assert dot_product_cycles(33) == 3

    def test_zero(self):
        assert dot_product_cycles(0) == 0

    def test_lane_length_constant(self):
        assert LANE_LENGTH == 16

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="non-negative"):
            dot_product_cycles(-1)

    @pytest.mark.parametrize("lane_length", (1, 4, 8, 16, 32))
    def test_one_cycle_per_lane_slice(self, lane_length):
        """Depth ``d`` occupies ``ceil(d / lane)`` cycles: each cycle
        consumes one full lane slice, the last one possibly partial."""
        for depth in range(0, 3 * lane_length + 2):
            cycles = dot_product_cycles(depth, lane_length)
            assert (cycles - 1) * lane_length < depth <= cycles * lane_length \
                or depth == cycles == 0
