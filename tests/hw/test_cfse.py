"""Unit tests for the configurable SIMD engine model."""

import pytest

from repro.hw.cfse import CFSEModel


class TestThroughput:
    def test_two_way_16bit_doubles_the_16_lanes(self):
        assert CFSEModel().throughput_per_cycle == 32


class TestCycleAccounting:
    def test_cycles_scale_with_elements(self):
        cfse = CFSEModel()
        small = cfse.function_cycles("softmax", 32)
        large = cfse.function_cycles("softmax", 3200)
        assert large == pytest.approx(100 * small, rel=0.05)

    def test_unknown_function_raises(self):
        with pytest.raises(ValueError, match="unsupported CFSE function 'fft'"):
            CFSEModel().function_cycles("fft", 100)

    @pytest.mark.parametrize("function", sorted(CFSEModel.OPS_PER_ELEMENT))
    def test_cycles_are_ops_over_throughput_rounded_up(self, function):
        cfse = CFSEModel()
        ops = CFSEModel.OPS_PER_ELEMENT[function]
        lanes = cfse.throughput_per_cycle
        assert cfse.function_cycles(function, 0) == 0
        assert cfse.function_cycles(function, 1) == 1
        # A whole number of full vectors takes exactly ops cycles each ...
        assert cfse.function_cycles(function, 10 * lanes) == 10 * ops
        # ... and one element more spills into one more cycle.
        assert cfse.function_cycles(function, 10 * lanes + 1) == 10 * ops + 1

    @pytest.mark.parametrize("function",
                             ("softmax", "gelu", "layernorm", "residual_add"))
    def test_two_way_mode_runs_32_elements_per_cycle(self, function):
        elements = 4096
        ops = CFSEModel.OPS_PER_ELEMENT[function]
        assert CFSEModel().function_cycles(function, elements) == (
            elements * ops // 32)
