"""Unit tests for the Linear layer."""

import numpy as np
import pytest

from repro.models.linear import Linear


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 12, rng)
        out = layer(np.zeros((5, 8)))
        assert out.shape == (5, 12)

    def test_matches_manual_matmul(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(layer(x), x @ layer.weight + layer.bias)

    def test_in_place_bias_is_byte_equal_and_touches_no_operand(self, rng):
        layer = Linear(4, 3, rng)
        layer.bias = rng.standard_normal(3)
        for x in (rng.standard_normal((2, 4)), rng.standard_normal((5, 2, 4)),
                  rng.standard_normal(4), rng.standard_normal((4, 6)).T):
            x_before, bias_before = x.copy(), layer.bias.copy()
            assert layer(x).tobytes() == (x @ layer.weight + layer.bias).tobytes()
            np.testing.assert_array_equal(x, x_before)
            np.testing.assert_array_equal(layer.bias, bias_before)

    def test_bias_starts_at_zero(self, rng):
        layer = Linear(4, 3, rng)
        np.testing.assert_array_equal(layer.bias, np.zeros(3))
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(layer(x), x @ layer.weight)

    def test_rejects_wrong_input_dim(self, rng):
        layer = Linear(4, 3, rng)
        with pytest.raises(ValueError, match="expected last dim"):
            layer(np.zeros((2, 5)))

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng)
        with pytest.raises(ValueError):
            Linear(3, -1, rng)

    def test_deterministic_given_seed(self):
        a = Linear(6, 6, np.random.default_rng(7))
        b = Linear(6, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight, b.weight)

    def test_macs(self, rng):
        assert Linear(4, 3, rng).macs(tokens=10) == 120

    def test_xavier_bound(self, rng):
        layer = Linear(100, 100, rng)
        bound = np.sqrt(6.0 / 200)
        assert np.max(np.abs(layer.weight)) <= bound

    def test_works_on_batched_input(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(rng.standard_normal((2, 5, 4)))
        assert out.shape == (2, 5, 3)
