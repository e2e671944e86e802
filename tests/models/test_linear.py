"""Unit tests for the Linear layer."""

import numpy as np
import pytest

from repro.models.linear import Linear


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 12, rng)
        out = layer(np.zeros((5, 8)))
        assert out.shape == (5, 12)

    def test_is_the_matmul_byte_for_byte_and_touches_no_operand(self, rng):
        layer = Linear(4, 3, rng)
        for x in (rng.standard_normal((2, 4)), rng.standard_normal((5, 2, 4)),
                  rng.standard_normal(4), rng.standard_normal((4, 6)).T):
            x_before = x.copy()
            assert layer(x).tobytes() == (x @ layer.weight).tobytes()
            np.testing.assert_array_equal(x, x_before)

    def test_product_never_emits_negative_zero(self, rng):
        """Dropping the zero bias is exact only because the product never
        returns -0.0 (``+ 0.0`` would have flipped it): all-(-0.0)
        operands and exactly cancelling rows both come back +0.0."""
        layer = Linear(4, 3, rng)
        layer.weight = np.abs(layer.weight)
        x = np.array([[-0.0, -0.0, -0.0, -0.0],
                      [1.0, -1.0, 0.0, -0.0]])
        layer.weight[0] = layer.weight[1]
        out = layer(x)
        assert np.array_equal(out, np.zeros((2, 3)))
        assert not np.signbit(out).any()

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
