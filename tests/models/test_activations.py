"""Unit tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.activations import gelu, geglu, silu, softmax


class TestGelu:
    def test_zero_maps_to_zero(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_large_positive_is_identity(self):
        x = np.array([10.0])
        assert gelu(x)[0] == pytest.approx(10.0, rel=1e-6)

    def test_large_negative_is_near_zero(self):
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-6

    def test_monotone_on_positive_axis(self):
        x = np.linspace(0.0, 5.0, 100)
        y = gelu(x)
        assert np.all(np.diff(y) > 0)

    def test_matches_erf_form_closely(self):
        from scipy.special import erf

        x = np.linspace(-4, 4, 200)
        exact = 0.5 * x * (1.0 + erf(x / np.sqrt(2)))
        assert np.max(np.abs(gelu(x) - exact)) < 5e-3

    def test_preserves_shape(self):
        x = np.zeros((3, 5, 7))
        assert gelu(x).shape == (3, 5, 7)

    # 10^5 evenly spaced points, the signed zeros and subnormals.
    GRID = np.concatenate([
        np.linspace(-12.0, 12.0, 100_001),
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308],
    ])

    def test_is_the_documented_expression_bit_for_bit(self, rng):
        c = float(np.sqrt(2.0 / np.pi))
        for x in (self.GRID, 3.0 * rng.standard_normal((8, 16, 256))):
            want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
            assert gelu(x).tobytes() == want.tobytes()

    def test_within_four_ulp_of_the_pow_form(self, rng):
        """The cube by multiplication differs from ``pow(x, 3)`` in the
        last bit at most. The bound is in ULPs of ``|x|``, the scale of
        ``gelu(x)`` itself: on the negative tail ``1 + tanh`` cancels, so
        one ULP of ``tanh`` is thousands of ULPs of the tiny result."""
        c = float(np.sqrt(2.0 / np.pi))
        for x in (self.GRID, 3.0 * rng.standard_normal(100_000)):
            pow_form = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
            assert np.all(np.abs(gelu(x) - pow_form) <= 4 * np.spacing(np.abs(x)))

    def test_negative_zero_keeps_its_sign(self):
        out = gelu(np.array([-0.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        np.testing.assert_array_equal(np.signbit(out), [True, False])

    def test_does_not_write_to_its_argument(self, rng):
        x = rng.standard_normal((4, 8))
        before = x.copy()
        gelu(x)
        np.testing.assert_array_equal(x, before)


class TestGeglu:
    def test_is_value_times_gelu_gate(self):
        value = np.array([2.0, -1.0])
        gate = np.array([1.0, 3.0])
        np.testing.assert_allclose(geglu(value, gate), value * gelu(gate))

    def test_zero_gate_kills_output(self):
        value = np.array([100.0])
        np.testing.assert_allclose(geglu(value, np.array([0.0])), [0.0])


class TestSiluRelu:
    def test_silu_at_zero(self):
        assert silu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_silu_saturates_to_identity(self):
        assert silu(np.array([20.0]))[0] == pytest.approx(20.0, rel=1e-6)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 9))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), np.ones(4))

    def test_invariant_to_shift(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_handles_large_values(self):
        x = np.array([[1000.0, 1000.0]])
        np.testing.assert_allclose(softmax(x), [[0.5, 0.5]])

    def test_axis_zero(self, rng):
        x = rng.standard_normal((6, 3))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), np.ones(3))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_output_in_simplex(self, values):
        probs = softmax(np.array(values))
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0)
