"""Unit tests for the feed-forward network."""

import numpy as np
import pytest

from repro.models.activations import gelu, geglu
from repro.models.ffn import FeedForward


class TestFeedForward:
    def test_output_shape(self, rng):
        ffn = FeedForward(8, 32, rng)
        x = rng.standard_normal((5, 8))
        assert ffn(x).shape == (5, 8)
        assert ffn.nonlinear(ffn.linear1(x)).shape == (5, 32)

    def test_matches_manual_gelu_path(self, rng):
        ffn = FeedForward(4, 16, rng)
        x = rng.standard_normal((3, 4))
        hidden = gelu(ffn.linear1(x))
        expected = ffn.linear2(hidden)
        np.testing.assert_allclose(ffn(x), expected)
        np.testing.assert_allclose(ffn.nonlinear(ffn.linear1(x)), hidden)

    def test_geglu_first_linear_is_doubled(self, rng):
        ffn = FeedForward(4, 16, rng, activation="geglu")
        assert ffn.linear1.out_features == 32
        x = rng.standard_normal((3, 4))
        assert ffn(x).shape == (3, 4)
        assert ffn.nonlinear(ffn.linear1(x)).shape == (3, 16)

    def test_geglu_matches_manual(self, rng):
        ffn = FeedForward(4, 8, rng, activation="geglu")
        x = rng.standard_normal((2, 4))
        pre = ffn.linear1(x)
        value, gate = np.split(pre, 2, axis=-1)
        expected = ffn.linear2(geglu(value, gate))
        np.testing.assert_allclose(ffn(x), expected)

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError, match="unsupported"):
            FeedForward(4, 8, rng, activation="relu6")

    def test_executor_hook_overrides(self, rng):
        ffn = FeedForward(4, 8, rng)

        def executor(layer, x):
            return np.ones_like(x)

        out = ffn(rng.standard_normal((3, 4)), executor=executor)
        np.testing.assert_array_equal(out, np.ones((3, 4)))
