"""Unit tests for normalization layers."""

import numpy as np
import pytest

from repro.models.norm import AdaLNModulation, LayerNorm


class TestLayerNorm:
    def test_output_has_zero_mean_unit_var(self, rng):
        norm = LayerNorm(16)
        out = norm(rng.standard_normal((4, 16)) * 5 + 3)
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(4), atol=1e-3)

    def test_gamma_beta_applied(self, rng):
        norm = LayerNorm(8)
        norm.gamma = np.full(8, 2.0)
        norm.beta = np.full(8, 1.0)
        out = norm(rng.standard_normal((3, 8)))
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(3), atol=1e-10)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            LayerNorm(8)(np.zeros((2, 9)))

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            LayerNorm(0)

    def test_constant_input_is_stable(self):
        out = LayerNorm(4)(np.full((2, 4), 7.0))
        assert np.all(np.isfinite(out))

    def test_byte_equal_to_mean_var_formulation(self, rng):
        """The single-pass form must not move a bit: the oracle and the
        engines share this kernel, so every committed digest rides on it."""
        norm = LayerNorm(64)
        norm.gamma = rng.standard_normal(64)
        norm.beta = rng.standard_normal(64)
        wide = rng.standard_normal((16, 128)) * 5 + 3
        inputs = {
            "2d": rng.standard_normal((16, 64)) * 5 + 3,
            "3d": rng.standard_normal((8, 16, 64)),
            "1d": rng.standard_normal(64),
            "strided": wide[:, ::2],
            "transposed": rng.standard_normal((64, 16)).T,
            "constant": np.full((4, 64), 7.0),
            "tiny": rng.standard_normal((4, 64)) * 1e-200,
        }
        for name, x in inputs.items():
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            expected = norm.gamma * (x - mean) / np.sqrt(var + norm.eps) + norm.beta
            assert norm(x).tobytes() == expected.tobytes(), name


class TestAdaLN:
    def test_shapes(self, rng):
        mod = AdaLNModulation(embed_dim=16, dim=8, rng=rng)
        shift, scale, gate = mod(rng.standard_normal(16))
        assert shift.shape == (8,)
        assert scale.shape == (8,)
        assert gate.shape == (8,)

    def test_scale_bounded(self, rng):
        mod = AdaLNModulation(16, 8, rng)
        _, scale, gate = mod(rng.standard_normal(16) * 100)
        assert np.all(np.abs(scale) <= 1.0)
        assert np.all(gate > 0.0)

    def test_varies_with_timestep_embedding(self, rng):
        mod = AdaLNModulation(16, 8, rng)
        s1, _, _ = mod(np.zeros(16) + 1.0)
        s2, _, _ = mod(np.zeros(16) - 1.0)
        assert not np.allclose(s1, s2)
