"""Unit tests for Conv2d / GroupNorm / ResBlock."""

import numpy as np
import pytest

from repro.models.resblock import Conv2d, GroupNorm, ResBlock, im2col_index


class TestConv2d:
    def test_output_shape_same_padding(self, rng):
        conv = Conv2d(3, 5, rng)
        out = conv(rng.standard_normal((3, 8, 8)))
        assert out.shape == (5, 8, 8)

    def test_matches_naive_convolution(self, rng):
        conv = Conv2d(2, 3, rng)
        x = rng.standard_normal((2, 5, 5))
        out = conv(x)
        # Naive direct convolution at an interior point.
        r, cidx = 2, 3
        for oc in range(3):
            acc = 0.0
            for ic in range(2):
                for dy in range(3):
                    for dx in range(3):
                        acc += (
                            conv.weight[oc, ic, dy, dx]
                            * x[ic, r + dy - 1, cidx + dx - 1]
                        )
            assert out[oc, r, cidx] == pytest.approx(acc)

    def test_kernel_is_3x3(self, rng):
        assert Conv2d(2, 5, rng).weight.shape == (5, 2, 3, 3)

    def test_rejects_wrong_channels(self, rng):
        conv = Conv2d(3, 3, rng)
        with pytest.raises(ValueError, match="channels"):
            conv(np.zeros((2, 4, 4)))

    @staticmethod
    def _pad_formulation(conv, x):
        """The ``np.pad`` + per-call weight reshape it replaced."""
        c, h, w = x.shape
        k = conv.kernel_size
        padded = np.pad(x, ((0, 0), (k // 2, k // 2), (k // 2, k // 2)))
        cols = np.empty((c * k * k, h * w))
        idx = 0
        for dy in range(k):
            for dx in range(k):
                patch = padded[:, dy : dy + h, dx : dx + w]
                cols[idx * c : (idx + 1) * c] = patch.reshape(c, h * w)
                idx += 1
        w_mat = conv.weight.transpose(2, 3, 1, 0).reshape(c * k * k, conv.out_channels)
        out = w_mat.T @ cols
        return out.reshape(conv.out_channels, h, w)

    @pytest.mark.parametrize("channels", [(6, 4), (1, 1), (3, 8)])
    def test_byte_equal_to_pad_formulation(self, rng, channels):
        c_in, c_out = channels
        conv = Conv2d(c_in, c_out, rng)
        for x in (rng.standard_normal((c_in, 4, 4)),
                  rng.standard_normal((c_in, 5, 7)),
                  rng.standard_normal((7, 5, c_in)).transpose(2, 1, 0)):
            assert conv(x).tobytes() == self._pad_formulation(conv, x).tobytes()

    def test_weight_draw_and_writes_reach_the_hoisted_matrix(self, rng):
        """``weight`` is a view of the matrix the product reads, so the
        quantizer's reassignment and an in-place edit both take effect."""
        seed_rng = np.random.default_rng(7)
        conv = Conv2d(3, 5, np.random.default_rng(7))
        bound = float(np.sqrt(6.0 / (3 * 9 + 5)))
        np.testing.assert_array_equal(
            conv.weight, seed_rng.uniform(-bound, bound, size=(5, 3, 3, 3))
        )
        x = rng.standard_normal((3, 4, 4))
        conv.weight = np.round(conv.weight, 1)
        assert conv(x).tobytes() == self._pad_formulation(conv, x).tobytes()
        assert np.all(conv.weight == np.round(conv.weight, 1))
        conv.weight[:] = 0.0
        np.testing.assert_array_equal(conv(x), np.zeros((5, 4, 4)))


class TestIm2colGather:
    """The one-``take`` im2col against the zero pad and nine strided
    slice copies it replaced."""

    @staticmethod
    def _nine_slices(conv, x):
        *batch, c, h, w = x.shape
        k = conv.kernel_size
        padded = np.zeros((*batch, c, h + 2, w + 2))
        padded[..., 1 : 1 + h, 1 : 1 + w] = x
        cols = np.empty((*batch, c * k * k, h * w))
        patches = cols.reshape(*batch, k, k, c, h, w)
        for dy in range(k):
            for dx in range(k):
                patches[..., dy, dx, :, :, :] = padded[..., dy : dy + h, dx : dx + w]
        out = np.matmul(conv._w_mat.T, cols)
        return out.reshape(*batch, conv.out_channels, h, w)

    @pytest.mark.parametrize("side", (1, 2, 4))
    @pytest.mark.parametrize("batch", ((), (1,), (3,)))
    def test_byte_equal_to_nine_slice_im2col(self, rng, side, batch):
        conv = Conv2d(16, 8, rng)
        x = rng.standard_normal((*batch, 16, side, side))
        strided = np.swapaxes(rng.standard_normal((*batch, 16, side, side)), -1, -2)
        for operand in (x, strided, -np.zeros_like(x)):
            got = conv(operand)
            assert got.shape == (*batch, 8, side, side)
            assert got.tobytes() == self._nine_slices(conv, operand).tobytes()

    def test_index_is_shared_read_only_and_built_once_per_shape(self, rng):
        shape = (5, 3, 2)  # a shape no other test convolves
        before = im2col_index.cache_info()
        first, second = Conv2d(5, 2, rng), Conv2d(5, 4, rng)
        first(rng.standard_normal(shape))
        second(rng.standard_normal((2, *shape)))
        after = im2col_index.cache_info()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1
        index = im2col_index(*shape)
        assert index is im2col_index(*shape)
        assert index.shape == (5 * 9, 3 * 2)
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 1


class TestGroupNorm:
    def test_normalizes_groups(self, rng):
        norm = GroupNorm(16)
        assert norm.groups == 8
        out = norm(rng.standard_normal((16, 4, 4)) * 3 + 1)
        grouped = out.reshape(8, 2, 4, 4)
        np.testing.assert_allclose(
            grouped.mean(axis=(1, 2, 3)), np.zeros(8), atol=1e-10
        )

    @pytest.mark.parametrize("channels", [7, 12])
    def test_falls_back_to_single_group(self, channels):
        assert GroupNorm(channels).groups == 1  # not divisible by 8

    def test_byte_equal_to_mean_var_formulation(self, rng):
        norm = GroupNorm(16)
        inputs = {
            "map": rng.standard_normal((16, 4, 4)) * 3 + 1,
            "rect": rng.standard_normal((16, 3, 5)),
            "transposed": rng.standard_normal((4, 4, 16)).T,
            "constant": np.full((16, 2, 2), -2.0),
        }
        for name, x in inputs.items():
            grouped = x.reshape(8, 2, *x.shape[1:])
            mean = grouped.mean(axis=(1, 2, 3), keepdims=True)
            var = grouped.var(axis=(1, 2, 3), keepdims=True)
            expected = ((grouped - mean) / np.sqrt(var + norm.eps)).reshape(x.shape)
            assert norm(x).tobytes() == expected.tobytes(), name


class TestResBlock:
    def test_shape_preserved(self, rng):
        block = ResBlock(channels=4, timestep_dim=8, rng=rng)
        x = rng.standard_normal((4, 6, 6))
        out = block(x, rng.standard_normal(8))
        assert out.shape == (4, 6, 6)

    def test_residual_path_present(self, rng):
        """Zeroing both convs leaves the identity."""
        block = ResBlock(4, 8, rng)
        block.conv1.weight[:] = 0.0
        block.conv2.weight[:] = 0.0
        block.time_proj[:] = 0.0
        x = rng.standard_normal((4, 6, 6))
        np.testing.assert_allclose(block(x, np.zeros(8)), x)

    def test_timestep_injection_changes_output(self, rng):
        block = ResBlock(4, 8, rng)
        x = rng.standard_normal((4, 6, 6))
        out1 = block(x, np.ones(8))
        out2 = block(x, -np.ones(8))
        assert not np.allclose(out1, out2)


class TestLeadingBatch:
    """A ``(batch, c, h, w)`` stack gives each map the bytes of its own
    3-D call: the batched engine's ResBlock stage rests on this."""

    @pytest.mark.parametrize("batch", (1, 3, 8))
    @pytest.mark.parametrize("side", (2, 3, 4))
    def test_conv_groupnorm_resblock_match_the_per_map_calls(
        self, rng, batch, side
    ):
        x = rng.standard_normal((batch, 64, side, side))
        t_embed = rng.standard_normal((batch, 64))
        conv, norm, block = Conv2d(64, 64, rng), GroupNorm(64), ResBlock(64, 64, rng)
        for stacked, per_map in (
            (conv(x), [conv(m) for m in x]),
            (norm(x), [norm(m) for m in x]),
            (block(x, t_embed), [block(m, t) for m, t in zip(x, t_embed)]),
        ):
            assert stacked.shape == x.shape
            assert stacked.tobytes() == np.stack(per_map).tobytes()

    def test_rejects_wrong_channels_in_a_stack(self, rng):
        with pytest.raises(ValueError, match="channels"):
            Conv2d(3, 3, rng)(np.zeros((2, 4, 5, 5)))
