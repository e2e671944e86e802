"""Convolutional ResBlock for Type-2 (UNet-with-ResBlock) networks.

Stable Diffusion, Make-an-Audio and VideoCrafter2 interleave ResBlocks with
transformer blocks. EXION applies no sparsity optimization to them (paper
Section V-C notes the resulting efficiency drop), so the reproduction needs
them both for correctness of the substrate and for the Fig. 18/19 shapes.
"""

from __future__ import annotations

import numpy as np

from repro.models.activations import silu


class Conv2d:
    """3x3 same-padding convolution via im2col, without a bias (as
    :class:`~repro.models.linear.Linear`)."""

    kernel_size = 3

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
    ) -> None:
        self.in_channels = in_channels
        self.out_channels = out_channels
        kernel_size = self.kernel_size
        fan_in = in_channels * kernel_size * kernel_size
        bound = float(np.sqrt(6.0 / (fan_in + out_channels)))
        # Stored as the (dy, dx, c) x out matrix the im2col product reads;
        # ``weight`` is the (out, c, k, k) view of the same memory.
        self._w_mat = np.empty((in_channels * kernel_size**2, out_channels))
        self.weight = rng.uniform(
            -bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
        )

    @property
    def weight(self) -> np.ndarray:
        k = self.kernel_size
        mat = self._w_mat.reshape(k, k, self.in_channels, self.out_channels)
        return mat.transpose(3, 2, 0, 1)

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        self.weight[...] = value

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to ``(channels, height, width)`` input, or to a stack
        ``(batch, channels, height, width)`` of them (one im2col, one
        GEMM per map: each map's output is what its own call returns)."""
        *batch, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        k = self.kernel_size
        pad = k // 2
        padded = np.zeros((*batch, c, h + 2 * pad, w + 2 * pad))
        padded[..., pad : pad + h, pad : pad + w] = x
        # im2col: (c*k*k, h*w), rows in (dy, dx, c) order like ``_w_mat``
        cols = np.empty((*batch, c * k * k, h * w))
        patches = cols.reshape(*batch, k, k, c, h, w)
        for dy in range(k):
            for dx in range(k):
                patches[..., dy, dx, :, :, :] = padded[
                    ..., dy : dy + h, dx : dx + w
                ]
        out = np.matmul(self._w_mat.T, cols)
        return out.reshape(*batch, self.out_channels, h, w)


class GroupNorm:
    """Group normalization over channel groups of a ``(c, h, w)`` map
    (or of each map in a ``(batch, c, h, w)`` stack), without a learned
    scale or shift, as :class:`~repro.models.norm.LayerNorm`."""

    eps = 1e-5

    def __init__(self, channels: int) -> None:
        self.channels = channels
        # Eight groups where they divide the channels, else one.
        self.groups = 8 if channels % 8 == 0 else 1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        *batch, c, h, w = x.shape
        grouped = x.reshape(*batch, self.groups, c // self.groups, h, w)
        # np.mean / np.var term for term, sharing the one centred array.
        axes, count = (-3, -2, -1), (c // self.groups) * h * w
        mean = np.add.reduce(grouped, axis=axes, keepdims=True) / count
        centered = grouped - mean
        var = np.add.reduce(centered * centered, axis=axes, keepdims=True) / count
        centered /= np.sqrt(var + self.eps)
        return centered.reshape(x.shape)


class ResBlock:
    """GroupNorm -> SiLU -> Conv, timestep injection, second conv, skip."""

    def __init__(
        self, channels: int, timestep_dim: int, rng: np.random.Generator
    ) -> None:
        self.channels = channels
        self.norm1 = GroupNorm(channels)
        self.conv1 = Conv2d(channels, channels, rng)
        bound = float(np.sqrt(6.0 / (timestep_dim + channels)))
        self.time_proj = rng.uniform(-bound, bound, size=(timestep_dim, channels))
        self.norm2 = GroupNorm(channels)
        self.conv2 = Conv2d(channels, channels, rng)

    def __call__(self, x: np.ndarray, t_embed: np.ndarray) -> np.ndarray:
        """One ``(c, h, w)`` map with its ``(timestep_dim,)`` embedding,
        or a ``(batch, c, h, w)`` stack with ``(batch, timestep_dim)``."""
        h = self.conv1(silu(self.norm1(x)))
        # One vector-matrix product per map: a stacked
        # (batch, t_dim) @ (t_dim, c) GEMM rounds differently.
        shift = np.matmul(t_embed[..., None, :], self.time_proj)
        h = h + shift[..., 0, :, None, None]
        h = self.conv2(silu(self.norm2(h)))
        return x + h
