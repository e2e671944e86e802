"""Convolutional ResBlock for Type-2 (UNet-with-ResBlock) networks.

Stable Diffusion, Make-an-Audio and VideoCrafter2 interleave ResBlocks with
transformer blocks. EXION applies no sparsity optimization to them (paper
Section V-C notes the resulting efficiency drop), so the reproduction needs
them both for correctness of the substrate and for the Fig. 18/19 shapes.
"""

from __future__ import annotations

import functools

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
        GEMM per map: each map's output is what its own call returns).
        im2col is one ``take`` through :func:`im2col_index` from a copy
        of the map behind one zero, which stands for the padding."""
        *batch, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        flat = np.zeros((*batch, 1 + c * h * w))
        flat[..., 1:].reshape(x.shape)[...] = x  # a view: splits the last axis
        cols = flat.take(im2col_index(c, h, w), axis=-1)  # rows as ``_w_mat``
        out = np.matmul(self._w_mat.T, cols)
        return out.reshape(*batch, self.out_channels, h, w)


@functools.lru_cache(maxsize=None)
def im2col_index(c: int, h: int, w: int) -> np.ndarray:
    """:class:`Conv2d`'s ``(c*9, h*w)`` patch gather, read-only and shared
    per ``(c, h, w)``: row ``(dy, dx, ci)``, column ``(y, x)`` holds 1 +
    the flat index of ``(ci, y+dy-1, x+dx-1)``, or 0 outside the map."""
    dy, dx, ci, y, x = np.ogrid[-1:2, -1:2, :c, :h, :w]
    y, x = y + dy, x + dx
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    index = np.where(inside, 1 + (ci * h + y) * w + x, 0).reshape(-1, h * w)
    index.flags.writeable = False
    return index


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
