"""Normalization layers."""

from __future__ import annotations

import numpy as np


class LayerNorm:
    """Layer normalization over the last axis with learned scale/shift."""

    eps = 1e-5

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("LayerNorm dim must be positive")
        self.dim = dim
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected last dim {self.dim}, got {x.shape[-1]}")
        # np.mean / np.var term for term, sharing the one centred array.
        mean = np.add.reduce(x, axis=-1, keepdims=True) / self.dim
        centered = x - mean
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / self.dim
        return self.gamma * centered / np.sqrt(var + self.eps) + self.beta


class AdaLNModulation:
    """DiT-style adaptive layer-norm modulation.

    Produces per-block ``(shift, scale, gate)`` from the timestep embedding,
    which is how DiT conditions its transformer blocks on the iteration
    index. Modelled because the EXION paper's inter-iteration redundancy
    analysis (Fig. 7) is run on DiT, whose activations drift with ``t``
    through exactly this path.
    """

    def __init__(self, embed_dim: int, dim: int, rng: np.random.Generator) -> None:
        bound = float(np.sqrt(6.0 / (embed_dim + 3 * dim)))
        self.dim = dim
        self.weight = rng.uniform(-bound, bound, size=(embed_dim, 3 * dim))

    def __call__(self, t_embed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raw = np.asarray(t_embed, dtype=np.float64) @ self.weight
        shift = raw[..., : self.dim]
        scale = raw[..., self.dim : 2 * self.dim]
        gate = raw[..., 2 * self.dim :]
        return shift, np.tanh(scale), 1.0 + 0.1 * np.tanh(gate)
