"""Dense linear layer over numpy arrays."""

from __future__ import annotations

import numpy as np


class Linear:
    """Linear map ``y = x @ W`` with Xavier-uniform weights.

    Weights are stored as ``(in_features, out_features)`` so that activations
    of shape ``(tokens, in_features)`` multiply directly, matching the
    MMUL orientation the paper's hardware tiles over (rows = tokens,
    columns = output features). No bias: the synthetic networks train none,
    and the product, whose accumulators start at +0.0, never emits the
    -0.0 a zero bias would flip.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        bound = float(np.sqrt(6.0 / (in_features + out_features)))
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.uniform(-bound, bound, size=(in_features, out_features))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        return x @ self.weight

    def macs(self, tokens: int) -> int:
        """Multiply-accumulate count for a ``(tokens, in)`` input."""
        return tokens * self.in_features * self.out_features
