"""Multi-head attention with an injectable execution strategy.

The exact path computes QKV projection, scaled dot-product attention and the
output projection densely. EXION's eager-prediction algorithm replaces the
inner computation via the ``executor`` hook without the layer itself knowing
about sparsity (paper Fig. 3 (b), Section II-B). The layer and every
executor return the output alone; skip statistics go to the executor's own
:class:`repro.core.sparsity.RunStats`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.models.activations import softmax
from repro.models.linear import Linear

# An executor receives the layer plus activations and returns the layer's
# output. It owns the whole attention computation.
AttentionExecutor = Callable[
    ["MultiHeadAttention", np.ndarray, Optional[np.ndarray]], np.ndarray
]


class MultiHeadAttention:
    """Multi-head (self or cross) attention.

    Parameters
    ----------
    dim:
        Model width; also the output width.
    num_heads:
        Head count; ``dim`` must be divisible by it.
    rng:
        Source of weight initialization randomness.
    context_dim:
        Width of the cross-attention context. ``None`` means self-attention.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        context_dim: Optional[int] = None,
    ) -> None:
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.context_dim = context_dim if context_dim is not None else dim
        self.scale = 1.0 / float(np.sqrt(self.head_dim))

        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(self.context_dim, dim, rng)
        self.wv = Linear(self.context_dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def split_heads(self, x: np.ndarray) -> np.ndarray:
        """Reshape ``(..., tokens, dim)`` into ``(..., heads, tokens,
        head_dim)`` (a strided view; any leading batch shape)."""
        return x.reshape(*x.shape[:-1], self.num_heads, self.head_dim).swapaxes(-2, -3)

    def merge_heads(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`split_heads`."""
        return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], self.dim)

    def kv(self, kv_input: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Head-split exact K and V of ``(..., tokens, context_dim)``."""
        return self.split_heads(self.wk(kv_input)), self.split_heads(self.wv(kv_input))

    def attend(self, x: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Dense attention of ``x`` over head-split ``k``/``v`` (from
        :meth:`kv`). Every leading batch row is what its own 2-D call
        returns."""
        q = self.split_heads(self.wq(x))
        scores = np.matmul(q, k.swapaxes(-1, -2)) * self.scale
        probs = softmax(scores, axis=-1)
        return self.wo(self.merge_heads(np.matmul(probs, v)))

    def __call__(
        self,
        x: np.ndarray,
        context: Optional[np.ndarray] = None,
        executor: Optional[AttentionExecutor] = None,
    ) -> np.ndarray:
        """Run the layer, optionally through a sparsity-aware executor."""
        if executor is not None:
            return executor(self, x, context)
        return self.forward_exact(x, context)

    def forward_exact(
        self, x: np.ndarray, context: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Dense reference attention (the paper's "vanilla" path)."""
        return self.attend(x, *self.kv(x if context is None else context))
