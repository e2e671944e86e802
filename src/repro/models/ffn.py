"""Feed-forward network with an injectable execution strategy.

The FFN is the dominant compute in diffusion transformer blocks (paper
Fig. 4, up to 67% of operations), and the FFN-Reuse algorithm replaces its
execution across iterations via the ``executor`` hook. The layer and every
executor return the output alone; a caller that wants the non-linearity
output puts a recording executor on the hook
(:meth:`repro.models.pipeline.DiffusionPipeline.ffn_hidden_states`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.models.activations import geglu, gelu
from repro.models.linear import Linear


FFNExecutor = Callable[["FeedForward", np.ndarray], np.ndarray]


class FeedForward:
    """Two-linear FFN with GELU or GEGLU in between.

    For ``activation="geglu"`` the first linear produces ``2 * hidden_dim``
    features (value and gate halves), matching Stable Diffusion's blocks.
    """

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        activation: str = "gelu",
    ) -> None:
        if activation not in ("gelu", "geglu"):
            raise ValueError(f"unsupported FFN activation: {activation!r}")
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.activation = activation
        first_out = 2 * hidden_dim if activation == "geglu" else hidden_dim
        self.linear1 = Linear(dim, first_out, rng)
        self.linear2 = Linear(hidden_dim, dim, rng)

    def __call__(
        self, x: np.ndarray, executor: Optional[FFNExecutor] = None
    ) -> np.ndarray:
        if executor is not None:
            return executor(self, x)
        return self.forward_exact(x)

    def nonlinear(self, pre: np.ndarray) -> np.ndarray:
        """Apply the configured non-linearity to the first linear's output."""
        if self.activation == "geglu":
            value, gate = np.split(pre, 2, axis=-1)
            return geglu(value, gate)
        return gelu(pre)

    def forward_exact(self, x: np.ndarray) -> np.ndarray:
        """Dense reference FFN."""
        return self.linear2(self.nonlinear(self.linear1(x)))
