"""Pure-numpy diffusion-model substrate.

Implements the three network types of the paper's Figure 3:

- Type 1: UNet-style network without ResBlocks (e.g. MLD),
- Type 2: UNet with ResBlocks (e.g. Stable Diffusion, Make-an-Audio),
- Type 3: transformer-block-only network (e.g. DiT, MDM).

All layers are deterministic given a seed and expose plain ``__call__``
interfaces over ``numpy.ndarray`` activations.
"""

from repro.models.activations import gelu, geglu, silu, softmax
from repro.models.attention import MultiHeadAttention
from repro.models.ffn import FeedForward
from repro.models.linear import Linear
from repro.models.network import DiffusionNetwork, NetworkType
from repro.models.norm import LayerNorm
from repro.models.pipeline import DiffusionPipeline
from repro.models.resblock import Conv2d, ResBlock
from repro.models.scheduler import (
    DDIMScheduler,
    DPMSolverPP2MScheduler,
)
from repro.models.transformer import TransformerBlock
from repro.models.zoo import BENCHMARK_MODELS, ModelSpec, build_model

__all__ = [
    "BENCHMARK_MODELS",
    "Conv2d",
    "DDIMScheduler",
    "DPMSolverPP2MScheduler",
    "DiffusionNetwork",
    "DiffusionPipeline",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "ModelSpec",
    "MultiHeadAttention",
    "NetworkType",
    "ResBlock",
    "TransformerBlock",
    "build_model",
    "geglu",
    "gelu",
    "silu",
    "softmax",
]
