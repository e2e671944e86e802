"""Activation functions used by the diffusion substrate.

The FFN-Reuse algorithm (paper Section III-A) keys off the output of the
non-linear layer between the two FFN linears, which in the benchmark models
is GELU or GEGLU. Both are implemented here along with the other
non-linearities the networks need.
"""

from __future__ import annotations

import numpy as np

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation).

    The tanh form is what the benchmark diffusion models ship with and is
    numerically close enough to the erf form that the FFN-Reuse bitmask is
    unaffected. The definition, operation for operation, is ::

        0.5 * x * (1.0 + tanh(sqrt(2 / pi) * (x + 0.044715 * (x * x * x))))

    with the cube by multiplication: a libm ``pow`` per element costs ten
    times the rest of the expression. It is evaluated in place on a
    fresh array, every step being the expression's own operation or its
    commuted form, so the two are bit-equal
    (``tests/models/test_activations.py``).
    """
    x = np.asarray(x, dtype=np.float64)
    # ``out=`` keeps a 0-d input an array for the in-place steps below.
    y = np.multiply(x, x, out=np.empty_like(x))
    y *= x
    y *= 0.044715
    y += x
    y *= _SQRT_2_OVER_PI
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def geglu(x: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """GEGLU variant: ``x * gelu(gate)`` (Shazeer, 2020).

    Stable Diffusion's transformer blocks use GEGLU in place of plain GELU;
    the first FFN linear produces both ``x`` and ``gate`` halves.
    """
    return np.asarray(x, dtype=np.float64) * gelu(gate)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish, used inside ResBlocks."""
    x = np.asarray(x, dtype=np.float64)
    return x / (1.0 + np.exp(-x))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)
