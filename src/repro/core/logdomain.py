"""Log-domain arithmetic for eager prediction (paper Fig. 5 (a), Fig. 15).

The eager-prediction engine approximates integers by the position of their
leading-one bit, turning multiplications into additions plus shifts.
EXION's improvement, two-step leading-one detection (TS-LOD), keeps the two
most significant set bits, which halves the worst-case approximation error at
the cost of quadrupling the addition operands (which the hardware absorbs
with one-hot OR-gate adder trees).

Functions operate on integer arrays; :func:`quantize_symmetric` maps float
activations into the INT range the hardware datapath uses.

:func:`approximate` is the definition. A ``bits``-wide operand takes at
most ``2 * qmax + 1`` values, so the prediction path reads
:func:`approximation_table` — ``approximate`` run once over that range
per ``(mode, bits)`` — and an operand costs one quantization plus one
``take``, as the EPRE does TS-LOD in combinational logic (Fig. 15).
"""

from __future__ import annotations

import functools
import math

import numpy as np


def quantize_symmetric(x: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Symmetric linear quantization to signed ``bits``-wide integers.

    Returns the integer array and the scale such that ``x ~= ints * scale``.
    """
    if not 2 <= bits <= 32:
        raise ValueError("bits must be in [2, 32]")
    x = np.asarray(x, dtype=np.float64)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if not math.isfinite(max_abs):
        raise ValueError("non-finite operand: x contains NaN or inf")
    qmax = (1 << (bits - 1)) - 1
    if max_abs == 0.0:
        return np.zeros_like(x, dtype=np.int64), 1.0
    scale = max_abs / qmax
    # ``out=`` keeps a 0-d operand an array for the in-place rounding.
    return _round_clip(np.divide(x, scale, out=np.empty_like(x)), qmax), scale


def _round_clip(q: np.ndarray, qmax: int) -> np.ndarray:
    """``np.clip(np.round(q), -qmax, qmax)`` as int64, in place on ``q``."""
    np.rint(q, out=q)
    np.minimum(q, qmax, out=q)
    np.maximum(q, -qmax, out=q)
    return q.astype(np.int64)


def leading_one_position(x: np.ndarray) -> np.ndarray:
    """Bit position of the leading one of ``|x|``; -1 where ``x == 0``.

    Position 0 is the least-significant bit, so ``leading_one_position(8)``
    is 3 (``1000``), matching the paper's MSB-first detection.
    """
    mags = np.abs(np.asarray(x, dtype=np.int64))
    # frexp's exponent is exact for |x| < 2**53 and is 0 at 0.
    return np.frexp(mags.astype(np.float64))[1].astype(np.int64) - 1


def lod_approximate(x: np.ndarray) -> np.ndarray:
    """One-step LOD: ``x`` approximated as ``sign(x) * 2**leading_one``.

    This is the original eager-prediction approximation (FACT), which the
    paper shows loses too much accuracy on diffusion models (PSNR 11.8 on
    DiT, Fig. 15).
    """
    x = np.asarray(x, dtype=np.int64)
    pos = leading_one_position(x)
    approx = np.where(pos >= 0, np.left_shift(1, np.maximum(pos, 0)), 0)
    return np.sign(x) * approx


def ts_lod_approximate(x: np.ndarray) -> np.ndarray:
    """Two-step LOD: keep the two most significant set bits of ``|x|``.

    The paper's improvement (Section IV-D): after detecting the leading
    one, clear it and detect once more, approximating ``x`` as
    ``sign(x) * (2**p1 + 2**p2)``.
    """
    x = np.asarray(x, dtype=np.int64)
    mags = np.abs(x)
    p1 = leading_one_position(mags)
    first = np.where(p1 >= 0, np.left_shift(1, np.maximum(p1, 0)), 0)
    remainder = mags - first
    p2 = leading_one_position(remainder)
    second = np.where(p2 >= 0, np.left_shift(1, np.maximum(p2, 0)), 0)
    return np.sign(x) * (first + second)


def approximate(x: np.ndarray, mode: str) -> np.ndarray:
    """Dispatch on the prediction mode (``lod`` / ``ts_lod`` / ``exact``)."""
    if mode == "lod":
        return lod_approximate(x)
    if mode == "ts_lod":
        return ts_lod_approximate(x)
    if mode == "exact":
        return np.asarray(x, dtype=np.int64)
    raise ValueError(f"unknown log-domain mode {mode!r}")


@functools.lru_cache(maxsize=None)
def approximation_table(mode: str, bits: int) -> np.ndarray:
    """``approximate(i, mode)`` as float64 for every ``bits``-wide integer.

    Entry ``i + qmax`` approximates ``i`` in ``[-qmax, qmax]``. Built once
    per ``(mode, bits)`` and read-only: every caller shares it.
    """
    if not 2 <= bits <= 16:
        raise ValueError("prediction_bits must be in [2, 16]")
    qmax = (1 << (bits - 1)) - 1
    table = approximate(np.arange(-qmax, qmax + 1), mode).astype(np.float64)
    table.flags.writeable = False
    return table


def quantize_symmetric_batched(
    x: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample symmetric quantization over the leading (batch) axis.

    Each slice ``x[b]`` is quantized with its own scale, exactly as if
    :func:`quantize_symmetric` had been called on it alone — the property
    the batched serving path relies on to keep per-request results
    identical to sequential runs. Returns ``(ints, scales)`` with
    ``scales`` of shape ``(batch,)``.
    """
    if not 2 <= bits <= 32:
        raise ValueError("bits must be in [2, 32]")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("need at least a (batch, ...) array")
    batch = x.shape[0]
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    # Each request's scale is a Python float, as quantize_symmetric's: a
    # batch of one pays for no per-request array arithmetic.
    max_abs = [0.0] * batch
    if x.size:
        max_abs = np.maximum.reduce(np.abs(x).reshape(batch, -1), axis=1).tolist()
    if not all(map(math.isfinite, max_abs)):
        raise ValueError("non-finite operand: x contains NaN or inf")
    qmax = (1 << (bits - 1)) - 1
    scales = np.array([m / qmax if m else 1.0 for m in max_abs])
    return _round_clip(x / scales[expand], qmax), scales


class LogOperand:
    """Plan-time half of a log-domain matmul operand.

    Quantizing and LOD-approximating an operand is a pure function of its
    values and the ``(mode, bits)`` pair, so an operand reused across many
    matmuls — a weight matrix, or an activation multiplied against several
    weights — can be prepared once and replayed. ``prepare_log_operand``
    performs exactly the per-call operand work of
    :func:`log_domain_matmul`, so prepared and unprepared paths cannot
    drift.
    """

    __slots__ = ("approx", "scale")

    def __init__(self, approx: np.ndarray, scale: float) -> None:
        self.approx = approx
        self.scale = scale


def prepare_log_operand(
    x: np.ndarray, mode: str = "ts_lod", bits: int = 12
) -> LogOperand:
    """Quantize + LOD-approximate one matmul operand (cacheable)."""
    table = approximation_table(mode, bits)
    ints, scale = quantize_symmetric(x, bits)
    ints += table.size // 2  # index i + qmax; quantization clips to +-qmax
    return LogOperand(table.take(ints), scale)


def log_domain_matmul_prepared(a: LogOperand, b: LogOperand) -> np.ndarray:
    """Step-time half: multiply two prepared operands and rescale."""
    out = a.approx @ b.approx
    out *= a.scale * b.scale
    return out


def log_domain_matmul(
    a: np.ndarray,
    b: np.ndarray,
    mode: str = "ts_lod",
    bits: int = 12,
) -> np.ndarray:
    """Approximate ``a @ b`` the way the EPRE computes predictions.

    Both float operands are quantized to ``bits``-wide integers, each
    integer is approximated to its LOD / TS-LOD power-of-two form (so a
    hardware multiply becomes shift-and-OR), and the products are
    accumulated exactly. The result is rescaled back to the float domain.

    The numerical output equals what the shift-based hardware produces;
    only the execution strategy differs.
    """
    return log_domain_matmul_prepared(
        prepare_log_operand(a, mode, bits), prepare_log_operand(b, mode, bits)
    )
