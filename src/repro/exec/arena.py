"""Reusable scratch buffers for the compiled executors' step loops.

The compiled step kernels allocate the same handful of dense scratch
arrays every denoising iteration — the scatter target overlaying the
dense hidden state, the masked-update operand, the continuous
executor's per-tick latent and membership restack buffers. Their shapes
are fixed per ``(plan, batch shape)``, so an :class:`ExecArena` hands
the same buffer back on every iteration instead of paying an allocation
+ page-fault per step.

The reuse invariant: **arena buffers are transient within one kernel
call** — each buffer is fully overwritten before it is read (``copyto``,
``out=``) and nothing the kernel returns aliases it — except
the continuous executor's membership-restack buffers, which stay valid
until the *next* index-set edit and are never stack sources themselves
(per-run FFN slices always view the dense compile's arrays, never a
restack output). Under that invariant the arithmetic is
expression-for-expression identical to the allocating path, so samples,
:class:`~repro.core.sparsity.RunStats` and reports stay byte-identical
(the differential parity suites enforce this).

Every engine owns one arena and passes it to every kernel call; the
kernels have no allocating fallback.
"""

from __future__ import annotations

import numpy as np


class ExecArena:
    """Named, shape-keyed scratch buffers reused across iterations."""

    def __init__(self) -> None:
        self._buffers: dict = {}
        self.allocations = 0
        self.reuses = 0

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A buffer of ``shape`` — reused when the key was seen before.

        Contents are unspecified: the caller must fully overwrite the
        buffer before reading it.
        """
        key = (name, tuple(shape), np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
            self.allocations += 1
        else:
            self.reuses += 1
        return buffer

    def stats(self) -> dict:
        """Occupancy and reuse counters, keys sorted for stable diffs."""
        return {
            "allocations": self.allocations,
            "buffers": len(self._buffers),
            "bytes": int(sum(b.nbytes for b in self._buffers.values())),
            "reuses": self.reuses,
        }

    def clear(self) -> None:
        self._buffers.clear()


__all__ = ["ExecArena"]
