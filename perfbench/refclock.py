"""A machine-speed reference timed between the benchmark's own calls.

The box this benchmark was built on changes speed by ±25 % over minutes
(neighbours on the host), and the change is common to numpy-heavy and
Python-heavy code: medians of ``generate`` and of a dry-run fleet cell
wandered 9–13 % between twelve-second windows while their ratio wandered
3 %. Raw wall-clock metrics from back-to-back sets of identical code
disagreed by 26–36 %, far past any usable regression bound.

So every timed phase interleaves a fixed reference kernel — small GEMMs
and elementwise numpy at the DiT block shape, then heap, dict and string
work in pure Python; nothing from ``repro`` — and an end-to-end time is
reported divided by ``speed_factor`` = median kernel time ÷
:data:`NOMINAL_S`. A metric then reads as the time the reference box takes
when it runs the kernel at its nominal speed. The raw values and the
factor are kept beside the result.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Kernel time on the reference box when it is calm (medians of 10.0–10.5 ms
#: there). Fixed: it only sets the scale the normalised metrics are read on.
NOMINAL_S = 0.010

_RNG = np.random.default_rng(20250930)
_X = _RNG.standard_normal((16, 64))
_W1 = _RNG.standard_normal((64, 256)) / 8.0
_W2 = _RNG.standard_normal((256, 64)) / 16.0


def reference_kernel() -> float:
    """A fixed piece of work, about half numpy and half interpreter."""
    x = _X
    for _ in range(120):
        h = x @ _W1
        h = h * (1.0 / (1.0 + np.exp(-h)))
        x = h @ _W2
        x = x - x.mean(axis=-1, keepdims=True)
    heap: list = []
    table: dict = {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        key = "k%d" % (i & 63)
        table[key] = table.get(key, 0) + 1
        if i & 3 == 3:
            heapq.heappop(heap)
    return float(x[0, 0]) + len(sorted(table.items()))


class RefClock:
    """Times the reference kernel on request and keeps its own time out of
    the clock it offers, so a latency that spans samples is not inflated."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent_s = 0.0

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent_s += elapsed

    def now(self) -> float:
        return time.perf_counter() - self.spent_s

    def speed_factor(self) -> float:
        """Above 1: the machine ran slower than nominal while measuring."""
        return statistics.median(self.samples) / NOMINAL_S


class _NoClock:
    """For passes whose time is not reported (spans, cProfile)."""

    def sample(self, repeats: int = 1) -> None:
        pass

    now = staticmethod(time.perf_counter)


NO_CLOCK = _NoClock()
