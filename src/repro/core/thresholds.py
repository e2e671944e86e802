"""Empirical threshold determination for FFN-Reuse.

The paper (Section III-A): "Determining these thresholds, which vary across
iterations and transformer blocks, does not require additional training. We
can determine these local threshold values through empirical experiments
and apply them during runtime."

Two usage modes are provided:

- **online quantile** — at each dense iteration the threshold is the
  magnitude quantile hitting the target sparsity (the default inside
  :class:`repro.core.ffn_reuse.FFNReuse` and both compiled engines),
  found by selection: one ``partition`` at the lower neighbour, ``min``
  of what lies above it, numpy's interpolation. An order statistic is
  the same number whichever algorithm finds it, so the result equals
  ``numpy.quantile(abs(values), q)`` bit for bit (``tests/core/``);
- **offline calibration** — :class:`ThresholdCalibrator` runs one vanilla
  generation, records the per-(dense-iteration, block) quantile thresholds,
  and replays them as fixed constants at runtime, exactly matching the
  paper's deployment story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class ThresholdTable:
    """Fixed thresholds keyed by (dense-iteration index, block index)."""

    target_sparsity: float
    values: dict = field(default_factory=dict)

    def set(self, dense_index: int, block: int, threshold: float) -> None:
        self.values[(dense_index, block)] = float(threshold)

    def get(self, dense_index: int, block: int) -> Optional[float]:
        """Exact entry, else the nearest earlier dense iteration's entry."""
        key = (dense_index, block)
        if key in self.values:
            return self.values[key]
        candidates = [
            (d, b) for (d, b) in self.values if b == block and d <= dense_index
        ]
        if not candidates:
            return None
        return self.values[max(candidates)]

    def __len__(self) -> int:
        return len(self.values)


def quantile_thresholds(values: np.ndarray, target_sparsity: float) -> np.ndarray:
    """Row-wise :func:`quantile_threshold` over ``(rows, n)`` ``values``:
    exactly ``numpy.quantile(abs(values), target_sparsity, axis=1)``.
    ``values`` is never written; the selection runs on the ``abs`` copy.
    """
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError("target_sparsity must be in [0, 1)")
    mags = np.abs(np.asarray(values, dtype=np.float64))
    n = mags.shape[1]
    if n == 0:
        raise ValueError("values must hold at least one element per row")
    # numpy's method="linear": neighbours floor(v) and floor(v) + 1 of the
    # virtual index v = (n - 1) * q, which stays below n - 1 for q < 1.
    virtual = (n - 1) * target_sparsity
    lo = int(virtual)
    gamma = virtual - lo
    mags.partition(lo, axis=1)
    a = mags[:, lo]
    b = mags[:, lo + 1:].min(axis=1) if lo + 1 < n else a
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def quantile_threshold(values: np.ndarray, target_sparsity: float) -> float:
    """Magnitude quantile such that ``target_sparsity`` of elements fall below."""
    return float(quantile_thresholds(np.reshape(values, (1, -1)),
                                     target_sparsity)[0])


class ThresholdCalibrator:
    """Offline calibration pass producing a :class:`ThresholdTable`.

    Runs the model's vanilla pipeline on calibration prompts, observes the
    non-linear-layer outputs at each would-be dense iteration, and records
    quantile thresholds.
    """

    def __init__(self, target_sparsity: float, dense_period: int) -> None:
        if dense_period < 1:
            raise ValueError("dense_period must be >= 1")
        self.target_sparsity = target_sparsity
        self.dense_period = dense_period

    def calibrate(self, model, seed: int = 0, prompt: Optional[str] = None) -> ThresholdTable:
        """Build the table from one vanilla generation of ``model``.

        ``model`` is a :class:`repro.models.zoo.BenchmarkModel`.
        """
        pipeline = model.make_pipeline()
        result = pipeline.generate(seed=seed, prompt=prompt, collect_traces=True)
        table = ThresholdTable(target_sparsity=self.target_sparsity)
        for iteration, traces in enumerate(result.block_traces):
            if iteration % self.dense_period != 0:
                continue
            dense_index = iteration // self.dense_period
            for block, trace in enumerate(traces):
                threshold = quantile_threshold(
                    trace.ffn.hidden, self.target_sparsity
                )
                table.set(dense_index, block, threshold)
        return table
