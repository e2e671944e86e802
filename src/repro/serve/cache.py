"""Cross-request memoization of models and threshold tables.

Building a benchmark model materializes every weight matrix, and
calibrating a :class:`~repro.core.thresholds.ThresholdTable` costs a full
vanilla generation — work that is identical for every request against the
same ``(model, config)``. The :class:`ThresholdCache` does each of these
once and reuses the artifacts across all subsequent requests, mirroring
how the paper's deployment story determines thresholds "through empirical
experiments" offline and replays them at runtime.

Two memo levels, from coarse to fine:

- **models** — keyed by :func:`repro.models.zoo.model_cache_key`;
- **threshold tables** — additionally keyed by the FFN-Reuse schedule
  (dense period, target sparsity) and calibration seed, but *not* by the
  eager-prediction knobs, so ablation variants share calibrations.

The cache carries no observer: a lookup is reported to the ``observer``
its caller passes (the server that made it), so servers sharing one
cache never see each other's lookups.

Cached models are shared objects: callers must not mutate their weights —
quantized serving is expressed with the ``activation_bits`` server knob
instead.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ExionConfig
from repro.core.thresholds import ThresholdCalibrator, ThresholdTable
from repro.models.zoo import BenchmarkModel, build_model, model_cache_key


class ThresholdCache:
    """Memoizes built models and calibrated threshold tables."""

    def __init__(self) -> None:
        self._models: dict = {}
        self._tables: dict = {}
        self.hits = 0
        self.misses = 0
        # Per-memo-level hit/miss counts, surfaced through info() (and
        # therefore ServeReport) and the obs metrics registry.
        self.level_hits = {"model": 0, "table": 0}
        self.level_misses = {"model": 0, "table": 0}

    def _record(self, level: str, hit: bool, observer) -> bool:
        if hit:
            self.hits += 1
            self.level_hits[level] += 1
        else:
            self.misses += 1
            self.level_misses[level] += 1
        if observer is not None:
            observer.on_cache_lookup(level, hit)
        return hit

    # ------------------------------------------------------------------
    # memo levels
    # ------------------------------------------------------------------
    def model(
        self,
        name: str,
        seed: int = 0,
        total_iterations: Optional[int] = None,
        depth: Optional[int] = None,
        observer=None,
    ) -> BenchmarkModel:
        """Build (or reuse) a benchmark model."""
        key = model_cache_key(name, seed, total_iterations, depth)
        if not self._record("model", key in self._models, observer):
            self._models[key] = build_model(
                name, seed=seed, total_iterations=total_iterations,
                depth=depth,
            )
        return self._models[key]

    def table(
        self,
        name: str,
        config: ExionConfig,
        model_seed: int = 0,
        total_iterations: Optional[int] = None,
        calibration_seed: int = 0,
        observer=None,
    ) -> ThresholdTable:
        """Calibrate (or reuse) the FFN-Reuse threshold table.

        The key ignores the eager-prediction knobs: the table depends only
        on the model, the dense/sparse schedule and the target sparsity,
        so e.g. the ``ffnr`` and ``all`` ablations share one calibration.
        """
        key = model_cache_key(name, model_seed, total_iterations) + (
            config.sparse_iters_n,
            config.ffn_target_sparsity,
            calibration_seed,
        )
        if not self._record("table", key in self._tables, observer):
            model = self.model(
                name, model_seed, total_iterations, observer=observer
            )
            calibrator = ThresholdCalibrator(
                target_sparsity=config.ffn_target_sparsity,
                dense_period=config.sparse_iters_n + 1,
            )
            self._tables[key] = calibrator.calibrate(
                model, seed=calibration_seed
            )
        return self._tables[key]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Cache occupancy and hit statistics, keys sorted for stable diffs."""
        info = {
            "models": len(self._models),
            "tables": len(self._tables),
            "hits": self.hits,
            "misses": self.misses,
        }
        for level in self.level_hits:
            info[f"{level}_hits"] = self.level_hits[level]
            info[f"{level}_misses"] = self.level_misses[level]
        return dict(sorted(info.items()))

    def clear(self) -> None:
        """Drop every memoized artifact (frees the model weights)."""
        self._models.clear()
        self._tables.clear()
