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

Each level is an LRU: pass ``capacity`` to bound the number of entries
kept per level (``None``, the default, keeps everything, matching the
historical unbounded behaviour). Lookups refresh recency; insertions past
capacity evict the least-recently-used entry of that level, counted in
``evictions``/``level_evictions`` and surfaced through :meth:`info`.

Cached models are shared objects: callers must not mutate their weights
(e.g. via ``repro.quant.apply_ptq``) — quantized serving is expressed with
the ``activation_bits`` server knob instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.config import ExionConfig
from repro.core.thresholds import ThresholdCalibrator, ThresholdTable
from repro.models.zoo import BenchmarkModel, build_model, model_cache_key


class ThresholdCache:
    """Memoizes built models and calibrated threshold tables.

    ``capacity`` bounds each memo level independently (LRU eviction);
    ``None`` leaves every level unbounded.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._models: OrderedDict = OrderedDict()
        self._tables: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Per-memo-level hit/miss/eviction counts, surfaced through info()
        # (and therefore ServeReport) and the obs metrics registry.
        self.level_hits = {"model": 0, "table": 0}
        self.level_misses = {"model": 0, "table": 0}
        self.level_evictions = {"model": 0, "table": 0}
        #: Optional :class:`repro.obs.observer.Observer`.
        self.observer = None

    def _record(self, level: str, hit: bool) -> None:
        if hit:
            self.hits += 1
            self.level_hits[level] += 1
        else:
            self.misses += 1
            self.level_misses[level] += 1
        if self.observer is not None:
            self.observer.on_cache_lookup(level, hit)

    def _touch(self, level: str, memo: OrderedDict, key) -> bool:
        """Record a lookup; on hit refresh the key's recency."""
        hit = key in memo
        if hit:
            memo.move_to_end(key)
        self._record(level, hit)
        return hit

    def _insert(self, level: str, memo: OrderedDict, key, value) -> None:
        """Insert as most-recent, evicting the LRU entry past capacity."""
        memo[key] = value
        memo.move_to_end(key)
        if self.capacity is not None and len(memo) > self.capacity:
            memo.popitem(last=False)
            self.evictions += 1
            self.level_evictions[level] += 1

    # ------------------------------------------------------------------
    # memo levels
    # ------------------------------------------------------------------
    def model(
        self,
        name: str,
        seed: int = 0,
        total_iterations: Optional[int] = None,
        depth: Optional[int] = None,
    ) -> BenchmarkModel:
        """Build (or reuse) a benchmark model."""
        key = model_cache_key(name, seed, total_iterations, depth)
        if self._touch("model", self._models, key):
            return self._models[key]
        built = build_model(
            name, seed=seed, total_iterations=total_iterations, depth=depth
        )
        self._insert("model", self._models, key, built)
        return built

    def table(
        self,
        name: str,
        config: ExionConfig,
        model_seed: int = 0,
        total_iterations: Optional[int] = None,
        depth: Optional[int] = None,
        calibration_seed: int = 0,
    ) -> ThresholdTable:
        """Calibrate (or reuse) the FFN-Reuse threshold table.

        The key ignores the eager-prediction knobs: the table depends only
        on the model, the dense/sparse schedule and the target sparsity,
        so e.g. the ``ffnr`` and ``all`` ablations share one calibration.
        """
        key = model_cache_key(name, model_seed, total_iterations, depth) + (
            config.sparse_iters_n,
            config.ffn_target_sparsity,
            calibration_seed,
        )
        if self._touch("table", self._tables, key):
            return self._tables[key]
        model = self.model(name, model_seed, total_iterations, depth)
        calibrator = ThresholdCalibrator(
            target_sparsity=config.ffn_target_sparsity,
            dense_period=config.sparse_iters_n + 1,
        )
        table = calibrator.calibrate(model, seed=calibration_seed)
        self._insert("table", self._tables, key, table)
        return table

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
            "capacity": -1 if self.capacity is None else self.capacity,
            "evictions": self.evictions,
        }
        for level in self.level_hits:
            info[f"{level}_hits"] = self.level_hits[level]
            info[f"{level}_misses"] = self.level_misses[level]
            info[f"{level}_evictions"] = self.level_evictions[level]
        return dict(sorted(info.items()))

    def clear(self) -> None:
        """Drop every memoized artifact (frees the model weights)."""
        self._models.clear()
        self._tables.clear()
