"""ThresholdCache memoization behavior."""

from dataclasses import replace

import pytest

from repro.core import thresholds as thresholds_module
from repro.core.config import ExionConfig
from repro.models.zoo import model_cache_key
from repro.serve import ContinuousServer, ThresholdCache

FAST = {"total_iterations": 6}


class TestModelCacheKey:
    def test_round_trip(self):
        key = model_cache_key("dit", seed=1, total_iterations=9)
        assert key == ("dit", 1, 9, None)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            model_cache_key("resnet50")


class TestModelMemo:
    def test_same_key_returns_same_object(self):
        cache = ThresholdCache()
        first = cache.model("dit", **FAST)
        second = cache.model("dit", **FAST)
        assert first is second
        assert cache.info()["models"] == 1
        assert cache.info() == {
            "models": 1, "tables": 0, "hits": 1, "misses": 1,
            "capacity": -1, "evictions": 0,
            "model_hits": 1, "model_misses": 1, "model_evictions": 0,
            "table_hits": 0, "table_misses": 0, "table_evictions": 0,
        }
        # keys come out sorted so diffs of two runs line up
        assert list(cache.info()) == sorted(cache.info())

    def test_different_key_builds_new_model(self):
        cache = ThresholdCache()
        a = cache.model("dit", **FAST)
        b = cache.model("dit", seed=1, **FAST)
        c = cache.model("mdm", **FAST)
        assert a is not b and a is not c
        assert cache.info()["models"] == 3


class TestTableMemo:
    def test_calibration_runs_once(self, monkeypatch):
        calls = []
        original = thresholds_module.ThresholdCalibrator.calibrate

        def counting(self, model, seed=0, prompt=None):
            calls.append(seed)
            return original(self, model, seed=seed, prompt=prompt)

        monkeypatch.setattr(
            thresholds_module.ThresholdCalibrator, "calibrate", counting
        )
        cache = ThresholdCache()
        config = ExionConfig.for_model("dit")
        first = cache.table("dit", config, **FAST)
        second = cache.table("dit", config, **FAST)
        assert first is second
        assert calls == [0]

    def test_table_shared_across_ep_ablations(self):
        cache = ThresholdCache()
        config = ExionConfig.for_model("dit")
        ffnr_only = cache.table("dit", config.ablation("ffnr"), **FAST)
        both = cache.table("dit", config.ablation("all"), **FAST)
        assert ffnr_only is both

    def test_table_not_shared_across_schedules(self):
        cache = ThresholdCache()
        config = ExionConfig.for_model("dit")
        other = replace(config, sparse_iters_n=config.sparse_iters_n + 1)
        assert cache.table("dit", config, **FAST) is not cache.table(
            "dit", other, **FAST
        )


class TestServerUse:
    """The one server builds its executor from ``model``/``table``."""

    def make_server(self, cache, **kwargs):
        return ContinuousServer(
            "dit", cache=cache, total_iterations=FAST["total_iterations"],
            **kwargs,
        )

    def test_calibrated_server_gets_table(self):
        cache = ThresholdCache()
        server = self.make_server(cache, calibrate=True)
        table = server._executor.threshold_table
        assert table is not None and len(table) > 0
        assert self.make_server(cache)._executor.threshold_table is None
        # A second calibrated server reuses the memoized table.
        assert self.make_server(
            cache, calibrate=True
        )._executor.threshold_table is table

    def test_calibrate_without_ffn_reuse_skips_table(self):
        cache = ThresholdCache()
        config = ExionConfig.for_model("dit").ablation("ep")
        server = self.make_server(cache, config=config, calibrate=True)
        assert server._executor.threshold_table is None
        assert cache.info()["tables"] == 0

    def test_clear_drops_everything(self):
        cache = ThresholdCache()
        cache.table("dit", ExionConfig.for_model("dit"), **FAST)
        cache.clear()
        info = cache.info()
        assert (info["models"], info["tables"]) == (0, 0)


class TestLRUCapacity:
    def test_unbounded_by_default(self):
        cache = ThresholdCache()
        assert cache.capacity is None
        for seed in range(4):
            cache.model("dit", seed=seed, **FAST)
        assert cache.info()["models"] == 4
        assert cache.info()["evictions"] == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ThresholdCache(capacity=0)

    def test_eviction_past_capacity(self):
        cache = ThresholdCache(capacity=2)
        a = cache.model("dit", seed=0, **FAST)
        cache.model("dit", seed=1, **FAST)
        cache.model("dit", seed=2, **FAST)  # evicts seed=0
        info = cache.info()
        assert info["models"] == 2
        assert info["evictions"] == 1
        assert info["model_evictions"] == 1
        # seed=0 was evicted: re-requesting it is a miss and a rebuild
        rebuilt = cache.model("dit", seed=0, **FAST)
        assert rebuilt is not a

    def test_hit_refreshes_recency(self):
        cache = ThresholdCache(capacity=2)
        a = cache.model("dit", seed=0, **FAST)
        cache.model("dit", seed=1, **FAST)
        cache.model("dit", seed=0, **FAST)  # refresh seed=0 → seed=1 is LRU
        cache.model("dit", seed=2, **FAST)  # evicts seed=1, not seed=0
        assert cache.model("dit", seed=0, **FAST) is a
        assert cache.level_evictions["model"] == 1

    def test_each_level_bounded_independently(self):
        cache = ThresholdCache(capacity=1)
        config = ExionConfig.for_model("dit")
        other = replace(config, sparse_iters_n=config.sparse_iters_n + 1)
        cache.table("dit", config, **FAST)
        cache.table("dit", other, **FAST)
        info = cache.info()
        # one model (same key both times) but two table insertions
        assert info["models"] == 1
        assert info["tables"] == 1
        assert info["table_evictions"] == 1
        assert info["model_evictions"] == 0

    def test_eviction_counts_in_summary_flow(self):
        cache = ThresholdCache(capacity=1)
        cache.model("dit", seed=0, **FAST)
        cache.model("dit", seed=1, **FAST)
        info = cache.info()
        assert info["capacity"] == 1
        assert info["evictions"] == 1
        assert list(info) == sorted(info)
