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
            "model_hits": 1, "model_misses": 1,
            "table_hits": 0, "table_misses": 0,
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

    def test_shared_cache_reports_each_lookup_to_its_own_server(self, metric):
        # Regression: the cache held one observer slot, so a cache shared
        # by two servers reported both servers' lookups to whichever
        # observer was installed last.
        from repro.obs import Observer

        cache, first, second = ThresholdCache(), Observer(), Observer()
        self.make_server(cache, observer=first)   # model miss
        self.make_server(cache)                   # model hit, unobserved
        self.make_server(cache, observer=second)  # model hit
        lookups = "repro_cache_lookups_total"
        assert metric(first.metrics, lookups, level="model", outcome="miss") == 1
        assert metric(first.metrics, lookups, level="model", outcome="hit") == 0
        assert metric(second.metrics, lookups, level="model",
                      outcome="miss") == 0
        assert metric(second.metrics, lookups, level="model",
                      outcome="hit") == 1
        assert cache.info()["model_hits"] == 2
