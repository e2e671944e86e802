"""Unit tests for the metrics fold and its histogram quantiles."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observer, Tracer
from repro.obs.metrics import (
    FAMILIES,
    Histogram,
    Metrics,
    histogram_quantile,
    metrics_from_trace,
)


class TestFold:
    def test_an_empty_trace_snapshots_every_family_empty(self):
        snap = metrics_from_trace(Tracer()).snapshot()
        assert [f["name"] for f in snap["families"]] == sorted(FAMILIES)
        assert len(snap["families"]) == 13
        assert all(f["series"] == [] for f in snap["families"])

    def test_each_family_matches_its_table_row(self):
        obs = Observer()
        obs.on_step(0.0, 0.5, "dense", 2, cursor=0)
        obs.on_step(0.5, 1.0, "batch", 3)
        obs.on_cache_lookup("table", False)
        obs.on_queue_depth("replica0", 3, 0.5)
        for family in obs.metrics.snapshot()["families"]:
            row = FAMILIES[family["name"]]
            assert family["kind"] == row.kind
            assert family["help"] == row.help
            for entry in family["series"]:
                assert tuple(entry["labels"]) == row.labels
        assert {row.kind for row in FAMILIES.values()} == {
            "counter", "gauge", "histogram"}
        assert all(bool(row.buckets) == (row.kind == "histogram")
                   for row in FAMILIES.values())

    def test_counters_add_and_gauges_keep_the_last_value(self):
        m = Metrics()
        m.add("repro_cache_lookups_total", 1.0, "model", "miss")
        m.add("repro_cache_lookups_total", 2.0, "model", "miss")
        m.add("repro_cache_lookups_total", 1.0, "table", "miss")
        m.set("repro_queue_depth", 4, "a")
        m.set("repro_queue_depth", 2, "a")
        assert m.series["repro_cache_lookups_total"] == {
            ("model", "miss"): 3.0, ("table", "miss"): 1.0}
        assert m.series["repro_queue_depth"] == {("a",): 2.0}

    def test_histogram_buckets_and_sum(self):
        h = Histogram("fill", (1, 2, 4))
        for v in (1, 2, 3, 100, 4, -3):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 2, 1]  # le=1,2,4,+Inf
        assert h.sum == 107
        assert h.count == 6

    @pytest.mark.parametrize("fed", (False, True), ids=("empty", "fed"))
    @pytest.mark.parametrize("update, name, labels, value", [
        ("add", "repro_batches_total", (), float("nan")),
        ("add", "repro_batches_total", (), float("inf")),
        ("set", "repro_queue_depth", ("q",), float("nan")),
        ("set", "repro_queue_depth", ("q",), float("-inf")),
        ("observe", "repro_batch_fill", (), float("nan")),
        ("observe", "repro_batch_fill", (), float("inf")),
    ])
    def test_non_finite_values_are_refused_by_name(self, update, name,
                                                   labels, value, fed):
        m = Metrics()
        if fed:
            getattr(m, update)(name, 1.0, *labels)
        before = m.to_json()
        with pytest.raises(ValueError, match=f"{name}: non-finite"):
            getattr(m, update)(name, value, *labels)
        assert m.to_json() == before  # nothing stored JSON cannot encode

    def test_snapshot_orders_series_by_label_values(self):
        m = Metrics()
        m.add("repro_requests_total", 1.0, "served")
        m.add("repro_requests_total", 1.0, "queued")
        (family,) = [f for f in m.snapshot()["families"]
                     if f["name"] == "repro_requests_total"]
        assert [s["labels"]["stage"] for s in family["series"]] == [
            "queued", "served"]

    def test_to_json_is_canonical_and_deterministic(self):
        def build():
            obs = Observer()
            obs.on_queue_depth("q", 3, 0.0)
            obs.on_step(0.0, 1.0, "batch", 2)
            return obs.metrics

        j1, j2 = build().to_json(), build().to_json()
        assert j1 == j2
        assert j1.endswith("\n")
        doc = json.loads(j1)
        assert json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n" == j1


class TestHistogramQuantile:
    def test_nearest_rank_basics(self):
        buckets = (1.0, 2.0, 4.0)
        counts = [2, 1, 1, 0]  # le=1:2, le=2:1, le=4:1, +Inf:0
        assert histogram_quantile(buckets, counts, 0.50) == 1.0
        assert histogram_quantile(buckets, counts, 0.75) == 2.0
        assert histogram_quantile(buckets, counts, 1.00) == 4.0

    def test_inf_tail_clamps_to_largest_finite_bound(self):
        assert histogram_quantile((1.0, 2.0), [0, 0, 5], 0.99) == 2.0

    def test_empty_histogram_is_zero(self):
        assert histogram_quantile((1.0,), [0, 0], 0.95) == 0.0

    def test_quantile_bounds_validated(self):
        with pytest.raises(ValueError):
            histogram_quantile((1.0,), [1, 0], 1.5)

    def test_histogram_quantile_method(self):
        h = Histogram("lat", (0.1, 1.0))
        assert h.quantile(0.95) == 0.0  # nothing observed
        h.observe(0.05)
        h.observe(0.5)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.95) == 1.0

    def test_serve_report_latency_quantiles(self):
        from repro.serve import ContinuousServer

        server = ContinuousServer("dit", total_iterations=4, dry_run=True)
        for latency_s in [0.003] * 10 + [0.25] * 8 + [4.0, 100.0]:
            server._latency_hist.observe(latency_s)
        assert server.report().latency_quantiles == {
            "latency_p50_s": 0.01,
            "latency_p95_s": 5.0,
            "latency_p99_s": 60.0,  # the +Inf tail clamps
        }

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_monotone_and_within_bounds(self, values, q):
        h = Histogram("v", (1.0, 10.0, 50.0))
        for value in values:
            h.observe(value)
        result = h.quantile(q)
        assert result in (1.0, 10.0, 50.0)
        assert result <= h.quantile(1.0)
