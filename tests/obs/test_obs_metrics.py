"""Unit tests for the zero-dependency metrics registry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS, MetricFamily, histogram_quantile


class TestFamilies:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labels=("level",))
        c.inc(level="model")
        c.inc(2, level="model")
        c.inc(level="table")
        assert c.value(level="model") == 3
        assert c.value(level="table") == 1
        assert c.value(level="pipeline") == 0.0  # never touched

    def test_counter_rejects_decrements(self):
        c = MetricsRegistry().counter("n_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_overwrites(self):
        g = MetricsRegistry().gauge("depth", labels=("q",))
        g.set(4, q="a")
        g.set(2, q="a")
        assert g.value(q="a") == 2.0

    def test_histogram_buckets_and_sum(self):
        h = MetricsRegistry().histogram("fill", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100, 4, -3):
            h.observe(v)
        ((values, child),) = h.children()
        assert values == ()
        assert child.bucket_counts == [2, 1, 2, 1]  # le=1,2,4,+Inf
        assert child.sum == 107
        assert child.count == 6

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        with pytest.raises(TypeError):
            c.set(1.0)
        with pytest.raises(TypeError):
            c.observe(1.0)
        with pytest.raises(TypeError):
            reg.gauge("g").inc()

    def test_label_schema_enforced(self):
        c = MetricsRegistry().counter("y_total", labels=("kind",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            MetricFamily("bad name", "counter")
        with pytest.raises(ValueError):
            MetricFamily("g", "gauge", buckets=(1,))

    @pytest.mark.parametrize("bound", (False, True), ids=("family", "bound"))
    @pytest.mark.parametrize("kind, update, value", [
        ("counter", "inc", float("nan")),
        ("counter", "inc", float("inf")),
        ("gauge", "set", float("nan")),
        ("gauge", "set", float("-inf")),
        ("histogram", "observe", float("nan")),
        ("histogram", "observe", float("inf")),
    ])
    def test_non_finite_values_are_refused_by_name(self, kind, update,
                                                   value, bound):
        reg = MetricsRegistry()
        family = getattr(reg, kind)("bad_values")
        target = family.labels() if bound else family
        with pytest.raises(ValueError, match="bad_values: non-finite"):
            getattr(target, update)(value)
        assert reg.to_json()  # nothing stored that JSON cannot encode
        if kind == "histogram":
            assert family.quantile(1.0) == 0.0
        else:
            assert family.value() == 0.0

    def test_default_buckets_are_sorted_powers_of_two(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", labels=("level",))
        b = reg.counter("hits_total", labels=("level",))
        assert a is b
        assert len(reg) == 1

    def test_reregistration_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", labels=("level",))
        with pytest.raises(ValueError):
            reg.gauge("hits_total")
        with pytest.raises(ValueError):
            reg.counter("hits_total", labels=("other",))

    def test_snapshot_orders_families_and_children(self):
        reg = MetricsRegistry()
        reg.counter("zzz_total").inc()
        c = reg.counter("aaa_total", labels=("k",))
        c.inc(k="b")
        c.inc(k="a")
        snap = reg.snapshot()
        assert [f["name"] for f in snap["families"]] == [
            "aaa_total", "zzz_total",
        ]
        assert [s["labels"]["k"] for s in snap["families"][0]["series"]] == [
            "a", "b",
        ]

    def test_to_json_is_canonical_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.gauge("depth", labels=("component",)).set(3, component="q")
            reg.histogram("fill").observe(2)
            return reg

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

    def test_family_and_registry_helpers(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        assert h.quantile(0.95) == 0.0  # untouched child
        h.observe(0.05)
        h.observe(0.5)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.95) == 1.0
        with pytest.raises(TypeError):
            reg.counter("c_total").quantile(0.5)

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
        reg = MetricsRegistry()
        h = reg.histogram("v", buckets=(1.0, 10.0, 50.0))
        for value in values:
            h.observe(value)
        result = h.quantile(q)
        assert result in (1.0, 10.0, 50.0)
        assert result <= h.quantile(1.0)
