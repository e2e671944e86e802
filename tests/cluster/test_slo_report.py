"""SLO accounting primitives and the ClusterReport contract."""

import json

import pytest

from repro.cluster.report import ClusterReport
from repro.cluster.slo import LatencyAccumulator, SLOPolicy


def summary_of(latencies: list) -> dict:
    acc = LatencyAccumulator()
    for latency in latencies:
        acc.record(wait_s=latency, service_s=0.0)
    return acc.summary()


class TestNearestRank:
    def test_nearest_rank(self):
        summary = summary_of([float(v) for v in range(100, 0, -1)])
        assert summary["latency_p50_s"] == 50.0
        assert summary["latency_p95_s"] == 95.0
        assert summary["latency_p99_s"] == 99.0
        assert summary["latency_max_s"] == 100.0
        assert summary["wait_p50_s"] == 50.0
        assert summary["wait_p99_s"] == 99.0

    def test_small_samples_and_empty(self):
        assert summary_of([3.0])["latency_p99_s"] == 3.0
        assert summary_of([2.0, 1.0])["latency_p50_s"] == 1.0  # sorts
        assert summary_of([])["latency_p50_s"] == 0.0


class TestSLOPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(latency_target_s=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(timeout_s=-1.0)
        with pytest.raises(ValueError):
            SLOPolicy(max_queue_depth=0)

    def test_attainment(self):
        acc = LatencyAccumulator(SLOPolicy(latency_target_s=1.0))
        acc.record(wait_s=0.2, service_s=0.3)  # 0.5 within
        acc.record(wait_s=0.9, service_s=0.5)  # 1.4 blown
        assert acc.attainment() == pytest.approx(0.5)
        assert LatencyAccumulator().attainment() is None

    def test_attainment_counts_drops_as_misses(self):
        # Shedding load must never *raise* attainment: dropped requests
        # join the denominator as violations.
        acc = LatencyAccumulator(SLOPolicy(latency_target_s=1.0))
        acc.record(wait_s=0.1, service_s=0.2)  # within
        assert acc.attainment(dropped=0) == pytest.approx(1.0)
        assert acc.attainment(dropped=3) == pytest.approx(0.25)
        empty = LatencyAccumulator(SLOPolicy(latency_target_s=1.0))
        assert empty.attainment(dropped=5) == pytest.approx(0.0)

    def test_summary_breakdown(self):
        acc = LatencyAccumulator()
        acc.record(wait_s=1.0, service_s=2.0)
        acc.record(wait_s=3.0, service_s=4.0)
        summary = acc.summary()
        assert summary["count"] == 2
        assert summary["latency_mean_s"] == pytest.approx(5.0)
        assert summary["wait_mean_s"] == pytest.approx(2.0)
        assert summary["service_mean_s"] == pytest.approx(3.0)
        assert summary["latency_max_s"] == pytest.approx(7.0)


def sample_report():
    acc = LatencyAccumulator(SLOPolicy(latency_target_s=1.0))
    for i in range(10):
        acc.record(wait_s=0.05 * i, service_s=0.4)
    return ClusterReport(
        scenario={"router": "jsq", "accelerator": "EXION24",
                  "models": ["dit"], "seed": 0},
        submitted=12,
        served=10,
        admission_drops=1,
        timeout_drops=1,
        makespan_s=5.0,
        latency=acc.summary(),
        slo_attainment=acc.attainment(),
        replicas=[{
            "name": "replica0", "accelerator": "EXION24",
            "requests_served": 10, "batches_served": 3,
            "mean_batch_size": 10 / 3, "busy_s": 4.0,
            "utilization": 0.8, "cold_starts": 1,
            "admission_drops": 1, "timeout_drops": 1,
        }],
    )


class TestClusterReport:
    def test_derived_quantities(self):
        report = sample_report()
        assert report.dropped == 2
        assert report.drop_rate == pytest.approx(2 / 12)
        assert report.samples_per_s == pytest.approx(2.0)
        assert report.mean_utilization == pytest.approx(0.8)

    def test_dict_round_trip(self):
        report = sample_report()
        assert json.loads(report.to_json()) == report.to_dict()

    def test_canonical_json_is_byte_stable(self):
        a, b = sample_report(), sample_report()
        assert a.to_json() == b.to_json()
        data = json.loads(a.to_json())
        assert data["served"] == 10
        # Canonical form: key-sorted, no whitespace, newline-terminated.
        assert a.to_json().endswith("\n")
        assert '"samples_per_s":2.0' in a.to_json()

    def test_render_mentions_scenario(self):
        text = sample_report().render()
        assert "jsq" in text and "EXION24" in text
        assert "Per-replica usage" in text
        assert "SLO attainment" in text
