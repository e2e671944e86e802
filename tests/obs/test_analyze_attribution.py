"""Attribution exactness: components telescope, tenant shares conserve.

The analytics engine promises *bit-exact* conservation on simulated
traces: every request's components sum to its end-to-end latency, and
per-tenant tick shares sum to fleet busy time. These tests pin those
identities on real scenario traces (continuous, drain, cold-start,
cluster) rather than on synthetic fixtures, so any hook-site or
analyzer drift breaks them immediately.
"""

from dataclasses import replace

import pytest

from repro.obs import Observer, events_jsonl
from repro.obs.analyze import (
    COMPONENTS,
    TraceRecords,
    analyze,
    analyze_records,
    analyze_tracer,
    detect_mode,
)
from repro.obs.scenario import run_trace_scenario

ITERATIONS = 12


def _scenario_attribution(**kwargs):
    observer = Observer()
    run_trace_scenario(
        model="dit", iterations=ITERATIONS, observer=observer, **kwargs
    )
    return analyze_tracer(observer.tracer).attribution


@pytest.fixture(scope="module")
def continuous():
    return _scenario_attribution(continuous=True, requests=8)


@pytest.fixture(scope="module")
def drain():
    return _scenario_attribution(continuous=False, requests=6)


class TestRequestExactness:
    def test_components_sum_to_latency_bit_exactly(self, continuous):
        assert continuous.requests
        for request in continuous.requests:
            assert sum(request.components.values()) == request.latency_ns
            assert request.residual_ns == 0

    def test_all_component_keys_always_present(self, continuous):
        for request in continuous.requests:
            assert tuple(request.components) == COMPONENTS

    def test_simulated_runs_have_no_residual_bucket(self, continuous):
        assert continuous.fleet_components()["other_ns"] == 0
        assert continuous.max_request_residual_ns() == 0

    def test_drain_mode_components_exact(self, drain):
        assert drain.mode == "drain"
        for request in drain.requests:
            assert request.residual_ns == 0
        assert drain.max_request_residual_ns() == 0

    def test_scenario_produces_interesting_outcomes(self, continuous):
        outcomes = continuous.outcomes()
        assert outcomes.get("served", 0) > 0
        # The cycle plants a tight deadline on every 5th request.
        assert outcomes.get("expired", 0) > 0
        fleet = continuous.fleet_components()
        assert fleet["dense_ns"] > 0
        assert fleet["sparse_ns"] > 0
        assert fleet["preempt_ns"] > 0


class TestTenantConservation:
    def test_tenant_tick_shares_sum_to_busy_time(self, continuous):
        assert continuous.busy_ns > 0
        assert continuous.tenant_residual_ns() == 0

    def test_tenant_breakdowns_internally_consistent(self, continuous):
        for doc in continuous.tenants.values():
            assert sum(doc["by_phase"].values()) == doc["tick_ns"]
            assert sum(doc["by_priority"].values()) == doc["tick_ns"]
            assert sum(doc["by_model"].values()) == doc["tick_ns"]

    def test_energy_accounted_and_conserved(self, continuous):
        assert continuous.energy_nj > 0
        shared = sum(
            doc["energy_nj"] for doc in continuous.tenants.values()
        )
        assert shared == continuous.energy_nj

    def test_scenario_tenants_both_present(self, continuous):
        assert set(continuous.tenants) >= {"alpha", "beta"}


class TestColdStart:
    def test_cold_surcharge_attributed(self):
        attribution = _scenario_attribution(
            continuous=True, requests=8, cold_start=True
        )
        assert attribution.fleet_components()["cold_ns"] > 0
        assert attribution.max_request_residual_ns() == 0
        assert attribution.tenant_residual_ns() == 0


class TestClusterMode:
    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.cluster.router import make_router
        from repro.cluster.simulator import build_replicas, simulate_cluster
        from repro.cluster.traffic import PoissonProcess, synthesize_trace

        observer = Observer()
        requests = [
            replace(request, tenant=("alpha", "beta")[i % 2])
            for i, request in enumerate(
                synthesize_trace(PoissonProcess(rate_rps=2.0), 12, rng=0))
        ]
        simulate_cluster(
            requests, build_replicas(2, iterations=ITERATIONS),
            make_router("jsq"), observer=observer,
        )
        return analyze_tracer(observer.tracer).attribution

    def test_mode_detected(self, cluster):
        assert cluster.mode == "cluster"

    def test_tenant_shares_sum_to_fleet_busy_time(self, cluster):
        assert cluster.busy_ns > 0
        assert cluster.tenant_residual_ns() == 0

    def test_replica_busy_decomposes_fleet(self, cluster):
        assert set(cluster.replicas) == {"replica0", "replica1"}
        assert sum(
            doc["busy_ns"] for doc in cluster.replicas.values()
        ) == cluster.busy_ns

    def test_served_rollups_are_exact(self, cluster):
        for request in cluster.requests:
            assert request.outcome == "served"
            assert request.residual_ns == 0


class TestRoundTrip:
    def test_jsonl_reanalysis_is_bit_identical(self):
        observer = Observer()
        run_trace_scenario(
            model="dit", continuous=True, requests=8,
            iterations=ITERATIONS, observer=observer,
        )
        in_memory = analyze_tracer(observer.tracer)
        records = TraceRecords.from_jsonl(events_jsonl(observer.tracer))
        round_trip = analyze(records)
        a, b = in_memory.to_dict(), round_trip.to_dict()
        a["meta"] = b["meta"] = {}
        assert a == b

    def test_empty_trace_analyzes_cleanly(self):
        attribution = analyze_records(TraceRecords())
        assert attribution.requests == []
        assert attribution.busy_ns == 0
        assert attribution.tenant_residual_ns() == 0

    def test_mode_detection(self):
        assert detect_mode(TraceRecords()) == "continuous"
