"""Attribution exactness: components telescope, tenant shares conserve.

The analytics engine promises *bit-exact* conservation on simulated
traces: every request's components sum to its end-to-end latency, and
per-tenant tick shares sum to fleet busy time. These tests pin those
identities on real scenario traces (continuous, drain, cold-start,
cluster) rather than on synthetic fixtures, so any hook-site or
analyzer drift breaks them immediately.
"""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import (
    MMPPProcess,
    PoissonProcess,
    SLOPolicy,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import Observer, chrome_trace_json, events_jsonl
from repro.obs.analyze import (
    COMPONENTS,
    TraceRecords,
    analyze,
    analyze_records,
    analyze_tracer,
)
from repro.obs.scenario import run_trace_scenario

ITERATIONS = 12

#: The observed cells of tools/fleet_digests.py: name -> how to run it.
_OBSERVED_CELLS = {
    f"{name}/{'continuous' if continuous else 'drain'}": (name, continuous)
    for name in ("poisson300-observed-jsq2", "mmpp-deadline2s-observed-jsq2")
    for continuous in (False, True)
} | {
    "scenario/continuous": ("scenario", dict(continuous=True)),
    "scenario/drain": ("scenario", dict(continuous=False)),
    "scenario/continuous+cold_start": (
        "scenario", dict(continuous=True, cold_start=True)),
}


@functools.cache
def _observed_cell(cell: str):
    name, knobs = _OBSERVED_CELLS[cell]
    observer = Observer()
    if name == "scenario":
        run_trace_scenario(iterations=12, observer=observer, **knobs)
    elif name.startswith("poisson"):
        simulate_cluster(
            synthesize_trace(PoissonProcess(300.0), 240, rng=1),
            build_replicas(2, accelerator="exion24", continuous=knobs),
            make_router("jsq"), observer=observer,
        )
    else:
        simulate_cluster(
            synthesize_trace(MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 240,
                             rng=2, deadline_s=2.0),
            build_replicas(2, accelerator="exion24", continuous=knobs),
            make_router("jsq"), slo=SLOPolicy(latency_target_s=2.0),
            observer=observer,
        )
    return observer.tracer


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
        assert {**a, "meta": {}} == {**b, "meta": {}}

    @pytest.mark.parametrize("source", ["jsonl", "chrome"])
    @pytest.mark.parametrize("cell", sorted(_OBSERVED_CELLS))
    def test_artifact_reanalysis_is_byte_identical(self, cell, source):
        """The observed cells of ``tools/fleet_digests.py``: analysing a
        saved artifact gives the in-memory analysis, byte for byte."""
        tracer = _observed_cell(cell)
        if source == "jsonl":
            records = TraceRecords.from_jsonl(events_jsonl(tracer))
        else:
            records = TraceRecords.from_chrome_trace(
                json.loads(chrome_trace_json(tracer)))
        assert analyze(records).to_json() == analyze_tracer(tracer).to_json()

    def test_empty_trace_analyzes_cleanly(self):
        attribution = analyze_records(TraceRecords())
        assert attribution.requests == []
        assert attribution.busy_ns == 0
        assert attribution.tenant_residual_ns() == 0

    def test_mode_detection(self):
        assert analyze_records(TraceRecords()).mode == "continuous"


def test_cluster_analysis_leaves_numpy_ma_as_it_found_it():
    """Analysing an observed fleet cell in a fresh interpreter imports no
    ``numpy.ma`` (plain ``np.unique`` does on numpy 2.4). Comparing before
    with after keeps the check valid on a numpy that imports it early."""
    code = (
        "import sys\n"
        "from repro.cluster import (PoissonProcess, build_replicas,\n"
        "    make_router, simulate_cluster, synthesize_trace)\n"
        "from repro.obs import Observer\n"
        "from repro.obs.analyze import analyze_tracer\n"
        "observer = Observer()\n"
        "simulate_cluster(synthesize_trace(PoissonProcess(300.0), 240, rng=1),\n"
        "    build_replicas(2, accelerator='exion24', continuous=True),\n"
        "    make_router('jsq'), observer=observer)\n"
        "before = 'numpy.ma' in sys.modules\n"
        "analyze_tracer(observer.tracer).to_json()\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    before, after = done.stdout.split()
    assert after == before
