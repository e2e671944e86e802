"""Observer integration: instrumented layers emit, and stay inert when off."""

import numpy as np
import pytest

from repro.cluster import (
    PoissonProcess,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import Observer, run_trace_scenario
from repro.serve import ContinuousPolicy, ContinuousServer
from repro.serve.cache import ThresholdCache


def small_cluster(observer=None, replicas=2, rate_rps=50.0, timeout_s=0.05):
    requests = synthesize_trace(
        PoissonProcess(rate_rps=rate_rps), 16,
        mix=WorkloadMix(models=("dit",), ablation="all"), rng=0,
    )
    return simulate_cluster(
        requests, replicas=build_replicas(replicas, iterations=4),
        router=make_router("jsq"),
        slo=SLOPolicy(timeout_s=timeout_s), observer=observer,
    )


class TestContinuousServing:
    def test_scenario_emits_membership_and_ticks(self):
        obs = Observer()
        summary = run_trace_scenario(
            model="dit", continuous=True, requests=8, iterations=12,
            observer=obs,
        )
        membership = obs.metrics.get("repro_membership_events_total")
        assert membership.value(kind="join") == summary["joins"]
        assert membership.value(kind="complete") == (
            summary["requests_served"]
        )
        assert membership.value(kind="expire") == (
            summary["requests_expired"]
        )
        ticks = obs.metrics.get("repro_ticks_total")
        assert (
            ticks.value(phase="dense") + ticks.value(phase="sparse")
            == summary["ticks"]
        )
        # The scenario is adversarial enough to exercise preemption.
        assert summary["preemptions"] >= 1

    def test_observer_does_not_change_served_outputs(self):
        from repro.cluster.replica import SimClock
        from repro.obs import drain_simulated

        def serve(observer):
            clock = SimClock()
            server = ContinuousServer(
                "dit",
                policy=ContinuousPolicy(max_batch_size=2),
                total_iterations=6,
                clock=clock,
                price=lambda batch, phase: (
                    0.002 if phase == "dense" else 0.001, 0.0
                ),
                observer=observer,
            )
            for i in range(4):
                server.submit(seed=i)
            return drain_simulated(server, clock), server.report()

        plain, plain_report = serve(None)
        observed, obs_report = serve(Observer())
        assert len(plain) == len(observed) == 4
        for a, b in zip(plain, observed):
            np.testing.assert_array_equal(a.result.sample, b.result.sample)
        assert plain_report.summary() == obs_report.summary()

    def test_executor_index_set_edits_are_traced(self):
        obs = Observer()
        server = ContinuousServer(
            "dit",
            policy=ContinuousPolicy(max_batch_size=2),
            total_iterations=6,
            observer=obs,
        )
        server.submit(seed=0)
        server.step()
        server.submit(seed=1)  # joins at the next boundary
        server.run_until_drained()
        edits = [
            e for e in obs.tracer.events if e.name == "index_set_edit"
        ]
        assert edits and all(e.track == "exec/index_set" for e in edits)
        membership = obs.metrics.get("repro_membership_events_total")
        assert membership.value(kind="index_set_edit") == len(edits)


class TestThresholdCache:
    def test_per_level_counts_reach_metrics_and_info(self):
        cache, observer = ThresholdCache(), Observer()
        cache.model("dit", 0, 4, None, observer=observer)
        cache.model("dit", 0, 4, None, observer=observer)
        lookups = observer.metrics.get("repro_cache_lookups_total")
        assert lookups.value(level="model", outcome="miss") == 1
        assert lookups.value(level="model", outcome="hit") == 1
        info = cache.info()
        assert info["model_hits"] == 1
        assert info["model_misses"] == 1
        assert list(info) == sorted(info)


class TestCluster:
    def test_lifecycle_metrics_and_inertness(self):
        obs = Observer()
        observed = small_cluster(observer=obs)
        plain = small_cluster(observer=None)
        # The observer must not perturb the simulation at all.
        assert observed.to_json() == plain.to_json()

        stages = obs.metrics.get("repro_requests_total")
        assert stages.value(stage="queued") == observed.submitted
        assert stages.value(stage="served") == observed.served
        util = obs.metrics.get("repro_replica_utilization")
        assert util.value(replica="replica0") >= 0.0
        dispatch_tracks = {
            s.track for s in obs.tracer.spans
            if s.name.startswith("dispatch[")
        }
        assert dispatch_tracks <= {"replica/replica0", "replica/replica1"}
        assert dispatch_tracks

    def test_slo_drops_are_observed(self):
        obs = Observer()
        # One replica under a 1000 rps burst with a 1 ms timeout: the
        # simulated service time alone outlasts the timeout, so queued
        # requests are dropped (deterministic — sim clock, fixed seed).
        report = small_cluster(
            observer=obs, replicas=1, rate_rps=1000.0, timeout_s=0.001
        )
        drops = report.timeout_drops
        assert drops > 0
        slo = obs.metrics.get("repro_slo_events_total")
        assert slo.value(reason="timeout") == drops


class TestHwTimeline:
    def test_phase_segments_tile_the_timeline(self):
        from repro.hw.accelerator import ExionAccelerator
        from repro.hw.timeline import phase_segments, simulate_timeline
        from repro.workloads.specs import get_spec

        timeline = simulate_timeline(
            ExionAccelerator.exion24(), get_spec("dit"), iterations=8,
        )
        segments = phase_segments(timeline)
        total_latency_s = sum(r.latency_s for r in timeline.records)
        assert len(segments) == 8
        assert segments[0]["start_s"] == 0.0
        for prev, cur in zip(segments, segments[1:]):
            assert cur["start_s"] == pytest.approx(prev["end_s"])
        assert segments[-1]["end_s"] == pytest.approx(total_latency_s)
        assert {s["phase"] for s in segments} == {"dense", "sparse"}

        obs = Observer()
        obs.observe_timeline(timeline)
        assert len(obs.tracer.spans) == 8
        phase_s = obs.metrics.get("repro_phase_seconds_total")
        total = sum(
            child.value for _, child in phase_s.children()
        )
        assert total == pytest.approx(total_latency_s)
