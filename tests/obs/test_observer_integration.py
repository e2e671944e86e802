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
    def test_scenario_emits_membership_and_ticks(self, metric):
        obs = Observer()
        summary = run_trace_scenario(
            model="dit", continuous=True, requests=8, iterations=12,
            observer=obs,
        )
        metrics = obs.metrics
        membership = "repro_membership_events_total"
        assert metric(metrics, membership, kind="join") == summary["joins"]
        assert metric(metrics, membership, kind="complete") == (
            summary["requests_served"]
        )
        assert metric(metrics, membership, kind="expire") == (
            summary["requests_expired"]
        )
        assert (
            metric(metrics, "repro_ticks_total", phase="dense")
            + metric(metrics, "repro_ticks_total", phase="sparse")
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

    def test_executor_index_set_edits_are_traced(self, metric):
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
        assert metric(obs.metrics, "repro_membership_events_total",
                      kind="index_set_edit") == len(edits)


class TestOneBook:
    """The trace is the only record: a metric is a fold of its rows."""

    @pytest.mark.parametrize("hook, args", (
        ("on_step", (1.0, 0.5, "dense", 2)),  # ends before it starts
        ("on_step", (0.0, float("nan"), "batch", 2)),
        ("on_membership", ("join", float("inf"), 0)),
        ("on_phase_segment", (2.0, 1.0, "dense", "compute", 0)),
        ("on_queue_depth", ("continuous", 3, float("nan"))),
    ))
    def test_a_refused_hook_leaves_no_metric(self, hook, args):
        obs = Observer()
        with pytest.raises(ValueError):
            getattr(obs, hook)(*args)
        assert len(obs.tracer) == 0
        assert obs.metrics.to_json() == Observer().metrics.to_json()

    def test_untraced_signals_are_events_on_their_own_tracks(self, metric):
        obs = Observer()
        obs.now = 0.25
        obs.on_cache_lookup("table", False)
        obs.on_queue_depth("replica0", 3, 0.5)
        obs.on_queue_depth("replica0", 1, 0.75)
        obs.on_replica_utilization("replica0", 0.5, 1.0)
        assert [(e.track, e.name, e.ts_s, e.args) for e in obs.tracer.events] == [
            ("serve/cache", "miss", 0.25, {"level": "table"}),
            ("queue/depth", "replica0", 0.5, {"depth": 3}),
            ("queue/depth", "replica0", 0.75, {"depth": 1}),
            ("cluster/utilization", "replica0", 1.0, {"utilization": 0.5}),
        ]
        metrics = obs.metrics
        assert metric(metrics, "repro_cache_lookups_total",
                      level="table", outcome="miss") == 1
        # A gauge keeps the last value the trace recorded.
        assert metric(metrics, "repro_queue_depth",
                      component="replica0") == 1
        assert metric(metrics, "repro_replica_utilization",
                      replica="replica0") == 0.5

    def test_drain_batches_and_ticks_fold_apart(self, metric):
        obs = Observer()
        obs.on_step(0.0, 0.5, "dense", 2, cursor=0)
        obs.on_step(0.5, 0.75, "sparse", 3, cursor=1)
        obs.on_step(1.0, 3.0, "batch", 4)
        metrics = obs.metrics
        assert (metric(metrics, "repro_ticks_total", phase="dense"),
                metric(metrics, "repro_ticks_total", phase="sparse")) == (
            1, 1)
        tick_s = metric(metrics, "repro_tick_seconds")
        assert (tick_s.count, tick_s.sum) == (2, 0.75)
        assert metric(metrics, "repro_batches_total") == 1
        batch_s = metric(metrics, "repro_batch_seconds")
        assert (batch_s.count, batch_s.sum) == (1, 2.0)
        fill = metric(metrics, "repro_batch_fill")
        assert (fill.count, fill.sum) == (3, 9.0)
        assert len(metrics.series) == 13


class TestThresholdCache:
    def test_per_level_counts_reach_metrics_and_info(self, metric):
        cache, observer = ThresholdCache(), Observer()
        cache.model("dit", 0, 4, None, observer=observer)
        cache.model("dit", 0, 4, None, observer=observer)
        lookups = "repro_cache_lookups_total"
        metrics = observer.metrics
        assert metric(metrics, lookups, level="model", outcome="miss") == 1
        assert metric(metrics, lookups, level="model", outcome="hit") == 1
        info = cache.info()
        assert info["model_hits"] == 1
        assert info["model_misses"] == 1
        assert list(info) == sorted(info)


class TestCluster:
    def test_lifecycle_metrics_and_inertness(self, metric):
        obs = Observer()
        observed = small_cluster(observer=obs)
        plain = small_cluster(observer=None)
        # The observer must not perturb the simulation at all.
        assert observed.to_json() == plain.to_json()

        metrics = obs.metrics
        assert metric(metrics, "repro_requests_total",
                      stage="queued") == observed.submitted
        assert metric(metrics, "repro_requests_total",
                      stage="served") == observed.served
        assert metric(metrics, "repro_replica_utilization",
                      replica="replica0") >= 0.0
        dispatch_tracks = {
            s.track for s in obs.tracer.spans
            if s.name.startswith("dispatch[")
        }
        assert dispatch_tracks <= {"replica/replica0", "replica/replica1"}
        assert dispatch_tracks

    def test_slo_drops_are_observed(self, metric):
        obs = Observer()
        # One replica under a 1000 rps burst with a 1 ms timeout: the
        # simulated service time alone outlasts the timeout, so queued
        # requests are dropped (deterministic — sim clock, fixed seed).
        report = small_cluster(
            observer=obs, replicas=1, rate_rps=1000.0, timeout_s=0.001
        )
        drops = report.timeout_drops
        assert drops > 0
        assert metric(obs.metrics, "repro_slo_events_total",
                      reason="timeout") == drops


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
        total = sum(
            obs.metrics.series["repro_phase_seconds_total"].values()
        )
        assert total == pytest.approx(total_latency_s)
