"""End-to-end fleet simulation: conservation, scaling, determinism."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    MMPPProcess,
    PoissonProcess,
    ServiceTimeModel,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.serve import ContinuousPolicy

POLICY = ContinuousPolicy(drain=True, max_batch_size=8, max_wait_s=0.0)


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("exion24")


def run_fleet(service_model, n=64, replicas=2, router="jsq", rate=200.0,
              slo=None, seed=0, **replica_kwargs):
    trace = synthesize_trace(PoissonProcess(rate), n, rng=seed)
    fleet = build_replicas(replicas, policy=POLICY,
                           service_model=service_model, **replica_kwargs)
    return simulate_cluster(trace, replicas=fleet,
                            router=make_router(router), slo=slo)


class TestConservation:
    def test_every_request_served_or_dropped(self, service_model):
        report = run_fleet(service_model, n=50, replicas=3)
        assert report.submitted == 50
        assert report.served + report.dropped == 50
        assert report.latency["count"] == report.served
        assert sum(r["requests_served"] for r in report.replicas) == (
            report.served
        )

    def test_makespan_covers_all_completions(self, service_model):
        report = run_fleet(service_model, n=40)
        assert report.makespan_s > 0.0
        for usage in report.replicas:
            assert usage["busy_s"] <= report.makespan_s + 1e-9
            assert 0.0 <= usage["utilization"] <= 1.0

    def test_stale_max_wait_check_does_not_inflate_makespan(
        self, service_model
    ):
        # A batch that fills before its max-wait deadline leaves a stale
        # wake-up in the heap; its pop time must not count as makespan.
        from repro.cluster.traffic import ClusterRequest

        policy = ContinuousPolicy(drain=True, max_batch_size=2, max_wait_s=10.0)
        requests = [
            ClusterRequest(arrival_s=0.0, model="dit", seed=0),
            ClusterRequest(arrival_s=0.5, model="dit", seed=1),
        ]
        report = simulate_cluster(
            requests,
            replicas=build_replicas(1, policy=policy,
                                    service_model=service_model),
            router=make_router("jsq"),
        )
        assert report.served == 2
        # Batch dispatches at t=0.5; makespan is its completion, far
        # below the 10 s max-wait deadline.
        assert report.makespan_s < 2.0
        # Without the fix utilization reads ~4% (busy 0.86 s over a 10 s
        # phantom makespan); correctly it is busy-over-completion.
        assert report.replicas[0]["utilization"] > 0.3

    def test_build_replicas_share_one_service_model(self, service_model):
        fleet = build_replicas(2, service_model=service_model)
        assert all(r.service_model is service_model for r in fleet)
        assert [r.name for r in fleet] == ["replica0", "replica1"]

    def test_empty_trace(self, service_model):
        report = simulate_cluster(
            [], replicas=build_replicas(2, policy=POLICY,
                                        service_model=service_model),
            router=make_router("jsq"),
        )
        assert report.submitted == report.served == 0
        assert report.samples_per_s == 0.0

    def test_requires_replicas(self):
        with pytest.raises(ValueError):
            ClusterSimulator([], make_router("jsq"))


class TestScaling:
    def test_four_replicas_scale_throughput(self, service_model):
        one = run_fleet(service_model, n=96, replicas=1, rate=400.0)
        four = run_fleet(service_model, n=96, replicas=4, rate=400.0)
        assert four.samples_per_s / one.samples_per_s >= 3.0
        # More capacity also cuts the tail.
        assert four.latency["latency_p99_s"] < one.latency["latency_p99_s"]

    def test_scenario_fingerprint(self, service_model):
        report = run_fleet(service_model, replicas=2, router="round_robin")
        assert report.scenario["router"] == "round_robin"
        assert report.scenario["replicas"] == 2
        assert report.scenario["accelerator"] == "EXION24"
        assert report.scenario["models"] == ["dit"]
        assert report.scenario["policy"]["max_batch_size"] == 8


class TestDeterminism:
    def test_same_seed_byte_identical_json(self):
        # Fresh service models on purpose: memoization state must not
        # leak into the published report.
        a = run_fleet(ServiceTimeModel("exion24"), n=80, replicas=3,
                      router="cache_affinity", seed=11)
        b = run_fleet(ServiceTimeModel("exion24"), n=80, replicas=3,
                      router="cache_affinity", seed=11)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self, service_model):
        a = run_fleet(service_model, n=30, seed=1)
        b = run_fleet(service_model, n=30, seed=2)
        assert a.to_json() != b.to_json()


class TestSLOEnforcement:
    def test_admission_and_timeout_drops(self, service_model):
        slo = SLOPolicy(latency_target_s=0.5, timeout_s=1.0,
                        max_queue_depth=6)
        report = run_fleet(service_model, n=80, replicas=1, rate=500.0,
                           slo=slo)
        assert report.admission_drops > 0
        assert report.served + report.dropped == 80
        assert report.slo_attainment is not None
        # Timeouts bound the worst queue wait that still got served.
        assert report.latency["wait_p99_s"] <= 1.0 + 1e-9

    def test_stale_queue_drops_count_as_timeouts_not_admission(self):
        # A queue full of already-expired waiters must not cause
        # admission rejections: arrivals sweep expiry fleet-wide first.
        from repro.cluster.traffic import ClusterRequest

        slow = ServiceTimeModel("exion4")  # long batches, easy overload
        requests = [
            ClusterRequest(arrival_s=0.001 * i, model="dit", seed=i)
            for i in range(12)
        ]
        slo = SLOPolicy(timeout_s=0.5, max_queue_depth=12)
        report = simulate_cluster(
            requests,
            replicas=build_replicas(1, policy=POLICY, service_model=slow),
            router=make_router("jsq"),
            slo=slo,
        )
        # The first batch occupies the replica far past every queued
        # request's timeout; the stale waiters are timeout drops and the
        # never-exceeded depth bound produces no admission drops.
        assert report.admission_drops == 0
        assert report.timeout_drops > 0
        assert report.served + report.dropped == 12

    def test_timeout_fires_at_its_deadline_not_at_max_wait(self, service_model):
        # A lone request with timeout < max_wait must be dropped at the
        # timeout instant: the expiry deadline is a wake-up of its own,
        # so the makespan is ~timeout_s, not max_wait_s.
        from repro.cluster.traffic import ClusterRequest

        policy = ContinuousPolicy(drain=True, max_batch_size=8, max_wait_s=5.0)
        report = simulate_cluster(
            [ClusterRequest(arrival_s=0.0, model="dit", seed=0)],
            replicas=build_replicas(1, policy=policy,
                                    service_model=service_model),
            router=make_router("jsq"),
            slo=SLOPolicy(timeout_s=1.0),
        )
        assert report.timeout_drops == 1
        assert report.served == 0
        assert report.makespan_s == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("continuous", [False, True])
    def test_policy_timeout_wakes_the_fleet(self, continuous):
        # A queue timeout set on the replica policy (not on the fleet SLO)
        # is swept by expire(); its expiry instant must also be a wake-up,
        # or the waiter lingers until the busy replica next checks in.
        from repro.cluster.traffic import ClusterRequest
        from repro.obs import Observer

        observer = Observer()
        report = simulate_cluster(
            [ClusterRequest(arrival_s=0.0, model="dit", seed=0),
             ClusterRequest(arrival_s=0.001, model="dit", seed=1)],
            replicas=build_replicas(
                1, policy=ContinuousPolicy(max_batch_size=1, timeout_s=0.05),
                continuous=continuous),
            router=make_router("jsq"),
            slo=SLOPolicy(),
            observer=observer,
        )
        drops = [e.ts_s for e in observer.tracer.events
                 if e.name == "slo:timeout"]
        assert report.timeout_drops == 1
        assert drops == [pytest.approx(0.051)]

    def test_epoch_scale_timestamps_terminate(self, service_model):
        # Replayed traces can carry absolute (epoch-scale) arrival
        # instants, where a fixed 1e-9 bump would vanish below the float
        # ulp; the nextafter guard must still guarantee progress.
        from repro.cluster.traffic import ClusterRequest

        t0 = 1.75e9
        policy = ContinuousPolicy(drain=True, max_batch_size=8, max_wait_s=5.0)
        report = simulate_cluster(
            [ClusterRequest(arrival_s=t0, model="dit", seed=0)],
            replicas=build_replicas(1, policy=policy,
                                    service_model=service_model),
            router=make_router("jsq"),
            slo=SLOPolicy(timeout_s=1.0),
        )
        assert report.timeout_drops == 1
        assert report.makespan_s == pytest.approx(t0 + 1.0)

    def test_no_slo_means_no_drops(self, service_model):
        report = run_fleet(service_model, n=60, replicas=1, rate=500.0)
        assert report.dropped == 0
        assert report.slo_attainment is None


class TestEventCount:
    """Checks popped per run are linear in what happened: no wall clock,
    only a count of popped checks (every check calls its replica's
    ``try_dispatch`` exactly once). The cell is the fleet-digest grid's
    deadline cell (MMPP 15/60, 2 s deadlines, jsq over 2 replicas)."""

    @staticmethod
    def run(n, continuous):
        trace = synthesize_trace(
            MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), n, rng=2,
            deadline_s=2.0,
        )
        replicas = build_replicas(2, accelerator="exion24",
                                  continuous=continuous)
        checks = 0

        def counted(try_dispatch):
            def check(now):
                nonlocal checks
                checks += 1
                return try_dispatch(now)
            return check

        for replica in replicas:
            replica.try_dispatch = counted(replica.try_dispatch)
        simulator = ClusterSimulator(
            replicas, make_router("jsq"), SLOPolicy(latency_target_s=2.0),
        )
        report = simulator.run(trace)
        dispatches = sum(r["batches_served"] for r in report.replicas)
        return checks, dispatches, report

    @pytest.mark.parametrize("continuous", [False, True])
    def test_checks_are_linear_in_events(self, continuous, record_property):
        checks, dispatches, report = self.run(240, continuous)
        record_property("checks_per_dispatch", checks / dispatches)
        assert report.served + report.dropped == 240
        # One chain per arrival popped 11,524 (drain) and 136,015
        # (continuous) checks here; one wake per (replica, instant) pops
        # 116 and 1,994.
        assert 0 < checks <= dispatches + 240 + report.dropped
        if continuous:
            # Every tick is one check; only an idle wake adds to that.
            assert checks <= dispatches * 1.01

        # Twice the trace of the same process. Drain wakes once per
        # deadline instant and the longer trace drops 2.6x as many, hence
        # the margin above 2x (a chain per arrival grew 4.2x and 3.1x).
        longer, dispatches2, report2 = self.run(480, continuous)
        assert longer <= dispatches2 + 480 + report2.dropped
        assert longer <= 2.5 * checks

    def test_checks_reads_the_last_run(self, service_model):
        """A run pops checks for its own trace only: an empty run after a
        served one pops none."""
        replicas = build_replicas(1, policy=POLICY,
                                  service_model=service_model)
        try_dispatch = replicas[0].try_dispatch
        counts = []

        def check(now):
            counts[-1] += 1
            return try_dispatch(now)

        replicas[0].try_dispatch = check
        simulator = ClusterSimulator(replicas, make_router("jsq"))
        for trace in (synthesize_trace(PoissonProcess(200.0), 8, rng=0), []):
            counts.append(0)
            simulator.run(trace)
        assert counts[0] > 0
        assert counts[1] == 0


class TestRequestIds:
    def test_one_request_object_listed_three_times(self, service_model):
        # A replay built by list multiplication: three arrivals, one
        # object. Keyed by id(request) they shared ordinal 0 and their
        # lifecycle events merged.
        from repro.cluster.traffic import ClusterRequest
        from repro.obs import Observer

        request = ClusterRequest(arrival_s=0.0, model="dit", seed=0)
        observer = Observer()
        report = simulate_cluster(
            [request] * 3,
            replicas=build_replicas(1, policy=POLICY,
                                    service_model=service_model),
            router=make_router("jsq"), observer=observer,
        )
        assert report.served == 3
        queued = [
            event.args["request_id"] for event in observer.tracer.events
            if event.track == "cluster/requests" and event.name == "queued"
        ]
        assert queued == [0, 1, 2]

    @pytest.mark.parametrize("continuous", [False, True])
    def test_served_ids_are_queued_ids_across_servers(self, service_model, continuous):
        # Nine servers each count ids from 0; served events carried those.
        from repro.obs import Observer
        trace = synthesize_trace(PoissonProcess(200.0), 60, WorkloadMix(
            ("dit", "mld", "stable_diffusion")), rng=11)
        fleet = build_replicas(3, policy=POLICY, service_model=service_model,
                               continuous=continuous)
        observer = Observer()
        report = simulate_cluster(trace, fleet, make_router("jsq"), observer=observer)
        queued, served = (sorted(
            (e.args["request_id"], e.args["replica"])
            for e in observer.tracer.events
            if e.track == "cluster/requests" and e.name == stage
        ) for stage in ("queued", "served"))
        assert report.served == len({rid for rid, _ in served}) == 60
        assert served == queued
        models = {e.args["request_id"]: e.args["model"] for e in observer.tracer.events
                  if e.name == "queued"}
        for span in observer.tracer.spans:
            if span.name.startswith("dispatch["):
                assert {models[rid] for rid in span.args["request_ids"]} == {
                    span.args["model"]}

    @staticmethod
    def _deadline_cell(continuous):
        """The observed ``mmpp-deadline2s`` fleet cell of the digests:
        ``(trace, report, observer)``."""
        from repro.obs import Observer
        trace = synthesize_trace(MMPPProcess(15.0, 60.0, mean_dwell_s=2.0),
                                 240, rng=2, deadline_s=2.0)
        observer = Observer()
        report = simulate_cluster(
            trace, build_replicas(2, continuous=continuous), make_router("jsq"),
            slo=SLOPolicy(latency_target_s=2.0), observer=observer,
        )
        return trace, report, observer

    @pytest.mark.parametrize("continuous", [False, True])
    def test_every_queued_id_ends_once(self, continuous):
        # Deadline and timeout drops wrote slo:* events with no id.
        _, report, observer = self._deadline_cell(continuous)
        ends = sorted(
            e.args["request_id"] for e in observer.tracer.events
            if e.track == "cluster/slo"
            or e.track == "cluster/requests" and e.name != "queued"
        )
        assert report.dropped > 0
        assert ends == list(range(240))

    @pytest.mark.parametrize("continuous", [False, True])
    def test_every_deadline_reaches_the_analysis(self, continuous):
        # ``queued`` events carried no deadline: no fleet request had a
        # deadline_ns, and the deadline SLO had no samples.
        from repro.obs.analyze import analyze_tracer, to_ns
        trace, _, observer = self._deadline_cell(continuous)
        analysis = analyze_tracer(observer.tracer)
        arrivals = sorted(trace, key=lambda r: r.arrival_s)  # ordinal order
        assert [r.deadline_ns for r in analysis.attribution.requests] == [
            to_ns(r.deadline_s) for r in arrivals]
        assert analysis.slo["deadline-hit"]["total"] == len(trace)


class TestTracedPriority:
    def test_batch_request_keeps_its_priority_from_arrival_on(
            self, service_model):
        # A priority-0 (BATCH) request was traced ``queued`` as priority 1
        # (STANDARD) but dispatched as 0.
        from repro.cluster.traffic import ClusterRequest
        from repro.obs import Observer

        observer = Observer()
        simulate_cluster(
            [ClusterRequest(arrival_s=0.0, model="dit", priority=0)],
            replicas=build_replicas(1, policy=POLICY,
                                    service_model=service_model),
            router=make_router("jsq"), observer=observer,
        )
        (queued,) = [event for event in observer.tracer.events
                     if event.name == "queued"]
        (dispatch,) = [span for span in observer.tracer.spans
                       if span.name.startswith("dispatch[")]
        assert queued.args["priority"] == 0
        assert dispatch.args["request_ids"] == [queued.args["request_id"]]


class TestExecuteMode:
    def test_executed_results_match_sequential_generation(self):
        from repro.core.config import ExionConfig
        from repro.core.pipeline import ExionPipeline
        from repro.models.zoo import build_model

        iterations = 6
        trace = synthesize_trace(PoissonProcess(50.0), 5, rng=4)
        fleet = build_replicas(
            1, policy=POLICY,
            service_model=ServiceTimeModel("exion24", iterations=iterations),
            execute=True,
        )
        report = simulate_cluster(trace, replicas=fleet,
                                  router=make_router("jsq"))
        assert report.executed
        assert report.served == 5

        server = fleet[0].servers[("dit", "all")]
        model = build_model("dit", seed=0, total_iterations=iterations)
        pipeline = ExionPipeline(model, ExionConfig.for_model("dit"),
                                 compiled=False)
        served = sorted(server.results.values(),
                        key=lambda r: r.request_id)
        assert len(served) == 5
        for record, request in zip(
            served, sorted(trace, key=lambda r: r.arrival_s)
        ):
            want = pipeline.generate(seed=request.seed,
                                     class_label=request.class_label)
            assert np.array_equal(record.result.sample, want.sample)
            # Timing still comes from the hw model, not wall clock.
            assert record.service_s > 0.0
        assert server.report().timing_source == "simulated"
