"""Service-time model, tick pricing and dispatch mechanics of the one
:class:`Replica` in both scheduling modes (sim time only).

Tick prices must add up to whole-generation prices: a continuous replica
bills per tick and a drain replica per generation, so any pricing drift
would make the two modes incomparable.
"""

import functools
import itertools
from dataclasses import replace

import pytest

from repro import cli
from repro.cluster import (
    ClusterRequest,
    MMPPProcess,
    PoissonProcess,
    Replica,
    ServiceTimeModel,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    load_trace,
    make_accelerator,
    make_router,
    save_trace,
    simulate_cluster,
    synthesize_trace,
)
from repro.core.config import ExionConfig
from repro.cluster.replica import PHASES
from repro.core.ffn_reuse import schedule_phases
from repro.program.cache import fresh_plan_cache, get_plan_cache
from repro.obs import run_trace_scenario
from repro.serve import ContinuousPolicy, ContinuousServer
from repro.workloads.specs import MODEL_SPECS, get_spec


def request(at, model="dit", seed=0, ablation="all"):
    return ClusterRequest(arrival_s=at, model=model, seed=seed,
                          class_label=1, ablation=ablation)


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel("exion24")


def _fleet_dispatches(service_model, continuous):
    """Every dispatch of a two-replica Poisson fleet run."""
    trace = synthesize_trace(PoissonProcess(300.0), 64, rng=3)
    fleet = build_replicas(2, service_model=service_model,
                           continuous=continuous)
    records = []
    for member in fleet:
        member.try_dispatch = lambda now, d=member.try_dispatch: (
            records.append(d(now)) or records[-1]
        )
    simulate_cluster(trace, fleet, make_router("jsq"))
    return [dispatch for dispatch, _ in records if dispatch is not None]


class TestServiceTimeModel:
    def test_accelerator_resolution(self):
        assert make_accelerator("exion4").name == "EXION4"
        with pytest.raises(KeyError):
            make_accelerator("tpu")

    def test_latencies_positive_and_batch_monotone(self, service_model):
        lat1 = service_model.latency_s("dit", "all", 1)
        lat8 = service_model.latency_s("dit", "all", 8)
        assert 0.0 < lat1 < lat8
        # Batching amortizes: per-sample time shrinks with batch size.
        assert lat8 / 8 < lat1

    def test_ablation_changes_latency(self, service_model):
        assert service_model.latency_s("dit", "base", 1) > (
            service_model.latency_s("dit", "all", 1)
        )
        with pytest.raises(ValueError):
            service_model.latency_s("dit", "everything", 1)

    def test_memoized_in_the_one_memo(self, service_model):
        first = service_model.price("dit", "all", 4, "batch")
        assert ("dit", "all", 4, "batch") in service_model._prices
        assert service_model.price("dit", "all", 4, "batch") is first
        assert service_model.latency_s("dit", "all", 4) == first.seconds
        # Whole-generation and tick prices are priced lazily, apart.
        assert ("dit", "all", 4, "dense") not in service_model._prices
        memos = [v for v in vars(service_model).values() if isinstance(v, dict)]
        assert memos == [service_model._prices]

    def test_edge_accelerator_is_slower(self):
        edge = ServiceTimeModel("exion4")
        server = ServiceTimeModel("exion24")
        assert edge.latency_s("dit", "all", 1) > (
            server.latency_s("dit", "all", 1)
        )

    @pytest.mark.parametrize("phase", PHASES)
    def test_bad_batch_size_rejected(self, service_model, phase):
        with pytest.raises(ValueError, match="batch_size"):
            service_model.price("dit", "all", 0, phase)

    @pytest.mark.parametrize("batch_size", (2.5, True))
    @pytest.mark.parametrize("phase", PHASES)
    def test_impossible_batch_size_rejected(self, phase, batch_size):
        # A fresh model: True == 1 would hit a memoized batch-1 price.
        with pytest.raises(ValueError, match="batch_size must be an int"):
            ServiceTimeModel("exion24").price("dit", "all", batch_size, phase)

    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    def test_one_price_table(self, model):
        """``price`` against the plan cache directly: the whole-generation
        report, the 1-iteration report, and the ``t(2) - t(1)`` /
        ``t(P+1) - t(P)`` differences, bit for bit."""
        stm = ServiceTimeModel("exion24")
        cache, spec = get_plan_cache(), get_spec(model)
        profile = cache.profile(spec, seed=0)
        for ablation, batch in itertools.product(
            ("base", "ffnr", "ep", "all"), (1, 8)
        ):
            config = ExionConfig.for_model(model).ablation(ablation)

            def t(iterations):
                plan = cache.plan(spec, config=config, iterations=iterations,
                                  batch=batch)
                report = cache.price(stm.accelerator, plan, profile)
                return report.latency_s, report.energy_j

            period = config.sparse_iters_n + 1 if config.enable_ffn_reuse else 1
            sparse = tuple(max(0.0, b - a) for a, b in zip(t(1), t(2)))
            want = {
                "batch": t(None),
                "cold": t(1),
                "sparse": sparse,
                "dense": sparse if period == 1 else tuple(
                    max(0.0, b - a) for a, b in zip(t(period), t(period + 1))
                ),
            }
            for phase in PHASES:
                assert stm.price(model, ablation, batch, phase) == want[phase]
            assert stm.latency_s(model, ablation, batch) == want["batch"][0]


# ----------------------------------------------------------------------
# per-tick pricing
# ----------------------------------------------------------------------
class TestTickPricing:
    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    @pytest.mark.parametrize("ablation", ["base", "all"])
    def test_ticks_sum_to_generation_price(self, ablation, batch_size):
        """cold + (D-1) dense + S sparse == the whole-generation price,
        in seconds and in joules."""
        stm = ServiceTimeModel("exion4")
        model = "dit"
        iterations = get_spec(model).total_iterations
        config = ExionConfig.for_model(model).ablation(ablation)
        sparse_n = config.sparse_iters_n if config.enable_ffn_reuse else 0
        flags = schedule_phases(iterations, sparse_n)
        dense, sparse = sum(flags), len(flags) - sum(flags)

        price = functools.partial(stm.price, model, ablation, batch_size)
        for unit in (0, 1):
            total = (
                price("cold")[unit]
                + (dense - 1) * price("dense")[unit]
                + sparse * price("sparse")[unit]
            )
            assert total == pytest.approx(price("batch")[unit], rel=1e-6)

    def test_without_ffn_reuse_every_tick_is_dense(self):
        stm = ServiceTimeModel("exion4")
        # no sparse phase exists; one uniform price
        assert stm.price("dit", "base", 1, "dense") == (
            stm.price("dit", "base", 1, "sparse")
        )

    def test_sparse_tick_cheaper_than_dense(self):
        """The point of FFN-Reuse: riding the compiled phase costs less
        than recompiling it — in time and in energy."""
        stm = ServiceTimeModel("exion4")
        sparse = stm.price("dit", "all", 1, "sparse")
        dense = stm.price("dit", "all", 1, "dense")
        assert sparse.seconds < dense.seconds
        assert sparse.joules < dense.joules

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            ServiceTimeModel("exion4").price("dit", "all", 1, "warm")


class TestReplica:
    def make_replica(self, service_model, **knobs):
        knobs.setdefault("max_batch_size", 4)
        return Replica(
            0, service_model=service_model,
            policy=ContinuousPolicy(drain=True, **knobs),
        )

    def test_enqueue_and_greedy_dispatch(self, service_model):
        replica = self.make_replica(service_model)
        assert replica.enqueue(request(0.0, seed=1), now=0.0) == 0
        assert replica.enqueue(request(0.0, seed=2), now=0.0) == 1
        assert replica.queue_depth() == 2
        assert replica.next_event_time(0.0) == 0.0

        outcome, dropped = replica.try_dispatch(0.0)
        assert outcome is not None and outcome.batch_size == 2
        assert dropped == []
        assert outcome.service_s > 0.0
        assert replica.busy_until == pytest.approx(outcome.completion_s)
        assert replica.queue_depth() == 0
        # Busy with nothing pending: no further wake-up needed.
        assert replica.next_event_time(0.0) is None
        # And no double dispatch while busy.
        replica.enqueue(request(0.0, seed=3), now=0.0)
        assert replica.try_dispatch(0.0) == (None, [])
        assert replica.next_event_time(0.0) == replica.busy_until

    def test_cold_start_paid_once_per_key(self, service_model):
        replica = self.make_replica(service_model)
        replica.enqueue(request(0.0, seed=1), now=0.0)
        first, _ = replica.try_dispatch(0.0)
        replica.enqueue(request(0.0, seed=2), now=first.completion_s)
        second, _ = replica.try_dispatch(first.completion_s)
        base = service_model.latency_s("dit", "all", 1)
        assert second.service_s == pytest.approx(base)
        assert first.service_s == pytest.approx(
            base + service_model.calibration_s("dit")
        )
        assert replica.usage(second.completion_s)["cold_starts"] == 1
        assert replica.is_warm(("dit", "all"))
        assert not replica.is_warm(("mld", "all"))

    def test_admission_control(self, service_model):
        """A depth refusal and an SLA reject each count once in usage()."""
        replica = self.make_replica(service_model)
        assert replica.enqueue(request(0.0), now=0.0, max_queue_depth=1) == 0
        assert replica.enqueue(request(0.0), now=0.0, max_queue_depth=1) is None
        assert replica.usage(0.0)["admission_drops"] == 1
        assert replica.enqueue(replace(request(0.0), deadline_s=0.0), now=0.0) is None
        (server,) = replica.servers.values()
        assert server.report().sla_rejects == 1
        assert replica.usage(0.0)["admission_drops"] == 2

    def test_timeout_expiry(self, service_model):
        replica = self.make_replica(service_model, max_wait_s=10.0)
        replica.enqueue(request(0.0, seed=1), now=0.0)
        replica.enqueue(request(5.0, seed=2), now=5.0)
        dropped = replica.expire(6.0, timeout_s=2.0)
        assert len(dropped) == 1
        assert dropped[0].reason == "timeout"
        assert dropped[0].waited_s == pytest.approx(6.0)
        assert replica.usage(6.0)["timeout_drops"] == 1
        assert replica.queue_depth() == 1
        assert replica.expire(6.0, timeout_s=None) == []

    def test_fully_expired_unwarmed_key_loses_affinity(self, service_model):
        replica = self.make_replica(service_model, max_wait_s=10.0)
        replica.enqueue(request(0.0, model="mld"), now=0.0)
        assert replica.is_warm(("mld", "all"))
        # Every queued mld request times out before any batch dispatched:
        # the advertised warmth was never realized.
        assert len(replica.expire(5.0, timeout_s=1.0)) == 1
        assert not replica.is_warm(("mld", "all"))

    def test_continuous_unwarmed_key_loses_affinity_too(self, service_model):
        # Regression: the rule lived in only one of the two replica
        # classes, so cache_affinity kept steering traffic at a
        # continuous replica that never warmed.
        replica = Replica(
            0, service_model=service_model, policy=ContinuousPolicy()
        )
        replica.enqueue(request(0.0), now=0.0)
        assert replica.is_warm(("dit", "all"))
        assert len(replica.expire(5.0, timeout_s=1.0)) == 1
        assert not replica.is_warm(("dit", "all"))

    def test_step_that_seats_nobody_returns_its_deadline_drop(
        self, service_model
    ):
        """A continuous rebalance evicts its only member past the
        deadline: no step runs, and the caller still gets the drop."""
        replica = Replica(
            0, service_model=service_model, policy=ContinuousPolicy()
        )
        replica.enqueue(ClusterRequest(arrival_s=0.0, model="dit",
                                       deadline_s=0.2), now=0.0)
        now = 0.0
        while True:
            outcome, dropped = replica.try_dispatch(now)
            if outcome is None:
                break
            assert dropped == []
            now = outcome.completion_s
        assert now >= 0.2
        # Submitted at 0, so the wait is the drop time.
        assert [(d.reason, d.waited_s) for d in dropped] == [
            ("deadline", now)]
        assert replica.usage(now)["timeout_drops"] == 1

    def test_expired_key_stays_warm_after_a_dispatch(self, service_model):
        replica = self.make_replica(service_model)
        replica.enqueue(request(0.0, seed=1), now=0.0)
        first, _ = replica.try_dispatch(0.0)  # cold start actually paid
        later = first.completion_s
        replica.enqueue(request(later, seed=2), now=later)
        replica.expire(later + 9.0, timeout_s=1.0)
        # The cache genuinely holds the key; expiry must not unmark it.
        assert replica.is_warm(("dit", "all"))

    def test_max_wait_schedules_future_fire(self, service_model):
        replica = self.make_replica(service_model, max_wait_s=2.0)
        replica.enqueue(request(1.0), now=1.0)
        assert replica.try_dispatch(1.5) == (None, [])  # not due yet
        assert replica.next_event_time(1.5) == pytest.approx(3.0)
        outcome, _ = replica.try_dispatch(3.0)
        assert outcome is not None and outcome.batch_size == 1

    def test_drained_service_time_is_the_model_price_bit_for_bit(
        self, service_model
    ):
        # service_s of a drained batch is the hook's price itself, never
        # (now + price) - now, which drifts in the last ulp.
        batches = _fleet_dispatches(service_model, continuous=False)
        assert sum(b.batch_size for b in batches) == 64
        for batch in batches:
            want = service_model.latency_s("dit", "all", batch.batch_size)
            if batch.cold_s:
                want += service_model.calibration_s("dit")
            assert batch.service_s == want
            assert all(r.service_s == want for r in batch.served)

    @pytest.mark.parametrize("continuous, per_size", [(False, 1), (True, 4)])
    def test_fleet_run_prices_each_point_once(self, continuous, per_size):
        """No cold work beyond one lowering + one simulation per distinct
        point: a whole generation per batch size under drain; t(1), t(2),
        t(P), t(P+1) per occupancy for ticks (dit/all has P > 2)."""
        with fresh_plan_cache() as cache:
            stm = ServiceTimeModel("exion24")
            sizes = {len(d.members) for d in _fleet_dispatches(stm, continuous)}
        points = per_size * len(sizes) + 1  # + the cold-start calibration
        assert cache.tier_misses == {
            "plan": points + 1,  # + the dry-run servers' sim-scale schedule
            "compiled": 1, "pricing": points, "profile": 1,
        }
        assert len(stm._prices) == (3 if continuous else 1) * len(sizes) + 1

    def test_a_check_touches_only_busy_servers(
        self, service_model, monkeypatch
    ):
        """Three keys, one with queued work: a sweep visits and collects
        that server alone, and a step collects only the server it ran."""
        replica = self.make_replica(service_model)
        for at, model in enumerate(("dit", "mld", "stable_diffusion")):
            replica.enqueue(request(float(at), model=model), now=float(at))
        now = 2.0
        for model in ("dit", "mld"):  # FIFO across keys drains these two
            outcome, _ = replica.try_dispatch(now)
            assert outcome.model == model
            now = outcome.completion_s
        busy = replica.servers[("stable_diffusion", "all")]
        assert len(replica.servers) == 3
        assert [s for s in replica.servers.values() if s.has_work] == [busy]

        swept, collected = [], []
        expire_queued = ContinuousServer.expire_queued
        pop_dropped = ContinuousServer.pop_dropped
        monkeypatch.setattr(
            ContinuousServer, "expire_queued",
            lambda server, *args, **kwargs: (
                swept.append(server) or expire_queued(server, *args, **kwargs)
            ),
        )
        monkeypatch.setattr(
            ContinuousServer, "pop_dropped",
            lambda server: collected.append(server) or pop_dropped(server),
        )
        assert replica.expire(now, timeout_s=None) == []
        assert swept == [busy] and collected == [busy]

        swept.clear()
        collected.clear()
        outcome, dropped = replica.try_dispatch(now)
        assert outcome.model == "stable_diffusion" and dropped == []
        assert swept == [busy]  # the step's own rebalance sweep
        assert collected == [busy]

    def test_multi_model_fifo_across_servers(self, service_model):
        replica = self.make_replica(service_model, max_wait_s=0.0)
        replica.enqueue(request(0.0, model="mld"), now=0.0)
        replica.enqueue(request(1.0, model="dit"), now=1.0)
        outcome, _ = replica.try_dispatch(2.0)
        # The mld head waited longer, so its server dispatches first.
        assert outcome.model == "mld"


# ----------------------------------------------------------------------
# one price per served step, whoever dispatched it
# ----------------------------------------------------------------------
def _drive_replica(continuous):
    simulate_cluster(
        synthesize_trace(PoissonProcess(300.0), 12, rng=3),
        build_replicas(
            1, policy=ContinuousPolicy(max_batch_size=2),
            service_model=ServiceTimeModel("exion24", iterations=6),
            continuous=continuous,
        ),
        make_router("jsq"),
    )


def _drive_scenario(continuous):
    run_trace_scenario(continuous=continuous, iterations=6, cold_start=True)


def _drive_serve_simulate(continuous):
    cli.main(["serve", "--simulate", "exion24", "--iterations", "6",
              "--requests", "3", "--batch-size", "2"]
             + ["--continuous"] * continuous)


class TestOnePriceAcrossDrivers:
    """The same (model, ablation, batch, phase) step costs the same
    seconds and joules — and the first step the driver's cold surcharge
    on top — whichever of the three drivers dispatched it."""

    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("drive, surcharge", [
        (_drive_replica, lambda ref: ref.calibration_s("dit")),
        (_drive_scenario, lambda ref: ref.price("dit", "all", 1, "cold")[0]),
        (_drive_serve_simulate, lambda ref: 0.0),
    ])
    def test_step_cost(self, monkeypatch, drive, surcharge, continuous):
        steps = []
        inner = ContinuousServer._step

        def spy(server, now, flush=False):
            served = inner(server, now, flush)
            if server.last_tick_phase:
                steps.append((
                    server, server.last_tick_phase,
                    len(server.last_tick_members), server.last_tick_s,
                    server.last_tick_energy_j, server.last_tick_cold_s,
                ))
            return served

        monkeypatch.setattr(ContinuousServer, "_step", spy)
        drive(continuous)
        reference = ServiceTimeModel("exion24", iterations=6)
        warm = set()
        for server, phase, batch, seconds, joules, cold_s in steps:
            want = reference.price("dit", "all", batch, phase)
            cold = 0.0 if server in warm else surcharge(reference)
            warm.add(server)
            assert (seconds, joules, cold_s) == (
                want.seconds + cold, want.joules, cold
            )
        assert {step[1] for step in steps} == (
            {"dense", "sparse"} if continuous else {"batch"}
        )


# ----------------------------------------------------------------------
# fleet wiring
# ----------------------------------------------------------------------
def _trace(n=20, deadline_s=7.0):
    trace = synthesize_trace(
        MMPPProcess(0.8, 4.0, 5.0),
        n,
        mix=WorkloadMix(models=("dit",), ablation="all"),
        rng=0,
        deadline_s=deadline_s,
    )
    return [replace(r, tenant=("a", "b")[i % 2]) for i, r in enumerate(trace)]


def _simulate(continuous):
    return simulate_cluster(
        _trace(),
        replicas=build_replicas(
            1, policy=ContinuousPolicy(max_batch_size=4),
            service_model=ServiceTimeModel("exion4"), continuous=continuous,
            tenant_weights={"a": 2.0, "b": 1.0} if continuous else None,
        ),
        router=make_router("round_robin"),
        slo=SLOPolicy(latency_target_s=7.0),
        scenario={"seed": 0},
    )


class TestFleetModes:
    def test_requests_conserved_and_usage_extended(self):
        report = _simulate(continuous=True)
        drops = report.admission_drops + report.timeout_drops
        assert report.served + drops == report.submitted
        usage = report.replicas[0]
        # Drain-compatible keys stay, continuous counters appear.
        for key in ("requests_served", "busy_s", "utilization", "ticks",
                    "mean_occupancy", "joins", "preemptions",
                    "deadline_evictions"):
            assert key in usage
        assert usage["ticks"] > 0
        assert usage["mean_occupancy"] > 0.0

    def test_fleet_is_deterministic(self):
        assert _simulate(True).to_json() == _simulate(True).to_json()

    def test_drain_rows_carry_no_continuous_counters(self):
        report = _simulate(continuous=False)
        drops = report.admission_drops + report.timeout_drops
        assert report.served + drops == report.submitted
        usage = report.replicas[0]
        assert "ticks" not in usage and "joins" not in usage
        assert usage["mean_batch_size"] == pytest.approx(
            usage["requests_served"] / usage["batches_served"]
        )

    def test_policy_docs_identify_the_mode(self):
        continuous = build_replicas(
            1, policy=ContinuousPolicy(max_batch_size=4, quantum=2.0),
            service_model=ServiceTimeModel("exion4"), continuous=True,
        )[0]
        assert not continuous.policy.drain
        assert continuous.policy_doc() == {
            "mode": "continuous",
            "max_batch_size": 4,
            "quantum": 2.0,
            "preempt": True,
        }
        drain = build_replicas(
            1, policy=ContinuousPolicy(max_batch_size=4, max_wait_s=0.5),
            service_model=ServiceTimeModel("exion4"),
        )[0]
        assert isinstance(drain, Replica) and drain.policy.drain
        # Byte-stable report contract of the drain fleet: exactly the
        # two keys scenario["policy"] always carried.
        assert drain.policy_doc() == {"max_batch_size": 4, "max_wait_s": 0.5}
        # No policy at all (what perfbench passes) is the default drain.
        assert build_replicas(1, accelerator="exion4")[0].policy == (
            ContinuousPolicy(drain=True)
        )

    def test_tenant_weights_require_continuous(self):
        with pytest.raises(ValueError, match="continuous"):
            build_replicas(
                1, service_model=ServiceTimeModel("exion4"),
                tenant_weights={"a": 2.0},
            )


# ----------------------------------------------------------------------
# trace schema: tenants, priorities, deadlines
# ----------------------------------------------------------------------
class TestTraceSchema:
    def test_deadline_and_tenant_assignment(self):
        trace = _trace(n=6, deadline_s=3.0)
        assert [r.tenant for r in trace] == ["a", "b", "a", "b", "a", "b"]
        for request in trace:
            assert request.deadline_s == pytest.approx(request.arrival_s + 3.0)

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ClusterRequest(arrival_s=5.0, model="dit", deadline_s=4.0)
        with pytest.raises(ValueError, match="deadline_s"):
            synthesize_trace(PoissonProcess(1.0), 3, deadline_s=0.0)

    def test_round_trip_preserves_scheduler_fields(self, tmp_path):
        trace = _trace(n=5, deadline_s=2.5)
        path = tmp_path / "trace.jsonl"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded == sorted(trace, key=lambda r: r.arrival_s)
        assert {r.tenant for r in loaded} == {"a", "b"}
        assert all(r.deadline_s is not None for r in loaded)
