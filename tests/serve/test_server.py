"""Drain-mode ContinuousServer end to end: batching, results, accounting."""

import numpy as np
import pytest

from repro.cluster import SimClock
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.serve import ContinuousPolicy, ContinuousServer, Priority, ThresholdCache
from repro.serve.request import GenerationRequest

FAST_ITERATIONS = 6


def drain_policy(**knobs):
    return ContinuousPolicy(drain=True, **knobs)


def make_server(**kwargs):
    kwargs.setdefault("total_iterations", FAST_ITERATIONS)
    kwargs.setdefault("policy", drain_policy())
    return ContinuousServer("dit", **kwargs)


def dry_server(**knobs):
    return make_server(
        policy=drain_policy(**knobs), clock=SimClock(),
        price=lambda n, phase: (1.0, 0.0), dry_run=True,
    )


class TestServing:
    def test_unknown_model_fails_at_construction(self):
        with pytest.raises(KeyError):
            ContinuousServer("resnet50")
        # Even with an explicit config (which skips for_model lookup).
        with pytest.raises(KeyError):
            ContinuousServer("resnet50", config=ExionConfig.for_model("dit"))

    def test_prompt_and_class_label_refused_at_submit(self):
        with pytest.raises(ValueError, match="prompt or class_label"):
            GenerationRequest(0, prompt="a corgi", class_label=3)
        server = dry_server()
        with pytest.raises(ValueError, match="prompt or class_label"):
            server.submit(seed=0, prompt="a corgi", class_label=3)
        assert server.submit(seed=0, class_label=3) == 0
        assert [r.request_id for r in server.run_until_drained()] == [0]

    @pytest.mark.parametrize("seed", (-1, True, 1.5, "1", None))
    def test_a_seed_that_is_not_a_non_negative_int_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            GenerationRequest(0, seed=seed, class_label=0)
        server = dry_server()
        with pytest.raises(ValueError, match="seed must be"):
            server.submit(seed=seed, class_label=0)
        assert len(server.queue) == 0

    def test_numpy_int_seed_is_accepted(self):
        assert GenerationRequest(0, seed=np.int64(3), class_label=0).seed == 3

    @pytest.mark.parametrize("size", (2.5, 3.0, True))
    def test_a_max_batch_size_that_is_not_an_int_is_refused(self, size):
        # 2.5 used to serve batches of 3, and True batches of 1.
        with pytest.raises(ValueError,
                           match="max_batch_size must be an integer"):
            ContinuousPolicy(max_batch_size=size)

    def test_numpy_int_max_batch_size_is_accepted(self):
        server = dry_server(max_batch_size=np.int64(3))
        for seed in range(6):
            server.submit(seed=seed, class_label=0)
        assert [r.batch_size for r in server.run_until_drained()] == [3] * 6

    @pytest.mark.parametrize("deadline_s",
                             (float("nan"), float("inf"), float("-inf")))
    def test_non_finite_deadline_is_refused(self, deadline_s):
        with pytest.raises(ValueError, match="deadline_s must be finite"):
            GenerationRequest(0, class_label=0, deadline_s=deadline_s)
        server = dry_server()
        with pytest.raises(ValueError, match="deadline_s must be finite"):
            server.submit(seed=0, class_label=0, deadline_s=deadline_s)
        assert len(server.queue) == 0
        assert server.report().sla_rejects == 0

    def test_a_bad_seed_loses_no_valid_request(self):
        # A refused seed used to be queued, then raise when its run
        # started, after the queue had handed over its batch-mates.
        server = ContinuousServer("dit", total_iterations=FAST_ITERATIONS)
        for seed in (1, -1, 2):
            try:
                server.submit(seed=seed, class_label=0)
            except ValueError:
                pass
        results = server.run_until_drained()
        assert [r.request.seed for r in results] == [1, 2]
        assert len(server.queue) == 0
        assert server.pop_dropped() == []

    def test_results_ordered_and_batched(self):
        server = make_server(policy=drain_policy(max_batch_size=4))
        for seed in range(10):
            server.submit(seed=seed, class_label=seed % 2)
        results = server.run_until_drained()
        assert [r.request_id for r in results] == list(range(10))
        assert [r.batch_size for r in results] == [4] * 8 + [2] * 2
        report = server.report()
        assert report.requests_served == 10
        assert report.ticks == 3
        assert report.mean_batch_size == pytest.approx(10 / 3)
        assert report.samples_per_s > 0

    def test_step_honors_policy(self):
        clock = SimClock()
        server = make_server(
            policy=drain_policy(max_batch_size=4, max_wait_s=5.0),
            clock=clock,
        )
        server.submit(seed=0)
        assert server.step() == []  # 1 request, waited 0s: not due
        clock.now = 6.0
        served = server.step()  # max_wait exceeded: batch of one
        assert len(served) == 1
        assert served[0].batch_size == 1
        assert served[0].wait_s == pytest.approx(6.0)

    def test_empty_queue_step_is_noop(self):
        server = make_server()
        assert server.step() == []
        assert server.run_until_drained() == []
        assert server.report().ticks == 0

    def test_served_results_match_sequential_generation(self):
        server = make_server(policy=drain_policy(max_batch_size=3))
        seeds_labels = [(0, 5), (1, 5), (9, 2), (4, 0)]
        for seed, label in seeds_labels:
            server.submit(seed=seed, class_label=label)
        results = server.run_until_drained()

        model = build_model("dit", seed=0, total_iterations=FAST_ITERATIONS)
        pipeline = ExionPipeline(model, ExionConfig.for_model("dit"),
                                 compiled=False)
        for record, (seed, label) in zip(results, seeds_labels):
            want = pipeline.generate(seed=seed, class_label=label)
            assert np.array_equal(record.result.sample, want.sample)
            assert record.result.stats.summary() == want.stats.summary()

    def test_result_lookup_by_id(self):
        server = make_server()
        rid = server.submit(seed=3, class_label=1)
        with pytest.raises(KeyError):
            server.results[rid]
        server.run_until_drained()
        assert server.results[rid].request.seed == 3

    def test_stats_isolation_across_requests(self):
        server = make_server(policy=drain_policy(max_batch_size=8))
        for seed in range(3):
            server.submit(seed=seed, class_label=0)
        results = server.run_until_drained()
        stats = [r.result.stats for r in results]
        assert len({id(s) for s in stats}) == 3
        assert all(s.dense_iterations > 0 for s in stats)

    def test_shared_cache_across_servers(self):
        cache = ThresholdCache()
        first = make_server(cache=cache)
        first.submit(seed=0)
        first.run_until_drained()
        misses_after_first = cache.info()["misses"]
        second = make_server(cache=cache)
        second.submit(seed=1)
        second.run_until_drained()
        # The second server reuses the first's model.
        assert cache.info()["misses"] == misses_after_first
        assert cache.info()["hits"] > 0

    def test_retain_results_false_keeps_memory_flat(self):
        server = make_server(retain_results=False)
        server.submit(seed=0, class_label=1)
        served = server.run_until_drained()
        assert len(served) == 1
        assert server.results == {}
        assert server.events == []
        # Aggregates still accumulate incrementally.
        assert server.report().requests_served == 1

    def test_result_pop_releases_storage(self):
        server = make_server()
        rid = server.submit(seed=0)
        server.run_until_drained()
        record = server.results.pop(rid)
        assert record.request_id == rid
        with pytest.raises(KeyError):
            server.results[rid]
        # Report aggregates survive the pop.
        assert server.report().requests_served == 1

    def test_price_hook_prices_the_whole_batch_once(self):
        clock = SimClock()
        server = make_server(
            policy=drain_policy(max_batch_size=2),
            clock=clock,
            price=lambda n, phase: (2.5 * n, 7.0 * n),
        )
        clock.now = 1.0
        for seed in range(2):
            server.submit(seed=seed, class_label=0)
        clock.now = 4.0
        results = server.run_until_drained()
        # Simulated accounting: the hook's value, not elapsed wall clock.
        assert [r.service_s for r in results] == [5.0, 5.0]
        assert server.last_tick_phase == "batch"
        assert server.last_tick_energy_j == 14.0
        assert [r.wait_s for r in results] == [3.0, 3.0]
        report = server.report()
        assert report.timing_source == "simulated"
        assert report.busy_s == pytest.approx(5.0)
        assert report.queue_wait_s == pytest.approx(6.0)
        assert report.mean_wait_s == pytest.approx(3.0)
        # Real generation still happened alongside the simulated timing.
        assert results[0].result is not None

    def test_wall_clock_fallback_without_hook(self):
        server = make_server()
        server.submit(seed=0)
        server.run_until_drained()
        assert server.report().timing_source == "wall_clock"

    def test_dry_run_accounts_without_generating(self):
        clock = SimClock()
        server = make_server(
            policy=drain_policy(max_batch_size=4),
            clock=clock,
            price=lambda n, phase: (1.5, 0.0),
            dry_run=True,
        )
        for seed in range(3):
            server.submit(seed=seed, class_label=0)
        results = server.run_until_drained()
        assert [r.result for r in results] == [None, None, None]
        report = server.report()
        assert report.requests_served == 3
        assert report.busy_s == pytest.approx(1.5)
        # No generation ran: the cache never built a model.
        assert server.cache.info()["models"] == 0

    def test_simulated_reports_deterministic(self):
        def run():
            clock = SimClock()
            server = make_server(
                policy=drain_policy(max_batch_size=2),
                clock=clock,
                price=lambda n, phase: (0.25 * n, 0.0),
                dry_run=True,
            )
            for seed in range(5):
                clock.now = 0.1 * seed
                server.submit(seed=seed)
                server.step()
            server.run_until_drained()
            report = server.report()
            return (report.busy_s, report.queue_wait_s, report.ticks)

        assert run() == run()

    def test_report_returns_copy_of_aggregates(self):
        server = dry_server()
        server.submit(seed=0)
        server.run_until_drained()
        server.report().cache_info.clear()
        server.report().latency_quantiles.clear()
        assert server.report().cache_info == server.cache.info()
        assert server.report().latency_quantiles["latency_p50_s"] > 0.0

    def test_latency_accounting(self):
        clock = SimClock()
        server = make_server(clock=clock)
        server.submit(seed=0)
        clock.now = 2.0
        (record,) = server.run_until_drained()
        assert record.wait_s == pytest.approx(2.0)
        assert record.latency_s == pytest.approx(
            record.wait_s + record.service_s
        )

    def test_drained_batch_is_one_step(self):
        # A drain step seats a batch only when empty and runs it through
        # every remaining iteration: one dispatch per micro-batch.
        server = dry_server(max_batch_size=2)
        for seed in range(3):
            server.submit(seed=seed)
        assert server.at_boundary()
        served = server.step()
        assert [r.request_id for r in served] == [0, 1]
        assert server.last_tick_phase == "batch"
        assert not server.active and server.at_boundary()
        report = server.report()
        assert (report.ticks, report.joins) == (1, 2)
        assert report.summary()["batches_served"] == 1
        assert report.mean_occupancy == 2.0

    def test_run_until_drained_ignores_max_wait_on_a_frozen_clock(self):
        server = dry_server(max_batch_size=4, max_wait_s=5.0)
        for seed in range(6):
            server.submit(seed=seed)
        assert len(server.step()) == 4  # a full batch is due at once
        # The partial tail is not: stepping would spin forever here.
        assert not server.due(0.0)
        assert server.step() == []
        results = server.run_until_drained()
        assert [r.request_id for r in results] == [4, 5]
        assert [r.batch_size for r in results] == [2, 2]
        assert not server.has_work

    def test_interactive_request_is_seated_before_queued_batch_ones(self):
        # The one queue honours priority classes in drain mode too.
        server = dry_server(max_batch_size=2)
        for seed in range(3):
            server.submit(seed=seed, priority=Priority.BATCH)
        urgent = server.submit(seed=9, priority=Priority.INTERACTIVE)
        first = server.step()
        assert [r.request_id for r in first] == [urgent, 0]
