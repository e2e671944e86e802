"""PlanCache parity: cached artifacts must be byte-equal to the cold path.

The cache is only admissible if it is invisible — every tier (plan,
compiled, pricing, profile) must hand back exactly what the uncached
pipeline would have produced, for every zoo model, every Table II
accelerator configuration and every ablation arm. These tests pin that
contract, plus the operational properties: concurrent readers, defensive
copies and global-cache isolation.
"""

import dataclasses
import threading

import pytest

from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE
from repro.hw.profile import estimate_profile
from repro.program import (
    compile_plan,
    fresh_plan_cache,
    lower_plan,
    plan_json,
)
from repro.program.cache import TIERS, get_plan_cache
from repro.workloads.specs import ALL_MODEL_ORDER, get_spec

ACCELERATORS = {
    "exion4": ExionAccelerator.exion4,
    "exion24": ExionAccelerator.exion24,
    "exion42": ExionAccelerator.exion42,
}
ABLATIONS = ("base", "ep", "ffnr", "all")


@pytest.fixture()
def cache():
    with fresh_plan_cache() as fresh:
        yield fresh


class TestPlanTierParity:
    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_plan_byte_equal_to_cold_lowering(self, cache, model, ablation):
        spec = get_spec(model)
        config = ExionConfig.for_model(model).ablation(ablation)
        cold = lower_plan(spec, config)
        warm = cache.plan(spec, config)
        assert plan_json(warm) == plan_json(cold)
        assert warm == cold

    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    def test_config_keyed_plan_matches_cold(self, cache, model):
        spec = get_spec(model)
        config = ExionConfig.for_model(model)
        cold = lower_plan(spec, config=config, scale="sim", iterations=8)
        warm = cache.plan(spec, config=config, scale="sim", iterations=8)
        assert plan_json(warm) == plan_json(cold)

    def test_second_lookup_is_interned(self, cache):
        spec = get_spec("dit")
        first = cache.plan(spec)
        second = cache.plan(spec)
        assert first is second
        assert cache.tier_hits["plan"] == 1
        assert cache.tier_misses["plan"] == 1

    def test_distinct_keys_do_not_collide(self, cache):
        spec = get_spec("dit")
        base = cache.plan(spec)
        assert cache.plan(spec, batch=4) is not base
        assert cache.plan(spec, iterations=8) is not base
        assert cache.plan(spec, scale="sim") is not base
        assert cache.plan(
            spec, ExionConfig.for_model("dit", enable_ffn_reuse=False)
        ) is not base
        knobbed = dataclasses.replace(spec, sparse_iters_n=spec.sparse_iters_n + 1)
        assert cache.plan(knobbed) is not base


class TestCompiledTierParity:
    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    def test_compiled_matches_cold_compile(self, cache, model):
        spec = get_spec(model)
        config = ExionConfig.for_model(model)
        cold = compile_plan(lower_plan(spec, config=config, scale="sim"))
        warm = cache.compiled(spec, config=config)
        assert warm == cold

    def test_compiled_shares_the_plan_tier(self, cache):
        spec = get_spec("dit")
        compiled = cache.compiled(spec)
        # the compiled lookup missed, then populated the plan tier too
        assert cache.tier_misses["compiled"] == 1
        assert cache.tier_misses["plan"] == 1
        again = cache.compiled(spec)
        assert again is compiled
        assert cache.tier_hits["compiled"] == 1

    def test_executors_share_the_global_compiled_plan(self):
        from repro.exec.continuous import ContinuousExecutor
        from repro.models.zoo import build_model

        with fresh_plan_cache() as fresh:
            model = build_model("dit", seed=0, total_iterations=4)
            config = ExionConfig.for_model("dit")
            first = ContinuousExecutor(model, config).compiled_plan
            assert ContinuousExecutor(model, config).compiled_plan is first
            assert first is fresh.compiled(model.spec, config)
            assert fresh.tier_hits["compiled"] == 2


class TestPricingTierParity:
    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    @pytest.mark.parametrize("accelerator", sorted(ACCELERATORS))
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_price_equals_cold_simulate_plan(
        self, cache, model, accelerator, ablation
    ):
        spec = get_spec(model)
        acc = ACCELERATORS[accelerator]()
        profile = cache.profile(spec)
        plan = cache.plan(spec, ExionConfig.for_model(model).ablation(ablation))
        cold = acc.simulate_plan(plan, profile)
        warm = cache.price(acc, plan, profile)
        rewarm = cache.price(acc, plan, profile)
        assert warm == cold
        assert rewarm == cold

    def test_cached_report_is_a_defensive_copy(self, cache):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        profile = cache.profile(spec)
        plan = cache.plan(spec)
        first = cache.price(acc, plan, profile)
        first.latency_s = -1.0
        first.energy_breakdown_j.clear()
        second = cache.price(acc, plan, profile)
        assert second.latency_s != -1.0
        assert second.energy_breakdown_j
        assert second is not first

    def test_accelerators_do_not_collide(self, cache):
        spec = get_spec("dit")
        profile = cache.profile(spec)
        plan = cache.plan(spec)
        small = cache.price(ExionAccelerator.exion4(), plan, profile)
        large = cache.price(ExionAccelerator.exion42(), plan, profile)
        assert small.latency_s != large.latency_s
        assert cache.tier_misses["pricing"] == 2

    def test_profile_values_key_the_pricing(self, cache):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        plan = cache.plan(spec)
        profile = cache.profile(spec)
        base = cache.price(acc, plan, profile)
        profile.ffn_sparsity = 0.5
        assert cache.price(acc, plan, profile) == acc.simulate_plan(
            plan, profile
        )
        assert cache.price(acc, plan, cache.profile(spec)) == base
        assert cache.tier_misses["pricing"] == 2


class TestWarmServiceTimeModel:
    def test_second_model_prices_from_the_tiers(self, cache, monkeypatch):
        """A fresh ServiceTimeModel in a warm process prices every point
        with zero cache misses and without building a key document."""
        from repro.cluster.replica import PHASES, ServiceTimeModel

        points = [
            (model, ablation, batch, phase)
            for model in ("dit", "mld", "stable_diffusion")
            for ablation in ("base", "all")
            for batch in (1, 3)
            for phase in PHASES
        ]
        first = ServiceTimeModel("exion24", iterations=8)
        want = [first.price(*point) for point in points]
        misses, hits = cache.misses, cache.hits

        def no_document(*args, **kwargs):
            raise AssertionError("a cache lookup built a key document")

        monkeypatch.setattr(dataclasses, "asdict", no_document)
        monkeypatch.setattr(dataclasses, "astuple", no_document)
        second = ServiceTimeModel("exion24", iterations=8)
        assert [second.price(*point) for point in points] == want
        assert cache.misses == misses
        assert cache.hits > hits


class TestProfileTierParity:
    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    def test_profile_equals_cold_estimate(self, cache, model):
        spec = get_spec(model)
        cold = estimate_profile(spec, HARDWARE)
        warm = cache.profile(spec)
        assert warm == cold

    def test_profile_copy_protects_the_intern(self, cache):
        spec = get_spec("dit")
        first = cache.profile(spec)
        first.ffn_sparsity = 0.0
        second = cache.profile(spec)
        assert second.ffn_sparsity != 0.0
        assert second == estimate_profile(spec, HARDWARE)

    def test_seed_keys_the_profile(self, cache):
        spec = get_spec("dit")
        cache.profile(spec)
        cache.profile(spec, seed=1)
        assert cache.tier_misses["profile"] == 2
        cache.profile(spec)
        assert cache.tier_hits["profile"] == 1


class TestHardwareRecordKeys:
    """Both hardware tiers key on the accelerator's constants record."""

    def test_a_changed_record_field_misses_both_hardware_tiers(self, cache):
        spec = get_spec("dit")
        plan = cache.plan(spec)
        acc = ExionAccelerator.exion24()
        base = cache.price(acc, plan, cache.profile(spec, accelerator=acc))
        changed = ExionAccelerator.exion24()
        changed.constants = dataclasses.replace(
            changed.constants, scaling_efficiency=0.46)
        profile = cache.profile(spec, accelerator=changed)
        report = cache.price(changed, plan, profile)
        assert cache.tier_misses["profile"] == 2
        assert cache.tier_misses["pricing"] == 2
        assert report == changed.simulate_plan(plan, profile)
        assert report.latency_s != base.latency_s

    def test_the_profile_reads_its_accelerator_record(self, cache):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        assert cache.profile(spec) == cache.profile(spec, accelerator=acc)
        assert cache.tier_hits["profile"] == 1
        acc.constants = dataclasses.replace(acc.constants, q_skip=0.5)
        assert cache.profile(spec, accelerator=acc).q_skip == 0.5


class TestConcurrentReaders:
    def test_threads_share_one_interned_artifact(self, cache):
        spec = get_spec("dit")
        acc = ExionAccelerator.exion24()
        results, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                for _ in range(5):
                    plan = cache.plan(spec)
                    profile = cache.profile(spec)
                    report = cache.price(acc, plan, profile)
                    results.append((plan, plan_json(plan), report))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 40
        canonical = results[0][1]
        assert all(r[1] == canonical for r in results)
        # exactly one plan object was interned, shared by every thread
        assert len({id(r[0]) for r in results}) == 1
        assert all(r[2] == results[0][2] for r in results)
        assert cache.stats()["plans"] == 1
        assert cache.stats()["pricings"] == 1


class TestGlobalCacheLifecycle:
    def test_fresh_plan_cache_isolates_and_restores(self):
        outer = get_plan_cache()
        with fresh_plan_cache() as inner:
            assert get_plan_cache() is inner
            assert inner is not outer
            inner.plan(get_spec("dit"))
            assert inner.stats()["plans"] == 1
        assert get_plan_cache() is outer

    def test_stats_keys_sorted(self, cache):
        stats = cache.stats()
        assert list(stats) == sorted(stats)
        for tier in TIERS:
            assert f"{tier}_hits" in stats
            assert f"{tier}_misses" in stats

