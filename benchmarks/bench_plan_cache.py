"""Plan-cache amortization: fleets and sweeps stop paying cold compiles.

The claim of :mod:`repro.program.cache`: every construction site
(executors, serving, cluster replicas, explore objectives) lowers,
compiles, profiles and prices through one process-wide content-addressed
:class:`~repro.program.cache.PlanCache`, so

- a **fleet** of N replicas over M models runs exactly M sparsity-profile
  syntheses and one lowering+pricing per distinct (model, ablation,
  batch) point between them, and re-priming against the warm cache
  computes nothing;
- a repeated-config **explore-style sweep** (fleet knobs vary, the
  (spec, config) key does not) hits the in-process tiers on every lookup
  of the second pass — a **100% hit rate**;
- everything stays **byte-identical**: cached pricing equals a cold
  ``simulate_plan`` on a cold ``lower_plan`` for every model priced.

These are counters and digests. The host time a warm cache saves is
``perfbench``'s (``program.cache_hit_rate_steady``,
``program.cache_misses_setup``, ``setup_s``).

Run with::

    pytest benchmarks/bench_plan_cache.py --import-mode=importlib -s
"""

from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.cluster.replica import ServiceTimeModel
from repro.hw.accelerator import ExionAccelerator
from repro.program import lower_plan, plan_json
from repro.program.cache import fresh_plan_cache, get_plan_cache
from repro.workloads.specs import get_spec

FLEET_REPLICAS = 4
FLEET_MODELS = ("dit", "mld", "mdm")
FLEET_ABLATIONS = ("base", "all")
FLEET_BATCHES = (1, 4)
SWEEP_POINTS = 24  # explore-style: fleet knobs vary, plan keys repeat


def _prime_fleet() -> None:
    """Construct one fleet's service-time models: the hw-priced part of
    replica setup (profile synthesis + lowering + pricing per point)."""
    for _ in range(FLEET_REPLICAS):
        stm = ServiceTimeModel("exion24")
        for model in FLEET_MODELS:
            for ablation in FLEET_ABLATIONS:
                for batch in FLEET_BATCHES:
                    stm.latency_s(model, ablation, batch)


def _run_sweep() -> None:
    """Price an explore-style sweep: every point re-asks for the same
    (spec, config) plans — only fleet knobs differ between points."""
    cache = get_plan_cache()
    accelerator = ExionAccelerator.exion24()
    for model in FLEET_MODELS:
        spec = get_spec(model)
        config = ExionConfig.for_model(model)
        profile = cache.profile(spec)
        for _ in range(SWEEP_POINTS):
            plan = cache.plan(spec, config=config)
            cache.price(accelerator, plan, profile)


def _pass_counts(cache, work) -> tuple:
    """``(hits, misses)`` the cache counted while ``work()`` ran."""
    before = cache.stats()
    work()
    after = cache.stats()
    return (after["hits"] - before["hits"],
            after["misses"] - before["misses"])


@register_bench("plan_cache", tags=("program", "perf", "smoke"))
def build_plan_cache(ctx):
    # ------------------------------------------------------------------
    # fleet construction: cold pass, then re-prime against the warm cache
    # ------------------------------------------------------------------
    with fresh_plan_cache() as cache:
        fleet_cold = _pass_counts(cache, _prime_fleet)
        fleet_warm = _pass_counts(cache, _prime_fleet)
        # profile tier: M models, not N x M replica-profiles
        profiles_synthesized = cache.tier_misses["profile"]

    # ------------------------------------------------------------------
    # explore-style sweep: repeated keys, second pass must be all hits
    # (its own fresh cache, so the cold pass really is cold)
    # ------------------------------------------------------------------
    with fresh_plan_cache() as cache:
        sweep_cold = _pass_counts(cache, _run_sweep)
        sweep_warm = _pass_counts(cache, _run_sweep)
        hits, misses = sweep_warm
        hit_rate = hits / (hits + misses) if hits + misses else 0.0

        # ------------------------------------------------------------------
        # byte identity: cached pricing == cold simulate on a cold lowering
        # ------------------------------------------------------------------
        accelerator = ExionAccelerator.exion24()
        identical = True
        for model in FLEET_MODELS:
            spec = get_spec(model)
            config = ExionConfig.for_model(model)
            cold_plan = lower_plan(spec, config=config)
            warm_plan = cache.plan(spec, config=config)
            profile = cache.profile(spec)
            cold_report = accelerator.simulate_plan(cold_plan, profile)
            warm_report = cache.price(accelerator, warm_plan, profile)
            identical &= plan_json(warm_plan) == plan_json(cold_plan)
            identical &= warm_report == cold_report

    result = BenchResult("plan_cache", model="+".join(FLEET_MODELS))
    result.add_series(
        f"{FLEET_REPLICAS}-replica fleet over {len(FLEET_MODELS)} models, "
        f"{len(FLEET_MODELS) * SWEEP_POINTS}-point sweep",
        ["scenario", "pass", "hits", "misses"],
        [
            ["fleet construction", "cold", *fleet_cold],
            ["fleet construction", "warm", *fleet_warm],
            ["explore sweep", "cold", *sweep_cold],
            ["explore sweep", "warm", *sweep_warm],
        ],
    )
    result.add_note(
        f"profile syntheses: {profiles_synthesized} "
        f"(= {len(FLEET_MODELS)} models, not "
        f"{FLEET_REPLICAS * len(FLEET_MODELS)} replica-profiles); "
        f"warm-pass hit rate {hit_rate:.3f}"
    )
    # Hard gates: parity and full interning are all-or-nothing.
    result.add_metric("byte_identity", 1.0 if identical else 0.0,
                      direction="higher_better", tolerance=0.0)
    result.add_metric("warm_pass_hit_rate", hit_rate,
                      direction="higher_better", tolerance=0.0)
    result.add_metric("profiles_per_model",
                      profiles_synthesized / len(FLEET_MODELS),
                      direction="lower_better", tolerance=0.0)
    return result


def test_plan_cache(bench_ctx):
    from .conftest import emit_result

    result = build_plan_cache(bench_ctx)
    emit_result(result)

    assert result.value("byte_identity") == 1.0
    assert result.value("warm_pass_hit_rate") == 1.0
    assert result.value("profiles_per_model") == 1.0
