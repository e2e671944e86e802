"""Process-wide, content-addressed plan cache: compile once, price once.

Every layer of the stack used to independently re-run the same pure
pipeline — :func:`~repro.program.lower.lower_plan` →
:func:`~repro.program.compiled.compile_plan` →
:meth:`~repro.hw.accelerator.ExionAccelerator.simulate_plan` — for
identical ``(spec, config, ablation flags, scale)`` keys: every executor
re-lowered on construction, every cluster replica re-priced the same
plans, every explore point paid full cold compilation even when only
fleet knobs changed. The :class:`PlanCache` interns those artifacts once
per process:

- **plan** — lowered :class:`~repro.program.ir.PhasePlan` objects;
- **compiled** — :class:`~repro.program.compiled.CompiledPlan`
  schedules (structural, derived purely from the plan);
- **pricing** — :class:`~repro.hw.accelerator.AcceleratorReport`
  results of ``simulate_plan`` keyed by the accelerator + sparsity
  profile fingerprints and the plan itself;
- **profile** — :func:`~repro.hw.profile.estimate_profile` synthesis
  (the dominant cold-path cost: ConMerge passes over sampled tiles).

Keys are content-addressed — the same canonical key material as
:func:`~repro.program.encode.plan_digest` (spec document + config
document + ablation flags + schedule shape + scale) — so equal inputs
share one artifact no matter which layer asks, and knob-modified specs
(the explore path) never collide with their base model.

The cache lives in memory, one per process. The tiers are data and
share one lookup routine (:meth:`PlanCache._intern`: memory → compute →
intern); the four public methods differ only in key document and
defensive copy. Everything returned is either immutable (plans, compiled
plans) or a defensive copy (reports, profiles), so cached and cold paths
stay byte-identical. Hit/miss counters per tier are read through
:meth:`PlanCache.stats`.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Optional

from repro.program.compiled import CompiledPlan, compile_plan
from repro.program.ir import PhasePlan
from repro.program.lower import lower_plan
from repro.workloads.specs import ModelSpec

#: Tier names, in lookup-cost order.
TIERS = ("plan", "compiled", "pricing", "profile")
#: Name of each tier's occupancy count in :meth:`PlanCache.stats`.
_ENTRIES_KEY = {
    "plan": "plans", "compiled": "compiled",
    "pricing": "pricings", "profile": "profiles",
}


def _doc(value) -> object:
    """JSON-safe document of one key component (dataclasses included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **dataclasses.asdict(value),
        }
    if isinstance(value, (list, tuple)):
        return [_doc(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _doc(v) for k, v in sorted(value.items())}
    raise TypeError(f"unsupported cache key component: {value!r}")


def _accelerator_doc(accelerator) -> dict:
    """Content fingerprint of an accelerator configuration.

    Covers everything :meth:`simulate_plan` reads: the DSC count, clock,
    GSC capacity and the full DRAM model (bandwidth, per-bit energy,
    burst latency). Duck-typed so this module never imports ``repro.hw``
    at module scope.
    """
    return {
        "name": accelerator.name,
        "num_dscs": accelerator.num_dscs,
        "clock_hz": accelerator.clock_hz,
        "gsc_bytes": accelerator.gsc_bytes,
        "dram": _doc(accelerator.dram),
    }


def _freeze(doc) -> object:
    """Hashable mirror of a JSON-safe key document."""
    if isinstance(doc, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(doc.items()))
    if isinstance(doc, (list, tuple)):
        return tuple(_freeze(v) for v in doc)
    return doc


class PlanCache:
    """Interns lowered plans, compiled schedules, pricings and profiles.

    The four tiers are data — one dict per name in :data:`TIERS` — and
    :meth:`_intern` is the one lookup routine over them; the public
    methods below only say what differs per tier: the key document and
    whether callers get a defensive copy.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tiers: dict = {tier: {} for tier in TIERS}
        self.tier_hits = {tier: 0 for tier in TIERS}
        self.tier_misses = {tier: 0 for tier in TIERS}

    def _intern(self, tier, key, compute):
        """Memory lookup → record → compute → intern."""
        memo = self._tiers[tier]
        with self._lock:
            value = memo.get(key)
        self._record(tier, value is not None)
        if value is not None:
            return value
        value = compute()
        with self._lock:
            return memo.setdefault(key, value)

    # ------------------------------------------------------------------
    # the tiers
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(
        spec, config, enable_ffn_reuse, enable_eager_prediction,
        iterations, batch, scale,
    ) -> dict:
        return {
            "kind": "plan",
            "spec": _doc(spec),
            "config": _doc(config),
            "ablation": {
                "enable_ffn_reuse": enable_ffn_reuse,
                "enable_eager_prediction": enable_eager_prediction,
            },
            "iterations": iterations,
            "batch": batch,
            "scale": scale,
        }

    def plan(
        self,
        spec: ModelSpec,
        config=None,
        enable_ffn_reuse: bool = True,
        enable_eager_prediction: bool = True,
        iterations: Optional[int] = None,
        batch: int = 1,
        scale: str = "paper",
    ) -> PhasePlan:
        """Memoized :func:`~repro.program.lower.lower_plan`."""
        lowering = dict(
            spec=spec, config=config, enable_ffn_reuse=enable_ffn_reuse,
            enable_eager_prediction=enable_eager_prediction,
            iterations=iterations, batch=batch, scale=scale,
        )
        return self._intern(
            "plan", _freeze(self._plan_key(**lowering)),
            lambda: lower_plan(**lowering),
        )

    def compiled(
        self,
        spec: ModelSpec,
        config=None,
        enable_ffn_reuse: bool = True,
        enable_eager_prediction: bool = True,
        iterations: Optional[int] = None,
        batch: int = 1,
        scale: str = "sim",
    ) -> CompiledPlan:
        """Memoized ``compile_plan(lower_plan(...))``.

        The returned :class:`~repro.program.compiled.CompiledPlan` is
        frozen and shared: every executor bound to the same
        ``(spec, config, schedule, scale)`` reuses one schedule object.
        """
        lowering = dict(
            spec=spec, config=config, enable_ffn_reuse=enable_ffn_reuse,
            enable_eager_prediction=enable_eager_prediction,
            iterations=iterations, batch=batch, scale=scale,
        )
        return self._intern(
            "compiled", _freeze(self._plan_key(**lowering)),
            lambda: compile_plan(self.plan(**lowering)),
        )

    def price(self, accelerator, plan: PhasePlan, profile):
        """Memoized ``accelerator.simulate_plan(plan, profile)``.

        Keyed by the accelerator fingerprint, the plan content and the
        profile field values; returns a defensive copy each call (the
        report is a mutable dataclass carrying breakdown dicts).
        """
        key = (
            _freeze(_accelerator_doc(accelerator)), plan,
            _freeze(_doc(profile)),
        )
        report = self._intern(
            "pricing", key, lambda: accelerator.simulate_plan(plan, profile),
        )
        return dataclasses.replace(
            report,
            energy_breakdown_j=dict(report.energy_breakdown_j),
            op_class_energy_j=dict(report.op_class_energy_j),
        )

    def profile(self, spec: ModelSpec, seed: int = 0, **kwargs):
        """Memoized :func:`~repro.hw.profile.estimate_profile`.

        The synthesis (mask generation + real ConMerge passes) dominates
        cold fleet setup, so equal ``(spec fields, seed, sampling
        knobs)`` share one estimate across every replica and explore
        point. Returns a copy: :class:`~repro.hw.profile.SparsityProfile`
        is a mutable dataclass and callers may adjust theirs.
        """
        from repro.hw.profile import estimate_profile

        doc = {
            "kind": "profile",
            "spec": _doc(spec),
            "seed": seed,
            "kwargs": _doc(kwargs),
        }
        return dataclasses.replace(self._intern(
            "profile", _freeze(doc),
            lambda: estimate_profile(spec, seed=seed, **kwargs),
        ))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _record(self, tier: str, hit: bool) -> None:
        with self._lock:
            if hit:
                self.tier_hits[tier] += 1
            else:
                self.tier_misses[tier] += 1

    @property
    def hits(self) -> int:
        return sum(self.tier_hits.values())

    @property
    def misses(self) -> int:
        return sum(self.tier_misses.values())

    def stats(self) -> dict:
        """Occupancy and hit statistics, keys sorted for stable diffs."""
        with self._lock:
            info = {"hits": self.hits, "misses": self.misses}
            for tier in TIERS:
                info[_ENTRIES_KEY[tier]] = len(self._tiers[tier])
                info[f"{tier}_hits"] = self.tier_hits[tier]
                info[f"{tier}_misses"] = self.tier_misses[tier]
        return dict(sorted(info.items()))

    def clear(self) -> None:
        """Drop every interned artifact (counters are kept)."""
        with self._lock:
            for memo in self._tiers.values():
                memo.clear()


# ----------------------------------------------------------------------
# the process-global cache
# ----------------------------------------------------------------------
_global_cache: Optional[PlanCache] = None
_global_lock = threading.Lock()


def get_plan_cache() -> PlanCache:
    """The process-wide cache every construction site shares (lazy)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = PlanCache()
        return _global_cache


@contextmanager
def fresh_plan_cache():
    """Temporarily swap in an empty global cache (bench/test isolation)."""
    global _global_cache
    with _global_lock:
        previous = _global_cache
        _global_cache = PlanCache()
        cache = _global_cache
    try:
        yield cache
    finally:
        with _global_lock:
            _global_cache = previous


# ----------------------------------------------------------------------
# shared construction helper (the deduplicated executor fallback)
# ----------------------------------------------------------------------
def compiled_plan_for(
    spec: ModelSpec,
    config=None,
    iterations: Optional[int] = None,
) -> CompiledPlan:
    """The one shared executor fallback: a cached compiled sim-scale plan.

    Replaces the ``compile_plan(lower_plan(...))`` blocks that every
    executor (and the dry-run continuous server) used to duplicate.
    """
    return get_plan_cache().compiled(spec, config=config, iterations=iterations)


__all__ = [
    "PlanCache",
    "TIERS",
    "compiled_plan_for",
    "fresh_plan_cache",
    "get_plan_cache",
]
