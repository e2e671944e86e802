"""Process-wide, content-addressed plan cache: compile once, price once.

Every layer of the stack used to independently re-run the same pure
pipeline — :func:`~repro.program.lower.lower_plan` →
:func:`~repro.program.compiled.compile_plan` →
:meth:`~repro.hw.accelerator.ExionAccelerator.simulate_plan` — for
identical ``(spec, config, scale)`` keys: every executor
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

Keys are content-addressed tuples of the lowering inputs themselves —
the frozen :class:`~repro.workloads.specs.ModelSpec` and
:class:`~repro.core.config.ExionConfig` (which carries the ablation),
schedule shape and scale — so equal inputs share one artifact no matter which
layer asks, and knob-modified specs (the explore path) never collide
with their base model. A lookup hashes those values and builds no key
document, so a warm hit costs microseconds: a fresh
:class:`~repro.cluster.replica.ServiceTimeModel` in a warm process
prices every point from the tiers.

The cache lives in memory, one per process. The tiers are data and
share one lookup routine (:meth:`PlanCache._intern`: memory → compute →
intern); the four public methods differ only in key and defensive
copy. Everything returned is either immutable (plans, compiled
plans) or a defensive copy (reports, profiles), so cached and cold paths
stay byte-identical. Hit/miss counters per tier are read through
:meth:`PlanCache.stats`.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Optional

from repro.core.config import ExionConfig
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


def _accelerator_key(accelerator) -> tuple:
    """Content fingerprint of an accelerator configuration.

    Covers everything :meth:`simulate_plan` reads: the DSC count, GSC
    capacity, the full DRAM model (a frozen dataclass: bandwidth, per-bit
    energy, burst latency) and the hardware-constants record (clock,
    power, efficiencies). Duck-typed so this module never imports
    ``repro.hw`` at module scope.
    """
    return (
        accelerator.name, accelerator.num_dscs, accelerator.gsc_bytes,
        accelerator.dram, accelerator.constants,
    )


def _fields_key(value) -> tuple:
    """The field values of a mutable dataclass (a sparsity profile), in
    field order: the hashable content it is priced by."""
    return (type(value), *(
        getattr(value, f.name) for f in dataclasses.fields(value)
    ))


class PlanCache:
    """Interns lowered plans, compiled schedules, pricings and profiles.

    The four tiers are data — one dict per name in :data:`TIERS` — and
    :meth:`_intern` is the one lookup routine over them; the public
    methods below only say what differs per tier: the key and whether
    callers get a defensive copy.
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
    def plan(
        self,
        spec: ModelSpec,
        config: Optional[ExionConfig] = None,
        iterations: Optional[int] = None,
        batch: int = 1,
        scale: str = "paper",
    ) -> PhasePlan:
        """Memoized :func:`~repro.program.lower.lower_plan`."""
        lowering = (spec, config, iterations, batch, scale)
        return self._intern("plan", lowering, lambda: lower_plan(*lowering))

    def compiled(
        self,
        spec: ModelSpec,
        config: Optional[ExionConfig] = None,
        iterations: Optional[int] = None,
    ) -> CompiledPlan:
        """Memoized ``compile_plan(lower_plan(...))`` of a batch-1
        sim-scale plan, the schedule every executor runs.

        The returned :class:`~repro.program.compiled.CompiledPlan` is
        frozen and shared: every executor bound to the same
        ``(spec, config, iterations)`` reuses one schedule object.
        """
        return self._intern(
            "compiled", (spec, config, iterations),
            lambda: compile_plan(
                self.plan(spec, config, iterations, scale="sim")),
        )

    def price(self, accelerator, plan: PhasePlan, profile):
        """Memoized ``accelerator.simulate_plan(plan, profile)``.

        Keyed by the accelerator fingerprint, the plan (a frozen
        dataclass, hashed by content) and the profile field values;
        returns a defensive copy each call (the report is a mutable
        dataclass carrying breakdown dicts).
        """
        key = (_accelerator_key(accelerator), plan, _fields_key(profile))
        report = self._intern(
            "pricing", key, lambda: accelerator.simulate_plan(plan, profile),
        )
        return dataclasses.replace(
            report,
            energy_breakdown_j=dict(report.energy_breakdown_j),
            op_class_energy_j=dict(report.op_class_energy_j),
        )

    def profile(self, spec: ModelSpec, seed: int = 0, accelerator=None):
        """Memoized :func:`~repro.hw.profile.estimate_profile`.

        The synthesis (mask generation + real ConMerge passes) dominates
        cold fleet setup, so equal ``(spec fields, seed, constants)``
        share one estimate across every replica and explore point. The
        constants are ``accelerator``'s record (default: the
        :data:`~repro.hw.constants.HARDWARE` binding), so a price and
        its profile read one record. Returns a copy:
        :class:`~repro.hw.profile.SparsityProfile` is a mutable dataclass
        and callers may adjust theirs.
        """
        from repro.hw.constants import HARDWARE
        from repro.hw.profile import estimate_profile

        constants = HARDWARE if accelerator is None else accelerator.constants
        return dataclasses.replace(self._intern(
            "profile", (spec, seed, constants),
            lambda: estimate_profile(spec, constants, seed=seed),
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


__all__ = [
    "PlanCache",
    "TIERS",
    "fresh_plan_cache",
    "get_plan_cache",
]
