"""Objective functions and Pareto analysis for design-space exploration.

One :class:`PointEvaluator` turns a space point (a plain dict of knob
values, see :mod:`repro.explore.space`) into a dict of objective values by
calling into the layers the repo already has:

- **latency_s / energy_j / tops_per_watt** — the hardware path: the
  point's spec (algorithm *value* knobs folded in by
  :func:`spec_from_point`: FFN-Reuse period, sparsity target, top-k —
  they reshape the phase schedule and the synthesized sparsity profile,
  not just the two enable flags) is lowered once through
  :func:`repro.program.lower_plan` and priced with
  :meth:`repro.hw.accelerator.ExionAccelerator.simulate_plan` on a
  validated custom configuration built from the hardware knobs;
- **accuracy_psnr_db** — mean PSNR against vanilla:
  :func:`repro.workloads.evaluation.evaluate_config` on the point's
  algorithm knobs (hardware knobs deliberately do not perturb the
  accuracy stream, so equal algorithm configs score equal accuracy on
  every hardware variant);
- **slo_attainment / samples_per_s** — the fleet simulator:
  :func:`repro.cluster.simulate_cluster` over a synthesized trace with
  service times priced on the point's hardware configuration.

Seeds are derived with :func:`repro.explore.space.stable_seed` from the
evaluator's ``base_seed`` plus the canonical encoding of exactly the
knobs an objective depends on — the determinism contract that makes
parallel, serial and cache-resumed runs byte-identical.

The module also implements frontier extraction: :func:`pareto_front`
(dominated-point pruning under per-objective directions) and
:func:`knee_point` (closest to the normalized ideal corner).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.core.config import ExionConfig
from repro.explore.space import canonicalize, point_key, stable_seed

#: PSNR is unbounded for exact reproductions (zero MSE); the report JSON
#: forbids non-finite values, so exactness is clamped here.
PSNR_CAP_DB = 99.0


@dataclass(frozen=True)
class Objective:
    """One optimization axis: a name and which way is better."""

    name: str
    direction: str  # "higher_better" or "lower_better"
    unit: str = ""

    def __post_init__(self):
        if self.direction not in ("higher_better", "lower_better"):
            raise ValueError(
                f"objective {self.name!r}: direction must be "
                f"higher_better or lower_better, got {self.direction!r}"
            )

    def oriented(self, value: float) -> float:
        """Map to minimize-is-better orientation."""
        return value if self.direction == "lower_better" else -value

    def to_dict(self) -> dict:
        return {"name": self.name, "direction": self.direction,
                "unit": self.unit}


#: All objectives the built-in evaluator can compute.
OBJECTIVES = {
    "latency_s": Objective("latency_s", "lower_better", "s"),
    "energy_j": Objective("energy_j", "lower_better", "J"),
    "tops_per_watt": Objective("tops_per_watt", "higher_better", "TOPS/W"),
    "accuracy_psnr_db": Objective("accuracy_psnr_db", "higher_better", "dB"),
    "slo_attainment": Objective("slo_attainment", "higher_better", ""),
    "samples_per_s": Objective(
        "samples_per_s", "higher_better", "samples/s"
    ),
}

#: Default tri-objective: speed, energy, accuracy.
DEFAULT_OBJECTIVES = ("latency_s", "energy_j", "accuracy_psnr_db")

#: Knobs the accuracy objective depends on (plus the model + iterations).
_ALGO_KNOBS = (
    "enable_ffn_reuse", "enable_eager_prediction", "sparse_iters_n",
    "ffn_target_sparsity", "top_k_ratio", "q_threshold", "prediction_bits",
)

def get_objective(name: str) -> Objective:
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; "
            f"known: {', '.join(sorted(OBJECTIVES))}"
        ) from None


def config_from_point(model: str, point: dict) -> ExionConfig:
    """The model's Table I config overridden by the point's algorithm knobs.

    Unknown knobs are ignored (they belong to hardware or workload
    dimensions); :class:`~repro.core.config.ExionConfig` validation rejects
    out-of-domain values with its usual messages.
    """
    config = ExionConfig.for_model(model)
    overrides = {
        k: canonicalize(point[k]) for k in _ALGO_KNOBS if k in point
    }
    if overrides:
        config = replace(config, **overrides)
    return config


def accelerator_from_point(point: dict):
    """A validated custom accelerator from the point's hardware knobs."""
    from repro.hw.accelerator import ExionAccelerator

    return ExionAccelerator.custom(
        num_dscs=int(point.get("num_dscs", 24)),
        dram=point.get("dram", "gddr6"),
        bandwidth_gbps=point.get("bandwidth_gbps"),
        gsc_mb=point.get("gsc_mb"),
    )


#: ExionConfig field -> ModelSpec field carrying the same knob. Folding
#: these into the spec is what makes the *value* knobs (FFN-Reuse period,
#: sparsity targets, top-k) move the hardware objectives, not just the
#: two enable flags — the phase schedule and the synthesized sparsity
#: profile both read the spec.
_SPEC_KNOBS = {
    "sparse_iters_n": "sparse_iters_n",
    "ffn_target_sparsity": "target_inter_sparsity",
    "top_k_ratio": "top_k_ratio",
    "q_threshold": "q_threshold",
}


def spec_from_point(model: str, point: dict):
    """The model's workload spec with the point's algorithm knobs folded
    in, so the hardware walk prices the configuration the pipeline would
    actually run."""
    from repro.workloads.specs import get_spec

    config = config_from_point(model, point)
    return replace(
        get_spec(model),
        **{
            spec_field: getattr(config, config_field)
            for config_field, spec_field in _SPEC_KNOBS.items()
        },
    )


@dataclass(frozen=True)
class PointEvaluator:
    """Maps points to objective dicts; picklable for worker processes.

    All fields participate in the runner's cache identity via
    :meth:`describe`.
    """

    objectives: tuple = DEFAULT_OBJECTIVES
    model: str = "dit"
    iterations: Optional[int] = 12
    base_seed: int = 0
    batch: int = 1
    accuracy_samples: int = 2
    cluster_requests: int = 48
    cluster_rate_rps: float = 200.0
    slo_target_s: float = 1.0
    _accuracy_memo: dict = field(default_factory=dict, compare=False,
                                 hash=False, repr=False)

    def describe(self) -> dict:
        """Cache identity: every field that shapes the numbers, with the
        hardware record they are priced on and its pricing revision."""
        from repro.hw.constants import HARDWARE, PRICING_REVISION

        return {
            "kind": "PointEvaluator",
            "objectives": list(self.objectives),
            "model": self.model,
            "iterations": self.iterations,
            "base_seed": self.base_seed,
            "batch": self.batch,
            "accuracy_samples": self.accuracy_samples,
            "cluster_requests": self.cluster_requests,
            "cluster_rate_rps": self.cluster_rate_rps,
            "slo_target_s": self.slo_target_s,
            "hardware": asdict(HARDWARE),
            "pricing_revision": PRICING_REVISION,
        }

    # ------------------------------------------------------------------
    def __call__(self, point: dict) -> dict:
        iterations = self.iterations
        model = str(point.get("model", self.model))
        values: dict = {}
        hw_names = {"latency_s", "energy_j", "tops_per_watt"}
        if hw_names & set(self.objectives):
            values.update(self._hardware_objectives(model, point, iterations))
        if "accuracy_psnr_db" in self.objectives:
            values["accuracy_psnr_db"] = self._accuracy_objective(
                model, point, iterations
            )
        if {"slo_attainment", "samples_per_s"} & set(self.objectives):
            values.update(self._cluster_objectives(model, point, iterations))
        return {name: float(values[name]) for name in self.objectives}

    # ------------------------------------------------------------------
    def _hardware_objectives(
        self, model: str, point: dict, iterations: Optional[int]
    ) -> dict:
        from repro.program.cache import get_plan_cache

        cache = get_plan_cache()
        config = config_from_point(model, point)
        spec = spec_from_point(model, point)
        # Lowering and pricing intern process-wide: a sweep that varies
        # only fleet/hardware knobs compiles each model once, and equal
        # (accelerator, plan, profile) keys replay one pricing.
        plan = cache.plan(
            spec,
            config=config,
            iterations=iterations,
            batch=self.batch,
        )
        # The profile is interned on the spec fields and hardware record its
        # synthesis reads, so points sharing both reuse one estimate.
        accelerator = accelerator_from_point(point)
        profile = cache.profile(
            spec, seed=stable_seed(self.base_seed, "profile", spec.name),
            accelerator=accelerator,
        )
        report = cache.price(accelerator, plan, profile)
        return {
            "latency_s": report.latency_s,
            "energy_j": report.energy_j,
            "tops_per_watt": report.tops_per_watt,
        }

    def _accuracy_objective(
        self, model: str, point: dict, iterations: Optional[int]
    ) -> float:
        from repro.workloads.evaluation import evaluate_config

        config = config_from_point(model, point)
        algo_key = point_key({
            "model": model,
            "iterations": iterations,
            "samples": self.accuracy_samples,
            **{k: getattr(config, k) for k in _ALGO_KNOBS},
        })
        if algo_key not in self._accuracy_memo:
            psnr_db = evaluate_config(
                model,
                config,
                n_samples=self.accuracy_samples,
                iterations=iterations,
                rng=stable_seed(self.base_seed, "accuracy", algo_key),
            )
            self._accuracy_memo[algo_key] = min(psnr_db, PSNR_CAP_DB)
        return self._accuracy_memo[algo_key]

    def _cluster_objectives(
        self, model: str, point: dict, iterations: Optional[int]
    ) -> dict:
        """Fleet objectives over a synthesized trace.

        Service times come from :class:`~repro.cluster.ServiceTimeModel`,
        which prices the model's Table I spec — the algorithm knobs reach
        it only through the ablation enable flags, which is why
        :func:`~repro.explore.space.cluster_space` exposes
        ``enable_ffn_reuse`` but no algorithm *value* knobs.
        """
        from repro.cluster import (
            PoissonProcess,
            ServiceTimeModel,
            SLOPolicy,
            WorkloadMix,
            build_replicas,
            make_router,
            simulate_cluster,
            synthesize_trace,
        )

        ablation = config_from_point(model, point).ablation_name
        rate = float(point.get("rate_rps", self.cluster_rate_rps))
        replicas = int(point.get("replicas", 2))
        router = str(point.get("router", "jsq"))
        scenario_key = point_key({
            "model": model, "ablation": ablation, "rate_rps": rate,
            "requests": self.cluster_requests,
        })
        trace = synthesize_trace(
            PoissonProcess(rate_rps=rate),
            self.cluster_requests,
            mix=WorkloadMix(models=(model,), ablation=ablation),
            rng=stable_seed(self.base_seed, "trace", scenario_key),
        )
        service_model = ServiceTimeModel(
            accelerator_from_point(point),
            iterations=iterations,
            profile_seed=stable_seed(self.base_seed, "profile", model),
        )
        report = simulate_cluster(
            trace,
            replicas=build_replicas(replicas, service_model=service_model),
            router=make_router(router),
            slo=SLOPolicy(latency_target_s=self.slo_target_s),
        )
        return {
            "slo_attainment": report.slo_attainment or 0.0,
            "samples_per_s": report.samples_per_s,
        }


# ----------------------------------------------------------------------
# Pareto extraction
# ----------------------------------------------------------------------
def _oriented_rows(values: list, objectives: list) -> list:
    rows = []
    for entry in values:
        row = []
        for objective in objectives:
            value = float(entry[objective.name])
            if not math.isfinite(value):
                raise ValueError(
                    f"objective {objective.name!r} is not finite: {value!r}"
                )
            row.append(objective.oriented(value))
        rows.append(row)
    return rows


def _dominates(a: list, b: list) -> bool:
    """True when ``a`` is no worse everywhere and better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_front(values: list, objectives: list) -> list:
    """Indices of non-dominated entries, ascending.

    ``values`` is a list of ``{objective_name: value}`` dicts. Duplicate
    coordinate vectors are all kept (none dominates the other).
    """
    rows = _oriented_rows(values, objectives)
    front = []
    for i, row in enumerate(rows):
        if not any(
            _dominates(other, row) for j, other in enumerate(rows) if j != i
        ):
            front.append(i)
    return front


def knee_point(
    values: list, objectives: list, front: Optional[list] = None
) -> Optional[int]:
    """The frontier point closest to the normalized ideal corner.

    Each objective is normalized to [0, 1] over the frontier (0 = best);
    the knee minimizes the Euclidean norm, ties broken by lowest index.
    Returns ``None`` for an empty input.
    """
    if not values:
        return None
    if front is None:
        front = pareto_front(values, objectives)
    rows = _oriented_rows([values[i] for i in front], objectives)
    spans = []
    for axis in range(len(objectives)):
        column = [row[axis] for row in rows]
        low, high = min(column), max(column)
        spans.append((low, (high - low) or 1.0))
    best_index, best_norm = None, None
    for i, row in zip(front, rows):
        norm = math.sqrt(sum(
            ((value - low) / span) ** 2
            for value, (low, span) in zip(row, spans)
        ))
        if best_norm is None or norm < best_norm - 1e-12:
            best_index, best_norm = i, norm
    return best_index


__all__ = [
    "DEFAULT_OBJECTIVES",
    "OBJECTIVES",
    "Objective",
    "PSNR_CAP_DB",
    "PointEvaluator",
    "accelerator_from_point",
    "config_from_point",
    "get_objective",
    "knee_point",
    "pareto_front",
    "spec_from_point",
]
