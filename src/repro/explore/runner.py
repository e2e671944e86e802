"""Parallel evaluation engine with a content-addressed on-disk cache.

:class:`ExploreRunner` evaluates the points one search strategy proposes
over one space:

- an evaluator is one call, ``evaluator(point) -> {objective: value}``;
  any randomness it needs it derives itself (e.g.
  :class:`~repro.explore.objectives.PointEvaluator` seeds its streams
  from its own ``base_seed`` plus the knobs each objective depends on),
  so a point's values do not depend on evaluation order, worker count,
  the runner seed, or which points were cache hits;
- evaluations fan out over worker processes
  (``concurrent.futures.ProcessPoolExecutor``) when ``workers > 1``;
  each worker receives the evaluator once (its in-process memoization,
  e.g. accuracy results, serves every point that worker draws) and
  ``executor.map`` preserves submission order, so parallel and serial
  runs produce identical reports;
- with ``cache_dir`` set, each evaluation is stored under the SHA-256 of
  its full identity — canonical point and the evaluator's
  :meth:`describe` fingerprint — so identical
  points are never re-evaluated across sweeps and interrupted runs
  resume for free. Entries live in a :class:`repro.canon.ContentStore`
  (the store under the plan cache's disk tier): atomic writes keep
  concurrent sweeps sharing one directory safe, and an unwritable or full
  directory costs the sweep its persistence, never its results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.canon import ContentStore, canonical_sha256
from repro.explore.objectives import (
    Objective,
    get_objective,
    knee_point,
    pareto_front,
)
from repro.explore.report import ExploreReport
from repro.explore.space import SearchSpace, canonicalize, point_id
from repro.workloads.generator import as_rng


@dataclass
class EvaluationRecord:
    """One evaluated point: identity and objective values."""

    point: dict
    id: str
    objectives: dict

    def to_dict(self) -> dict:
        """Canonical serialization, the same for a cache hit and a miss."""
        return {
            "id": self.id,
            "point": canonicalize(self.point),
            "objectives": {
                k: float(v) for k, v in sorted(self.objectives.items())
            },
        }


@dataclass
class RunnerStats:
    """Execution accounting, reported next to (never inside) the canonical
    report so cache hits cannot perturb its bytes."""

    evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1

    @property
    def hit_rate(self) -> float:
        if self.evaluated == 0:
            return 0.0
        return self.cache_hits / self.evaluated


#: Per-worker evaluator installed by :func:`_init_worker`. Sending the
#: evaluator once per worker (instead of once per payload) lets its
#: in-process memoization — e.g. PointEvaluator's per-algorithm-config
#: accuracy cache — keep working across the points that worker draws.
_WORKER_EVALUATOR = None


def _init_worker(evaluator: Callable) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_in_worker(point: dict) -> dict:
    """Worker entry point (top-level so it pickles by module path)."""
    return _WORKER_EVALUATOR(point)


def _evaluator_fingerprint(evaluator: Callable) -> dict:
    if hasattr(evaluator, "describe"):
        return canonicalize(evaluator.describe())
    return {
        "kind": f"{getattr(evaluator, '__module__', '?')}."
                f"{getattr(evaluator, '__qualname__', repr(evaluator))}"
    }


class ExploreRunner:
    """Evaluate a strategy's points over a space, Pareto-prune, report."""

    def __init__(
        self,
        space: SearchSpace,
        strategy,
        evaluator: Callable,
        objectives=None,
        workers: int = 1,
        cache_dir=None,
        seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.space = space
        self.strategy = strategy
        self.evaluator = evaluator
        if objectives is None:
            names = getattr(self.evaluator, "objectives", None)
            if names is None:
                raise ValueError(
                    "pass objectives= when the evaluator does not "
                    "declare an .objectives tuple"
                )
            objectives = names
        # Accept registered names and ad-hoc Objective instances alike
        # (bench sweeps define their own axes).
        self.objectives = [
            o if isinstance(o, Objective) else get_objective(o)
            for o in objectives
        ]
        self.workers = workers
        self._store = ContentStore(cache_dir)
        self.cache_dir = self._store.root
        self.seed = int(seed)
        self.stats = RunnerStats(workers=workers)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_load(self, key: str) -> Optional[dict]:
        data = self._store.load(key)
        objectives = data.get("objectives") if data is not None else None
        if not isinstance(objectives, dict) or set(objectives) != {
            o.name for o in self.objectives
        }:
            return None
        return {k: float(v) for k, v in objectives.items()}

    def _cache_store(self, key: str, record: EvaluationRecord) -> None:
        self._store.store(key, {
            "key": key,
            "point": canonicalize(record.point),
            "objectives": {
                k: float(v) for k, v in sorted(record.objectives.items())
            },
        })

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _evaluate_batch(self, points: list) -> list:
        records = []
        misses = []  # (index into records, cache key, point)
        # The evaluator is fixed for the run: describe it once.
        run_key = {
            "evaluator": _evaluator_fingerprint(self.evaluator),
            "objectives": [o.name for o in self.objectives],
        }
        for point in points:
            point = self.space.normalize(point)
            key = canonical_sha256({**run_key, "point": canonicalize(point)})
            cached = self._cache_load(key)
            record = EvaluationRecord(
                point=dict(point),
                id=point_id(point),
                objectives=cached or {},
            )
            if cached is None:
                misses.append((len(records), key, point))
            records.append(record)

        if misses:
            pending = [point for _, _, point in misses]
            if self.workers > 1 and len(pending) > 1:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.evaluator,),
                ) as pool:
                    outcomes = list(pool.map(_evaluate_in_worker, pending))
            else:
                outcomes = [self.evaluator(point) for point in pending]
            for (index, key, _), objectives in zip(misses, outcomes):
                records[index].objectives = {
                    k: float(v) for k, v in objectives.items()
                }
                self._cache_store(key, records[index])

        self.stats.evaluated += len(records)
        self.stats.cache_misses += len(misses)
        self.stats.cache_hits += len(records) - len(misses)
        return records

    # ------------------------------------------------------------------
    def run(self) -> ExploreReport:
        """Evaluate the strategy's points; return the canonical report."""
        self.stats = RunnerStats(workers=self.workers)
        points = self.strategy.points(self.space, as_rng(self.seed))
        records = self._evaluate_batch(points)
        values = [r.objectives for r in records]
        front = pareto_front(values, self.objectives)
        knee = knee_point(values, self.objectives, front=front)
        report = ExploreReport(
            space=self.space.to_dict(),
            strategy=self.strategy.describe(),
            objectives=[o.to_dict() for o in self.objectives],
            seed=self.seed,
            evaluations=[r.to_dict() for r in records],
            frontier=[records[i].id for i in front],
            knee=records[knee].id if knee is not None else None,
        )
        report.stats = self.stats
        return report


__all__ = [
    "EvaluationRecord",
    "ExploreRunner",
    "RunnerStats",
]
