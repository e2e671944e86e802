"""Parallel evaluation engine with a content-addressed on-disk cache.

:class:`ExploreRunner` evaluates the points one search strategy proposes
over one space:

- evaluators that declare a ``seed`` parameter get an **explicit
  per-point seed** derived from the runner seed and the point's
  canonical encoding (:func:`~repro.explore.space.stable_seed`), so
  results do not depend on evaluation order, worker count, or which
  points were cache hits. Seedless evaluators (e.g.
  :class:`~repro.explore.objectives.PointEvaluator`, which derives its
  streams from its own ``base_seed`` plus the knobs each objective
  depends on) are called without one, and their records carry
  ``seed: null`` — so their cache entries are shared across runner
  seeds instead of being spuriously re-evaluated;
- evaluations fan out over worker processes
  (``concurrent.futures.ProcessPoolExecutor``) when ``workers > 1``;
  each worker receives the evaluator once (its in-process memoization,
  e.g. accuracy results, serves every point that worker draws) and
  ``executor.map`` preserves submission order, so parallel and serial
  runs produce identical reports;
- with ``cache_dir`` set, each evaluation is stored under the SHA-256 of
  its full identity — canonical point, per-point seed (when used), and
  the evaluator's :meth:`describe` fingerprint — so identical
  points are never re-evaluated across sweeps and interrupted runs
  resume for free. Entries live in a :class:`repro.canon.ContentStore`
  (the store under the plan cache's disk tier): atomic writes keep
  concurrent sweeps sharing one directory safe, and an unwritable or full
  directory costs the sweep its persistence, never its results.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.canon import ContentStore, canonical_sha256
from repro.explore.objectives import (
    Objective,
    PointEvaluator,
    get_objective,
    knee_point,
    pareto_front,
)
from repro.explore.report import ExploreReport
from repro.explore.space import (
    SearchSpace,
    canonicalize,
    point_id,
    point_key,
    stable_seed,
)
from repro.workloads.generator import as_rng


@dataclass
class EvaluationRecord:
    """One evaluated point: identity, seed, objective values.

    ``seed`` is ``None`` when the evaluator does not take one (its
    randomness, if any, is self-managed).
    """

    point: dict
    id: str
    seed: Optional[int]
    objectives: dict
    cached: bool = False

    def to_dict(self) -> dict:
        """Canonical serialization (cache provenance deliberately absent:
        hit-vs-miss must not change report bytes)."""
        return {
            "id": self.id,
            "point": canonicalize(self.point),
            "seed": self.seed,
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

    def to_dict(self) -> dict:
        # Key-sorted so the stats block (which sits outside the canonical
        # report serialization) still diffs stably between runs.
        return dict(sorted({
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "workers": self.workers,
        }.items()))


#: Per-worker evaluator installed by :func:`_init_worker`. Sending the
#: evaluator once per worker (instead of once per payload) lets its
#: in-process memoization — e.g. PointEvaluator's per-algorithm-config
#: accuracy cache — keep working across the points that worker draws.
_WORKER_EVALUATOR = None
_WORKER_TAKES_SEED = False


def _init_worker(evaluator: Callable, takes_seed: bool) -> None:
    global _WORKER_EVALUATOR, _WORKER_TAKES_SEED
    _WORKER_EVALUATOR = evaluator
    _WORKER_TAKES_SEED = takes_seed


def _evaluate_in_worker(payload: tuple) -> dict:
    """Worker entry point (top-level so it pickles by module path)."""
    point, seed = payload
    if _WORKER_TAKES_SEED:
        return _WORKER_EVALUATOR(point, seed=seed)
    return _WORKER_EVALUATOR(point)


def _accepts_seed(evaluator: Callable) -> bool:
    """Does the evaluator declare a ``seed`` parameter (or ``**kwargs``)?"""
    try:
        parameters = inspect.signature(evaluator).parameters
    except (TypeError, ValueError):
        return False
    return "seed" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


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
        evaluator: Optional[Callable] = None,
        objectives=None,
        workers: int = 1,
        cache_dir=None,
        seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.space = space
        self.strategy = strategy
        self.evaluator = (
            evaluator if evaluator is not None else PointEvaluator()
        )
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
        self._takes_seed = _accepts_seed(self.evaluator)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_key(self, point: dict, seed: Optional[int]) -> str:
        return canonical_sha256({
            "evaluator": _evaluator_fingerprint(self.evaluator),
            "objectives": [o.name for o in self.objectives],
            "point": canonicalize(point),
            "seed": seed,
        })

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
            "seed": record.seed,
            "objectives": {
                k: float(v) for k, v in sorted(record.objectives.items())
            },
        })

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _evaluate_serial(self, point: dict, seed: Optional[int]) -> dict:
        if self._takes_seed:
            return self.evaluator(point, seed=seed)
        return self.evaluator(point)

    def _evaluate_batch(self, points: list) -> list:
        records = []
        misses = []  # (index into records, cache key, payload)
        for point in points:
            point = self.space.normalize(point)
            seed = (
                stable_seed(self.seed, "point", point_key(point))
                if self._takes_seed else None
            )
            key = self._cache_key(point, seed)
            cached = self._cache_load(key)
            record = EvaluationRecord(
                point=dict(point),
                id=point_id(point),
                seed=seed,
                objectives=cached or {},
                cached=cached is not None,
            )
            if cached is None:
                misses.append((len(records), key, (point, seed)))
            records.append(record)

        if misses:
            payloads = [payload for _, _, payload in misses]
            if self.workers > 1 and len(payloads) > 1:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.evaluator, self._takes_seed),
                ) as pool:
                    outcomes = list(pool.map(_evaluate_in_worker, payloads))
            else:
                outcomes = [self._evaluate_serial(*p) for p in payloads]
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
