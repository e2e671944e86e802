"""The exploration run's published artifact.

An :class:`ExploreReport` is everything one sweep/search produced —
space, strategy, objective contract, every evaluation (point and
objective values), the Pareto frontier and the knee point — in plain JSON-serializable types. Serialization is canonical
(:meth:`ExploreReport.to_json` sorts keys and fixes separators), and
execution accounting (cache hits, worker counts, wall time) lives
*outside* the canonical document on :attr:`ExploreReport.stats`, so two
runs of the same seeded search emit **byte-identical** reports whether
they computed or replayed from cache, serially or in parallel.

:meth:`ExploreReport.to_bench_result` projects the report onto the
:class:`repro.bench.BenchResult` schema so exploration results flow
through the same ``BENCH_<name>.json`` artifacts, baseline comparison
and CI gating as every other bench in the repo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table
from repro.canon import canonical_json


@dataclass
class ExploreReport:
    """Aggregate outcome of one design-space exploration run."""

    space: dict = field(default_factory=dict)
    strategy: dict = field(default_factory=dict)
    objectives: list = field(default_factory=list)
    seed: int = 0
    evaluations: list = field(default_factory=list)
    frontier: list = field(default_factory=list)
    knee: Optional[str] = None
    #: Execution accounting (:class:`repro.explore.runner.RunnerStats`);
    #: intentionally not part of the canonical serialization.
    stats: Optional[object] = None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def evaluation(self, eval_id: str) -> dict:
        """The first record of one point id."""
        for entry in self.evaluations:
            if entry["id"] == eval_id:
                return entry
        raise KeyError(eval_id)

    def frontier_evaluations(self) -> list:
        return [self.evaluation(eval_id) for eval_id in self.frontier]

    def knee_evaluation(self) -> Optional[dict]:
        return self.evaluation(self.knee) if self.knee is not None else None

    @property
    def objective_names(self) -> list:
        return [o["name"] for o in self.objectives]

    # ------------------------------------------------------------------
    # serialization (canonical, byte-stable per seed)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "strategy": self.strategy,
            "objectives": list(self.objectives),
            "seed": self.seed,
            "evaluations": list(self.evaluations),
            "frontier": list(self.frontier),
            "knee": self.knee,
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, fixed separators, trailing newline."""
        return canonical_json(self.to_dict())

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def _varying_knobs(self) -> list:
        """Knob columns worth printing: those not constant over the run."""
        if not self.evaluations:
            return []
        names = sorted(self.evaluations[0]["point"])
        varying = []
        for name in names:
            values = {repr(e["point"].get(name)) for e in self.evaluations}
            if len(values) > 1:
                varying.append(name)
        return varying

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, bool):
            return "on" if value else "off"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def frontier_rows(self, knobs: Optional[list] = None) -> list:
        knobs = self._varying_knobs() if knobs is None else knobs
        rows = []
        for entry in self.frontier_evaluations():
            row = [entry["id"], "*" if entry["id"] == self.knee else ""]
            row += [self._fmt(entry["point"].get(k)) for k in knobs]
            row += [
                self._fmt(entry["objectives"][name])
                for name in self.objective_names
            ]
            rows.append(row)
        return rows

    def render(self) -> str:
        """Printable report: run summary plus the frontier table."""
        summary = format_table(
            ["metric", "value"],
            [
                ["strategy", self.strategy.get("strategy", "?")],
                ["seed", self.seed],
                ["dimensions", len(self.space.get("dimensions", []))],
                ["evaluations", len(self.evaluations)],
                ["frontier size", len(self.frontier)],
                ["knee point", self.knee or "-"],
            ],
            title="Design-space exploration",
        )
        knobs = self._varying_knobs()
        headers = ["point", "knee"] + knobs + [
            f"{o['name']} ({o['direction']})" for o in self.objectives
        ]
        frontier = format_table(
            headers,
            self.frontier_rows(knobs),
            title="Pareto frontier (non-dominated points)",
        )
        return summary + "\n\n" + frontier

    # ------------------------------------------------------------------
    # repro.bench projection
    # ------------------------------------------------------------------
    def to_bench_result(self, name: str, tags=("explore",)):
        """Project onto the bench schema (validates on round-trip)."""
        from repro.bench import BenchResult

        result = BenchResult(
            name=name,
            model=",".join(sorted({
                str(e["point"].get("model", "")) for e in self.evaluations
            } - {""})) or "mix",
            tags=tuple(tags),
        )
        result.add_metric(
            "n_evaluations", float(len(self.evaluations)),
            direction="higher_better", tolerance=0.0,
        )
        result.add_metric(
            "frontier_size", float(len(self.frontier)),
            direction="two_sided", tolerance=0.0,
        )
        frontier = self.frontier_evaluations()
        for objective in self.objectives:
            values = [e["objectives"][objective["name"]] for e in frontier]
            if not values:
                continue
            best = (
                min(values) if objective["direction"] == "lower_better"
                else max(values)
            )
            result.add_metric(
                f"frontier_best.{objective['name']}", best,
                unit=objective.get("unit", ""),
                direction=objective["direction"], tolerance=0.05,
            )
        knee = self.knee_evaluation()
        if knee is not None:
            for objective in self.objectives:
                result.add_metric(
                    f"knee.{objective['name']}",
                    knee["objectives"][objective["name"]],
                    unit=objective.get("unit", ""),
                    direction=objective["direction"], tolerance=0.05,
                )
        knobs = self._varying_knobs()
        result.add_series(
            "Pareto frontier (non-dominated points)",
            ["point", "knee"] + knobs + self.objective_names,
            self.frontier_rows(knobs),
        )
        result.add_note(
            "strategy: " + json.dumps(self.strategy, sort_keys=True)
        )
        return result


__all__ = ["ExploreReport"]
