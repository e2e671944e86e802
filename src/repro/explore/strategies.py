"""Search strategies: an exhaustive grid and seeded random sampling.

A strategy proposes the one batch of points
:class:`repro.explore.runner.ExploreRunner` evaluates:
:meth:`points(space, rng)` is a pure function of the space and the
runner's seeded generator, so serial, parallel and cache-resumed runs
evaluate identical point sequences; :meth:`describe` is the strategy's
entry in the report.
"""

from __future__ import annotations


class GridSearch:
    """Exhaustive cross product of ``levels``-point grids, one per range
    dimension (see :meth:`repro.explore.space.SearchSpace.grid`)."""

    name = "grid"

    def __init__(self, levels: int = 3):
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.levels = levels

    def points(self, space, rng) -> list:
        return space.grid(self.levels)

    def describe(self) -> dict:
        return {"strategy": self.name, "levels": self.levels}


class RandomSearch:
    """``budget`` points sampled from the runner's seeded stream."""

    name = "random"

    def __init__(self, budget: int = 16):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget

    def points(self, space, rng) -> list:
        return space.sample_batch(self.budget, rng)

    def describe(self) -> dict:
        return {"strategy": self.name, "budget": self.budget}


__all__ = ["GridSearch", "RandomSearch"]
