"""Unit tests for the search strategies: one batch of points per run."""

import pytest

from repro.explore.space import Categorical, IntRange, SearchSpace
from repro.explore.strategies import GridSearch, RandomSearch
from repro.workloads.generator import as_rng

SPACE = SearchSpace([
    IntRange("x", 0, 10),
    Categorical("flag", (True, False)),
])


class TestGridSearch:
    def test_cross_product(self):
        points = GridSearch(levels=3).points(SPACE, as_rng(0))
        assert len(points) == 3 * 2
        assert points == SPACE.grid(3)

    def test_ignores_the_rng(self):
        grid = GridSearch(levels=2)
        assert grid.points(SPACE, as_rng(0)) == grid.points(SPACE, as_rng(9))

    def test_describe_is_canonical(self):
        assert GridSearch(levels=2).describe() == {
            "strategy": "grid", "levels": 2,
        }

    @pytest.mark.parametrize("levels", (0, -1))
    def test_rejects_levels_below_one(self, levels):
        # IntRange.grid turns any levels <= 1 into [low], so a zero would
        # otherwise sweep only the low corner without a word.
        with pytest.raises(ValueError, match="levels must be >= 1"):
            GridSearch(levels=levels)

    def test_one_level_is_the_low_corner(self):
        assert GridSearch(levels=1).points(SPACE, as_rng(0)) == [
            {"x": 0, "flag": True}, {"x": 0, "flag": False},
        ]


class TestRandomSearch:
    def test_budget_and_determinism(self):
        batch_a = RandomSearch(budget=5).points(SPACE, as_rng(3))
        batch_b = RandomSearch(budget=5).points(SPACE, as_rng(3))
        assert batch_a == batch_b
        assert len(batch_a) == 5

    def test_describe(self):
        assert RandomSearch(budget=5).describe() == {
            "strategy": "random", "budget": 5,
        }

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="budget"):
            RandomSearch(budget=0)
