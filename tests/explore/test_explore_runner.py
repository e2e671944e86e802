"""Unit tests for the exploration runner: cache, parallelism, determinism."""

import json

import pytest

from repro.explore import (
    Categorical,
    ExploreRunner,
    GridSearch,
    IntRange,
    Objective,
    PointEvaluator,
    RandomSearch,
    SearchSpace,
    default_space,
)

SPACE = SearchSpace([
    IntRange("x", 0, 4),
    Categorical("flag", (True, False)),
])

METRIC = Objective("metric", "lower_better")


class CountingEvaluator:
    """Cheap deterministic evaluator that counts real evaluations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, point):
        self.calls += 1
        return {"metric": float(point["x"]) + (
            0.5 if point["flag"] else 0.0
        )}

    def describe(self):
        # Identity is shared across instances so fresh runners hit the
        # cache files an earlier instance wrote.
        return {"kind": "counting", "version": 1}


class SeededEvaluator(CountingEvaluator):
    """Opts into the runner's explicit per-point seeds."""

    def __call__(self, point, seed=None):
        self.calls += 1
        self.seen_seeds = getattr(self, "seen_seeds", []) + [seed]
        return {"metric": float(point["x"]) + (seed or 0) * 0.0}

    def describe(self):
        return {"kind": "seeded-counting", "version": 1}


def _runner(tmp_path=None, evaluator=None, strategy=None, seed=0):
    return ExploreRunner(
        SPACE,
        strategy if strategy is not None else GridSearch(levels=2),
        evaluator if evaluator is not None else CountingEvaluator(),
        objectives=(METRIC,),
        cache_dir=tmp_path,
        seed=seed,
    )


class TestCache:
    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path):
        first = _runner(tmp_path)
        report1 = first.run()
        assert first.stats.cache_misses == first.stats.evaluated > 0
        assert first.evaluator.calls == first.stats.evaluated

        second = _runner(tmp_path)
        report2 = second.run()
        assert second.evaluator.calls == 0
        assert second.stats.cache_hits == second.stats.evaluated
        assert second.stats.hit_rate == 1.0
        assert report2.to_json() == report1.to_json()

    def test_seedless_evaluator_shares_cache_across_run_seeds(self, tmp_path):
        """CountingEvaluator takes no seed, so its numbers cannot depend
        on the runner seed — a warm cache must be reused."""
        _runner(tmp_path, seed=0).run()
        other = _runner(tmp_path, seed=1)
        other.run()
        assert other.evaluator.calls == 0
        assert other.stats.cache_hits == other.stats.evaluated

    def test_seeded_evaluator_misses_across_run_seeds(self, tmp_path):
        first = _runner(tmp_path, seed=0, evaluator=SeededEvaluator())
        first.run()
        other = _runner(tmp_path, seed=1, evaluator=SeededEvaluator())
        other.run()
        assert other.stats.cache_misses == other.stats.evaluated

    def test_corrupt_cache_entry_is_reevaluated(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run()
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        entries[0].write_text("{ torn", encoding="utf-8")
        again = _runner(tmp_path)
        again.run()
        assert again.evaluator.calls == 1
        assert again.stats.cache_misses == 1

    def test_cache_entry_records_full_identity(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run()
        entry = json.loads(
            sorted(tmp_path.rglob("*.json"))[0].read_text(encoding="utf-8")
        )
        assert set(entry) == {"key", "point", "seed", "objectives"}

    @pytest.mark.parametrize("how", ["read_only", "not_a_directory"])
    def test_unwritable_cache_dir_keeps_the_sweep(self, tmp_path, how):
        """An unwritable cache costs persistence, never the evaluations
        just paid for. Mode bits do not stop root; a path that runs
        through a regular file is unwritable for every uid."""
        if how == "read_only":
            cache_dir = tmp_path / "ro"
            cache_dir.mkdir(mode=0o555)
        else:
            (tmp_path / "file").write_text("", encoding="utf-8")
            cache_dir = tmp_path / "file" / "cache"
        runner = _runner(cache_dir)
        report = runner.run()
        assert runner.evaluator.calls == runner.stats.evaluated > 0
        assert report.to_json() == _runner(None).run().to_json()

    def test_no_cache_dir_always_evaluates(self):
        runner = _runner(None)
        runner.run()
        assert runner.stats.cache_hits == 0
        assert runner.stats.cache_misses == runner.stats.evaluated


class TestDeterminism:
    def test_parallel_and_serial_reports_are_identical(self):
        """The acceptance contract: --workers N never changes the bytes.

        Uses the real (importable) evaluator because worker processes
        re-import it by module path.
        """
        space = default_space("dit").restrict("num_dscs", (4, 24))
        evaluator = PointEvaluator(
            objectives=("latency_s", "energy_j"), iterations=4,
        )
        serial = ExploreRunner(
            space, RandomSearch(budget=4), evaluator, workers=1, seed=0,
        ).run()
        parallel = ExploreRunner(
            space, RandomSearch(budget=4), evaluator, workers=4, seed=0,
        ).run()
        assert parallel.to_json() == serial.to_json()
        assert parallel.frontier == serial.frontier

    def test_per_point_seeds_are_stable_and_reach_the_evaluator(self):
        a_eval, b_eval = SeededEvaluator(), SeededEvaluator()
        a = _runner(evaluator=a_eval).run()
        b = _runner(evaluator=b_eval).run()
        seeds = [e["seed"] for e in a.evaluations]
        assert seeds == [e["seed"] for e in b.evaluations]
        assert len(set(seeds)) == len(seeds)
        # The recorded seeds are the ones the evaluator actually received.
        assert a_eval.seen_seeds == seeds

    def test_seedless_evaluator_records_null_seed(self):
        report = _runner().run()
        assert all(e["seed"] is None for e in report.evaluations)


class TestRunnerProtocol:
    def test_grid_report_shape(self):
        runner = _runner()
        report = runner.run()
        assert len(report.evaluations) == 2 * 2
        # lowest x, flag off is the single best point on one objective
        assert len(report.frontier) == 1
        best = report.evaluation(report.frontier[0])
        assert best["point"]["x"] == 0 and best["point"]["flag"] is False
        assert report.knee == report.frontier[0]

    def test_evaluations_carry_no_iteration_budget(self):
        """Every point is evaluated once, at the evaluator's own
        iteration count: records hold identity, seed and objectives."""
        report = _runner().run()
        assert all(set(e) == {"id", "point", "seed", "objectives"}
                   for e in report.evaluations)
        assert "rounds" not in _runner().stats.to_dict()

    def test_repeated_point_resolves_to_its_first_record(self):
        class Twice(GridSearch):
            def points(self, space, rng):
                return [{"x": 0, "flag": True}] * 2

        report = _runner(strategy=Twice()).run()
        assert len(report.evaluations) == 2
        assert report.evaluation(report.knee) is report.evaluations[0]

    def test_invalid_point_rejected(self):
        bad_space = SearchSpace([IntRange("x", 0, 4)])

        class BadStrategy(GridSearch):
            def points(self, space, rng):
                return [{"x": 99}]

        with pytest.raises(ValueError, match="outside dimension"):
            ExploreRunner(bad_space, BadStrategy(), CountingEvaluator(),
                          objectives=(METRIC,)).run()

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExploreRunner(SPACE, GridSearch(), CountingEvaluator(),
                          objectives=(METRIC,), workers=0)

    def test_objectives_required_for_plain_callables(self):
        with pytest.raises(ValueError, match="objectives"):
            ExploreRunner(SPACE, GridSearch(), lambda p: {})
