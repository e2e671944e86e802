"""Unit tests for the exploration runner: cache, parallelism, determinism."""

import dataclasses
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
        """An evaluator is called with the point alone, so its numbers
        cannot depend on the runner seed — a warm cache must be reused."""
        _runner(tmp_path, seed=0).run()
        other = _runner(tmp_path, seed=1)
        other.run()
        assert other.evaluator.calls == 0
        assert other.stats.cache_hits == other.stats.evaluated

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
        assert set(entry) == {"key", "point", "objectives"}

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

    def test_a_changed_hardware_record_misses_the_disk_cache(
        self, tmp_path, monkeypatch
    ):
        """The hardware record keys the on-disk cache: with one field
        changed, a warm directory serves nothing and the sweep equals an
        uncached one."""
        import repro.hw.accelerator
        import repro.hw.constants

        def run(cache_dir):
            evaluator = PointEvaluator(
                objectives=("latency_s", "energy_j"), iterations=4)
            runner = ExploreRunner(default_space("dit"), RandomSearch(budget=3),
                                   evaluator, cache_dir=cache_dir)
            return runner, runner.run().to_json()

        _, cold = run(tmp_path)
        warm, again = run(tmp_path)
        assert (warm.stats.cache_hits, again) == (3, cold)
        changed = dataclasses.replace(repro.hw.constants.HARDWARE,
                                      scaling_efficiency=0.46)
        for module in (repro.hw.constants, repro.hw.accelerator):
            monkeypatch.setattr(module, "HARDWARE", changed)
        rerun, report = run(tmp_path)
        assert rerun.stats.cache_hits == 0
        assert report == run(None)[1] != cold

    def test_a_run_describes_its_evaluator_once(self, tmp_path, monkeypatch):
        """The evaluator is fixed for a run, so its fingerprint is built
        once, not once per point."""
        calls = []
        describe = PointEvaluator.describe
        monkeypatch.setattr(PointEvaluator, "describe",
                            lambda self: calls.append(1) or describe(self))
        evaluator = PointEvaluator(objectives=("latency_s", "energy_j"),
                                   iterations=4)
        runner = ExploreRunner(default_space("dit"), RandomSearch(budget=6),
                               evaluator, cache_dir=tmp_path)
        assert len(runner.run().evaluations) == 6
        assert len(calls) == 1

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
        iteration count: records hold identity and objectives."""
        report = _runner().run()
        assert all(set(e) == {"id", "point", "objectives"}
                   for e in report.evaluations)
        assert not hasattr(_runner().stats, "rounds")

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
