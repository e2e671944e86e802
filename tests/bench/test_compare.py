"""Regression-gate tests: the compare catches what it must, only that."""

import copy
import inspect
import json
import math
from pathlib import Path

import pytest

from repro import cli
from repro.bench import BenchResult, compare_results, load_results, paper_summary
from repro.bench.compare import format_report
from repro.bench.runner import write_results

BASELINE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baseline" / "BENCH_repro.json"
)


def gate_result():
    result = BenchResult("gate_bench", model="dit")
    result.add_metric("speedup", 2.5, unit="x", direction="higher_better",
                      tolerance=0.10)
    result.add_metric("error", 0.02, direction="lower_better",
                      tolerance=0.10)
    result.add_metric("paper_constant", 39.2, direction="two_sided",
                      tolerance=0.01)
    return result


def result_set():
    return {"gate_bench": gate_result().to_dict()}


class TestCompare:
    def test_identical_rerun_passes(self):
        baseline = result_set()
        report = compare_results(baseline, copy.deepcopy(baseline))
        assert report.ok
        assert report.exit_code() == 0
        assert "no differences" in format_report(report)

    def test_a_last_bit_drift_is_counted_within_tolerance(
        self, tmp_path, capsys
    ):
        # Passing the gate is not byte identity: a value that moved in its
        # last bit is counted in the summary, and the compare still exits 0.
        baseline = result_set()
        current = copy.deepcopy(baseline)
        speedup = current["gate_bench"]["metrics"]["speedup"]
        speedup["value"] = math.nextafter(speedup["value"], math.inf)
        paths = []
        for name, results in (("baseline", baseline), ("current", current)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"results": results}))
        assert cli.main(["bench", "--compare", *map(str, paths),
                         "--strict"]) == 0
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("changed within tolerance")]
        assert row.split()[-1] == "1"
        assert compare_results(baseline, copy.deepcopy(baseline)
                               ).within_tolerance == 0

    def test_v1_document_with_timing_block_compares_clean(self, tmp_path):
        # An artefact written before schema v2 still carries a clock
        # reading; it must stay diffable, and the reading is ignored.
        current = result_set()
        old = copy.deepcopy(current["gate_bench"])
        old["schema_version"] = 1
        old["timing"] = {"wall_s": 10.0}
        path = tmp_path / "BENCH_gate_bench.json"
        path.write_text(json.dumps(old))
        for baseline, other in ((load_results(path), current),
                                (current, load_results(path))):
            report = compare_results(baseline, other, strict=True)
            assert report.ok
            assert not report.improvements and not report.notes

    def test_compare_takes_no_latency_argument(self):
        assert list(inspect.signature(compare_results).parameters) == [
            "baseline", "current", "strict",
        ]

    def test_higher_better_drop_fails(self):
        baseline = result_set()
        current = copy.deepcopy(baseline)
        current["gate_bench"]["metrics"]["speedup"]["value"] = 2.0  # -20%
        report = compare_results(baseline, current)
        assert not report.ok
        assert "speedup" in report.regressions[0]

    def test_lower_better_rise_fails(self):
        baseline = result_set()
        current = copy.deepcopy(baseline)
        current["gate_bench"]["metrics"]["error"]["value"] = 0.03
        assert not compare_results(baseline, current).ok

    def test_two_sided_drift_fails_both_ways(self):
        for factor in (0.9, 1.1):
            baseline = result_set()
            current = copy.deepcopy(baseline)
            current["gate_bench"]["metrics"]["paper_constant"]["value"] = (
                39.2 * factor
            )
            assert not compare_results(baseline, current).ok

    def test_improvement_direction_not_flagged(self):
        baseline = result_set()
        current = copy.deepcopy(baseline)
        current["gate_bench"]["metrics"]["speedup"]["value"] = 5.0
        report = compare_results(baseline, current)
        assert report.ok
        assert report.improvements

    def test_missing_bench_is_note_unless_strict(self):
        baseline = result_set()
        report = compare_results(baseline, {})
        assert report.ok
        assert report.notes
        strict = compare_results(baseline, {}, strict=True)
        assert not strict.ok

    def test_missing_metric_is_note_unless_strict(self):
        baseline = result_set()
        current = copy.deepcopy(baseline)
        del current["gate_bench"]["metrics"]["error"]
        assert compare_results(baseline, current).ok
        assert not compare_results(baseline, current, strict=True).ok

    def test_moved_paper_reference_is_note_unless_strict(self):
        baseline = result_set()
        baseline["gate_bench"]["metrics"]["speedup"]["paper"] = 3.0
        for paper in (None, 3.5):
            current = copy.deepcopy(baseline)
            current["gate_bench"]["metrics"]["speedup"]["paper"] = paper
            report = compare_results(baseline, current)
            assert report.ok
            assert report.notes == [
                f"gate_bench:speedup paper reference 3.0 -> {paper}"
            ]
            strict = compare_results(baseline, current, strict=True)
            assert not strict.ok
            assert strict.regressions == report.notes

    def test_new_bench_is_note(self):
        baseline = result_set()
        current = copy.deepcopy(baseline)
        current["extra_bench"] = copy.deepcopy(baseline["gate_bench"])
        current["extra_bench"]["name"] = "extra_bench"
        report = compare_results(baseline, current)
        assert report.ok
        assert any(f.startswith("extra_bench:") for f in report.notes)


class TestLoadResults:
    def test_load_aggregate_file_and_directory(self, tmp_path):
        write_results({"gate_bench": gate_result()}, tmp_path)

        from_file = load_results(tmp_path / "BENCH_repro.json")
        from_dir = load_results(tmp_path)
        assert set(from_file) == {"gate_bench"}
        assert from_file == from_dir

    def test_load_single_result_file(self, tmp_path):
        path = tmp_path / "BENCH_gate_bench.json"
        path.write_text(json.dumps(result_set()["gate_bench"]))
        loaded = load_results(path)
        assert set(loaded) == {"gate_bench"}

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "BENCH_junk.json"
        path.write_text(json.dumps({"neither": 1}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path)


def referenced(*pairs, unreferenced=0):
    """A result set of metrics with ``(value, paper)`` references, plus
    ``unreferenced`` metrics that carry none."""
    result = BenchResult("refs")
    for i, (value, paper) in enumerate(pairs):
        result.add_metric(f"ref{i}", value, paper=paper)
    for i in range(unreferenced):
        result.add_metric(f"plain{i}", 100.0 * (i + 1))
    return {"refs": result.to_dict()}


class TestPaperSummary:
    def test_counts_predictions_median_and_the_far_ones(self):
        # Deviations 0.1, 0.2, 0.5, 0.4 and 0.0: median 0.2, two above 30 %.
        results = referenced((1.1, 1.0), (8.0, 10.0), (3.0, 2.0),
                             (-0.6, -1.0), (5.0, 5.0), unreferenced=3)
        summary = paper_summary(results)
        assert summary["predictions"] == 5
        assert summary["median_deviation"] == pytest.approx(0.2)
        assert summary["above_30pct"] == 2

    def test_metrics_without_a_reference_are_ignored(self):
        assert paper_summary(referenced((2.0, 1.0), unreferenced=4)) == {
            "predictions": 1, "median_deviation": 1.0, "above_30pct": 1,
        }
        assert paper_summary(referenced(unreferenced=2)) == {
            "predictions": 0, "median_deviation": 0.0, "above_30pct": 0,
        }

    def test_exactly_thirty_percent_is_not_above(self):
        summary = paper_summary(referenced((13.0, 10.0), (12.5, 10.0)))
        assert summary["median_deviation"] == pytest.approx(0.275)
        assert summary["above_30pct"] == 0

    def test_committed_baseline_ratchet(self):
        # A fix may lower the far count; a wider bound may not raise it.
        summary = paper_summary(load_results(BASELINE_PATH))
        assert summary["predictions"] == 36
        assert summary["above_30pct"] <= 25
