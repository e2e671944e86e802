"""Regression-gate tests: the compare catches what it must, only that."""

import copy
import inspect
import json

import pytest

from repro.bench import BenchResult, compare_results, load_results
from repro.bench.compare import format_report
from repro.bench.runner import write_results


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
