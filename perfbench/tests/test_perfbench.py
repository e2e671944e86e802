"""The benchmark's own rules: ladder, verdicts, schema, and a quick run of
every workload that must name every metric with its unit."""

from __future__ import annotations

import json

import pytest

from perfbench import compare, refclock, spec, stats

spec.add_program_to_path()

from perfbench import probes, runner  # noqa: E402  (they import repro)
from perfbench.spans import Recorder  # noqa: E402


# ---------------------------------------------------------------- ladder
@pytest.mark.parametrize("count, rung", [
    (240, 95), (200, 95), (199, 90), (150, 90), (100, 90), (99, 75),
    (40, 75), (39, 100), (10, 100),
])
def test_tail_ladder_needs_ten_samples_beyond(count, rung):
    assert stats.tail_percentile(count) == rung


def test_percentile_interpolates_and_rejects_nothing():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 100) == 5
    assert stats.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_interquartile_share_of_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([5.0]) == 0.0


def test_reference_clock_leaves_its_own_time_out_and_scales_by_nominal():
    clock = refclock.RefClock()
    before = clock.now()
    clock.sample(3)
    assert len(clock.samples) == 3 and clock.spent_s == pytest.approx(sum(clock.samples))
    # three kernel runs happened, yet almost no time passed on the clock
    assert clock.now() - before < min(clock.samples)
    clock.samples = [0.010, 0.030, 0.020]
    assert clock.speed_factor() == pytest.approx(0.020 / refclock.NOMINAL_S)


# -------------------------------------------------------------- verdicts
def _results(work_per_s, digest="aa", ticks=632):
    """A combined result file whose only varying part is one metric."""
    def doc(seed, trace, value):
        metrics = {m: {"value": 1.0, "unit": spec.UNITS[m]} for m in spec.E2E_NAMES}
        metrics["work_per_s"]["value"] = value
        return {"seed": seed, "trace": trace, "ops": 3,
                "result": {"metrics": metrics},
                "output_digests": {"first_op": digest}, "plan_digests": {"dit": "p"},
                "exact": {"serve.ticks": ticks}}
    one = {
        w: {"untraced": [doc(11 + i, 0, v) for i, v in enumerate(work_per_s)],
            "traced": doc(11, 1, 1.0)}
        for w in spec.WORKLOAD_NAMES
    }
    return {"sets": [one], "bounds": {m: 0.08 for m in spec.E2E_NAMES}}


def _row(comparison, workload="single_stream", metric="work_per_s"):
    (row,) = [r for r in comparison["rows"]
              if r["workload"] == workload and r["metric"] == metric]
    return row


def test_compare_verdicts():
    base = _results([5.0, 5.1, 4.9, 5.0])
    assert _row(compare.compare_results(base, _results([5.1, 5.2, 5.0, 5.1])))[
        "verdict"] == "unchanged"
    faster = _row(compare.compare_results(base, _results([6.0, 6.1, 5.9, 6.0])))
    assert faster["verdict"] == "improved"
    assert faster["ratio"] == pytest.approx(6.0 / 5.0)
    assert faster["base_median"] == 5.0  # the ratio comes with its base
    assert _row(compare.compare_results(base, _results([4.0, 4.1, 3.9, 4.0])))[
        "verdict"] == "regressed"
    # other metrics did not move
    assert _row(compare.compare_results(base, base), metric="setup_s")["verdict"] == "unchanged"


def test_compare_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    base = _results([5.0, 6.5, 4.2, 5.8])
    overlapping = _results([5.5, 4.4, 6.9, 5.2])
    assert _row(compare.compare_results(base, overlapping))["verdict"] == "unresolved"
    # as noisy, but every run of the change beats every run of the base
    sweeping = _results([7.0, 9.0, 7.5, 8.5])
    assert _row(compare.compare_results(base, sweeping))["verdict"] == "improved"


def test_compare_flags_changed_digest_and_exact_count():
    base = _results([5.0, 5.0])
    clean = compare.compare_results(base, _results([5.0, 5.0]))
    assert clean["changed"] == []
    moved = compare.compare_results(base, _results([5.0, 5.0], digest="bb", ticks=633))
    assert any("output_digests.first_op: aa -> bb" in line for line in moved["changed"])
    assert any("exact.serve.ticks: 632 -> 633" in line for line in moved["changed"])


def test_pairs_rule_needs_nine_tenths_and_a_gap_beyond_the_base_quartiles():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 10.0]
    assert compare.pair_verdict(base, [v * 0.8 for v in base], "lower")["verdict"] == "gain"
    assert compare.pair_verdict(base, [v * 1.2 for v in base], "lower")["verdict"] == "loss"
    mixed = [v * (0.8 if i % 2 else 1.1) for i, v in enumerate(base)]
    assert compare.pair_verdict(base, mixed, "lower")["verdict"] == "no claim"
    # wins every pair, but by less than the base's own quartile distance
    assert compare.pair_verdict(base, [v - 0.01 for v in base], "lower")[
        "verdict"] == "no claim"


# ---------------------------------------------------------------- schema
def test_benchmark_json_is_generated_from_the_spec_and_meets_the_contract():
    committed = json.loads(spec.BENCHMARK_JSON.read_text())
    assert spec.validate_benchmark_json(committed) == []
    assert committed == spec.benchmark_json(spec.stored_bounds())
    assert committed["paths"] == ["perfbench"]
    assert [w["name"] for w in committed["workloads"]] == list(spec.WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_result_validation_catches_malformed_results():
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        m: {"value": 1.5, "unit": spec.UNITS[m]} for m in spec.E2E_NAMES}}
    assert spec.validate_result(good, trace=False) == []
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["setup_s"]
    assert "missing setup_s" in spec.validate_result(missing, trace=False)
    zero = json.loads(json.dumps(good))
    zero["metrics"]["work_per_s"]["value"] = 0
    assert spec.validate_result(zero, trace=False) == ["work_per_s: end-to-end value is 0"]
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
    assert spec.validate_result(wrong_unit, trace=False) == ["setup_s: unit 'ms'"]
    assert spec.validate_result({**good, "extra": 1}, trace=False) != []
    assert spec.validate_result({**good, "attempted": 0}, trace=False) == ["attempted < 1"]


def test_out_directory_stays_untracked():
    ignored = (spec.OUT_DIR.parent / ".gitignore").read_text().split()
    assert "out/" in ignored


# ------------------------------------------------------------ quick runs
@pytest.fixture(scope="module")
def probe_values():
    """The probes do not depend on the workload: one pass serves all four."""
    recorder = Recorder()
    return recorder, probes.run_all(recorder, 5, 1 / 3, quick=True)


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_quick_run_names_every_metric_with_its_unit(workload, probe_values):
    untraced = runner.run_untraced(workload, seed=5, seconds=12.0, quick=True)
    assert spec.validate_result(untraced["result"], trace=False) == []
    assert untraced["result"]["correct"], untraced
    assert list(untraced["result"]["metrics"]) == list(spec.E2E_NAMES)

    recorder, values = probe_values
    traced = runner.trace_workload(workload, 5, 12.0, True, recorder, dict(values))
    assert spec.validate_result(traced["result"], trace=True) == []
    assert traced["result"]["correct"], traced["detail"]
    shares = [traced["result"]["metrics"][f"{layer}.self_share"]["value"]
              for layer in spec.SHARE_LAYERS]
    assert sum(shares) == pytest.approx(1.0)

    for doc in (untraced, traced):
        assert doc["plan_digests"] and doc["output_digests"]["first_op"]
        assert set(doc["environment"]) >= {
            "git_commit", "repro_version", "python", "numpy", "nproc", "blas_threads_env"}
        assert doc["seed"] == 5 and doc["scale"] == pytest.approx(1 / 3)
        json.dumps(doc)  # every value in a result document is plain JSON
