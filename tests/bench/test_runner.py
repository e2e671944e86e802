"""Runner tests: execution, validation, determinism, and JSON output."""

import json

import pytest

from repro.bench import BenchmarkRegistry, BenchResult, discover
from repro.bench.runner import (
    AGGREGATE_FILENAME,
    bench_filename,
    run_benches,
)
from repro.bench.schema import validate_aggregate, validate_result


def toy_registry():
    registry = BenchmarkRegistry()

    def build_fast(ctx):
        result = BenchResult("fast")
        result.add_metric("value", 1.0)
        result.add_series("t", ["h"], [["r"]])
        return result

    def build_other(ctx):
        result = BenchResult("other")
        result.add_metric("value", 2.0)
        return result

    registry.register("fast", build_fast, tags=("smoke",))
    registry.register("other", build_other)
    return registry


class TestRunBenches:
    def test_runs_selection_into_valid_documents(self, tmp_path):
        results = run_benches("all", out_dir=tmp_path,
                              registry=toy_registry())
        assert set(results) == {"fast", "other"}
        for result in results.values():
            document = result.to_dict()
            assert document["env"]["python"]
            assert "timing" not in document
            validate_result(document)

    def test_two_runs_write_identical_bytes(self, tmp_path):
        # Result documents hold deterministic values only: the toy
        # benches plus one real one, run twice, byte for byte.
        registry = toy_registry()
        real = discover().get("table2_specs")
        registry.register(real.name, real.builder, tags=real.tags)
        for run in ("a", "b"):
            run_benches("all", out_dir=tmp_path / run, registry=registry)
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(
            [AGGREGATE_FILENAME]
            + [bench_filename(n) for n in ("fast", "other", "table2_specs")]
        )
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_tag_selection(self, tmp_path):
        results = run_benches("tag:smoke", out_dir=tmp_path,
                              registry=toy_registry())
        assert set(results) == {"fast"}

    def test_writes_per_bench_and_aggregate_json(self, tmp_path):
        run_benches("all", out_dir=tmp_path, registry=toy_registry())
        for name in ("fast", "other"):
            data = json.loads((tmp_path / bench_filename(name)).read_text())
            validate_result(data)
            assert data["name"] == name
        aggregate = json.loads((tmp_path / AGGREGATE_FILENAME).read_text())
        validate_aggregate(aggregate)
        assert set(aggregate["results"]) == {"fast", "other"}

    def test_no_write_without_out_dir(self, tmp_path):
        results = run_benches("fast", registry=toy_registry())
        assert list(tmp_path.iterdir()) == []
        assert set(results) == {"fast"}

    def test_builder_returning_wrong_type_rejected(self):
        registry = BenchmarkRegistry()
        registry.register("broken", lambda ctx: {"not": "a result"})
        with pytest.raises(TypeError):
            run_benches("broken", registry=registry)

    def test_progress_callback(self):
        lines = []
        run_benches("fast", registry=toy_registry(), progress=lines.append)
        assert any("fast" in line for line in lines)
