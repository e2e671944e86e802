"""Schema round-trip and validation tests for repro.bench."""

import json

import pytest

from repro.bench import BenchResult, Metric, SchemaError, validate_result
from repro.bench.schema import BENCH_RESULT_SCHEMA, _validate


def sample_result():
    result = BenchResult("unit_bench", model="dit", tags=("unit",))
    result.add_metric("speedup", 2.5, unit="x", paper=3.0,
                      direction="higher_better", tolerance=0.1)
    result.add_metric("latency_ms", 12.0, unit="ms",
                      direction="lower_better")
    result.add_series("A table", ["col a", "col b"],
                      [["x", 1], ["y", 2]])
    result.add_note("a trailing remark")
    result.env = {"python": "3.11"}
    return result


class TestBenchResult:
    def test_round_trip(self):
        original = sample_result()
        data = original.to_dict()
        validate_result(data)
        # JSON-serializable without tricks (allow_nan off).
        restored = json.loads(json.dumps(data, allow_nan=False))
        validate_result(restored)
        assert restored == data
        assert original.metrics["speedup"].paper == 3.0
        assert original.value("latency_ms") == 12.0

    def test_render_contains_tables_and_notes(self):
        result = sample_result()
        blocks = result.render_blocks()
        assert len(blocks) == 2  # one table + one note
        assert "A table" in blocks[0]
        assert "col a" in blocks[0]
        assert blocks[1] == "a trailing remark"
        assert "a trailing remark" in result.render()

    def test_non_finite_metric_rejected(self):
        result = BenchResult("unit_bench")
        with pytest.raises(ValueError):
            result.add_metric("bad", float("inf"))
        with pytest.raises(ValueError):
            result.add_metric("bad", float("nan"))

    def test_duplicate_metric_rejected(self):
        result = BenchResult("unit_bench")
        result.add_metric("m", 1.0)
        with pytest.raises(ValueError):
            result.add_metric("m", 2.0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            Metric(value=1.0, direction="sideways")


class TestValidation:
    def test_missing_key_fails(self):
        data = sample_result().to_dict()
        del data["metrics"]
        with pytest.raises(SchemaError):
            validate_result(data)

    def test_unexpected_key_fails(self):
        data = sample_result().to_dict()
        data["surprise"] = 1
        with pytest.raises(SchemaError):
            validate_result(data)

    def test_bad_metric_type_fails(self):
        data = sample_result().to_dict()
        data["metrics"]["speedup"]["value"] = "fast"
        with pytest.raises(SchemaError):
            validate_result(data)

    def test_bad_direction_enum_fails(self):
        data = sample_result().to_dict()
        data["metrics"]["speedup"]["direction"] = "sideways"
        with pytest.raises(SchemaError):
            validate_result(data)

    def test_timing_key_rejected_by_v2_schema(self):
        # Schema v2 documents carry no clock reading.
        data = sample_result().to_dict()
        assert data["schema_version"] == 2
        data["timing"] = {}
        with pytest.raises(SchemaError, match="timing"):
            validate_result(data)

    def test_builtin_validator_directly(self):
        # The one validator: a dependency-free interpreter of the schema.
        _validate(sample_result().to_dict(), BENCH_RESULT_SCHEMA)
        bad = sample_result().to_dict()
        bad["metrics"]["speedup"]["tolerance"] = -1.0  # "minimum": 0
        with pytest.raises(SchemaError, match="minimum"):
            _validate(bad, BENCH_RESULT_SCHEMA)
        bad = sample_result().to_dict()
        bad["series"][0]["rows"][0] = [None]  # nested "items" type
        with pytest.raises(SchemaError, match=r"rows\[0\]\[0\]"):
            _validate(bad, BENCH_RESULT_SCHEMA)
