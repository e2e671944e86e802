"""Machine-readable benchmark result schema.

Every bench in ``benchmarks/`` builds one :class:`BenchResult`: the raw
numbers the paper comparison gates on (``metrics``), the human tables the
bench prints (``series`` — presentation strings, rendered through
:func:`repro.analysis.report.format_table`), free-form trailing ``notes``,
and an ``env`` fingerprint identifying the machine that produced the
numbers. No field holds a clock reading, so two runs on one machine
write byte-identical documents.

The JSON layout is pinned by :data:`BENCH_RESULT_SCHEMA` (a standard JSON
Schema document). :func:`validate_result` checks a result dict against it
with a built-in interpreter of the schema subset used here; validation
needs nothing beyond the package's one dependency, numpy.

Directions and tolerances live *on the metric*: ``lower_better`` metrics
(simulated latencies, error measures) regress upward, ``higher_better``
metrics (sparsity, PSNR, simulated speedups) regress downward, and
``two_sided`` metrics (configuration, shares, op counts) regress in
either direction, each beyond the metric's relative ``tolerance``. A
metric's optional ``paper`` value is the number it predicts; a metric
that repeats an input taken from the paper carries none.
"""

from __future__ import annotations

import math
import os
import platform
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table

SCHEMA_VERSION = 2

DIRECTIONS = ("higher_better", "lower_better", "two_sided")

_METRIC_SCHEMA = {
    "type": "object",
    "required": ["value", "direction", "tolerance"],
    "properties": {
        "value": {"type": "number"},
        "unit": {"type": "string"},
        "paper": {"type": ["number", "null"]},
        "direction": {"enum": list(DIRECTIONS)},
        "tolerance": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

_SERIES_SCHEMA = {
    "type": "object",
    "required": ["title", "headers", "rows"],
    "properties": {
        "title": {"type": "string"},
        "headers": {"type": "array", "items": {"type": "string"}},
        "rows": {
            "type": "array",
            "items": {"type": "array", "items": {"type": ["string", "number"]}},
        },
    },
    "additionalProperties": False,
}

BENCH_RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "EXION reproduction bench result",
    "type": "object",
    "required": [
        "schema_version", "name", "model", "tags",
        "metrics", "series", "notes", "env",
    ],
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "name": {"type": "string", "minLength": 1},
        "model": {"type": "string"},
        "tags": {"type": "array", "items": {"type": "string"}},
        "metrics": {
            "type": "object",
            "additionalProperties": _METRIC_SCHEMA,
        },
        "series": {"type": "array", "items": _SERIES_SCHEMA},
        "notes": {"type": "array", "items": {"type": "string"}},
        "env": {"type": "object"},
    },
    "additionalProperties": False,
}

AGGREGATE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "EXION reproduction aggregate bench results",
    "type": "object",
    "required": ["schema_version", "env", "results"],
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "env": {"type": "object"},
        "results": {
            "type": "object",
            "additionalProperties": BENCH_RESULT_SCHEMA,
        },
    },
    "additionalProperties": False,
}


class SchemaError(ValueError):
    """A bench result dict does not conform to the published schema."""


def env_fingerprint() -> dict:
    """Identify the machine/toolchain that produced a result set."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


@dataclass
class Metric:
    """One gated number: a value, its unit, and its regression contract.

    ``paper`` is the paper's value this metric *predicts*, or ``None``.
    """

    value: float
    unit: str = ""
    paper: Optional[float] = None
    direction: str = "two_sided"
    tolerance: float = 0.05

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"metric value must be finite, got {self.value!r}")
        if self.paper is not None and not math.isfinite(self.paper):
            raise ValueError(f"paper reference must be finite, got {self.paper!r}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "unit": self.unit,
            "paper": None if self.paper is None else float(self.paper),
            "direction": self.direction,
            "tolerance": float(self.tolerance),
        }


@dataclass
class BenchSeries:
    """One printable table: presentation strings backed by the result."""

    title: str
    headers: list
    rows: list

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "headers": [str(h) for h in self.headers],
            "rows": [list(row) for row in self.rows],
        }


@dataclass
class BenchResult:
    """Everything one bench produced, ready to print, store, and diff."""

    name: str
    model: str = ""
    tags: tuple = ()
    metrics: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    env: dict = field(default_factory=dict)

    def add_metric(self, name: str, value: float, unit: str = "",
                   paper: Optional[float] = None,
                   direction: str = "two_sided",
                   tolerance: float = 0.05) -> Metric:
        """Record one gated number; non-finite values are rejected."""
        if name in self.metrics:
            raise ValueError(f"duplicate metric {name!r} in bench {self.name!r}")
        metric = Metric(value=float(value), unit=unit, paper=paper,
                        direction=direction, tolerance=tolerance)
        self.metrics[name] = metric
        return metric

    def value(self, name: str) -> float:
        return self.metrics[name].value

    def add_series(self, title: str, headers: list, rows: list) -> BenchSeries:
        series = BenchSeries(title=title, headers=list(headers),
                             rows=[list(row) for row in rows])
        self.series.append(series)
        return series

    def add_note(self, text: str) -> None:
        self.notes.append(str(text))

    def render_blocks(self) -> list:
        """The bench's printable output: one string per table, then notes."""
        return [series.render() for series in self.series] + list(self.notes)

    def render(self) -> str:
        return "\n\n".join(self.render_blocks())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "model": self.model,
            "tags": list(self.tags),
            "metrics": {k: m.to_dict() for k, m in self.metrics.items()},
            "series": [s.to_dict() for s in self.series],
            "notes": list(self.notes),
            "env": dict(self.env),
        }


_JSON_TYPES = {
    "object": dict, "array": list, "string": str,
    "number": (int, float), "integer": int, "null": type(None),
}


def _validate(data, schema, path="$"):
    """Interpret the subset of JSON Schema used by this module."""
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        allowed = tuple(_JSON_TYPES[name] for name in types)
        # A bool is an int to Python and no number to JSON Schema.
        if isinstance(data, bool) or not isinstance(data, allowed):
            raise SchemaError(f"{path}: expected {types}, got {type(data).__name__}")
    if "enum" in schema and data not in schema["enum"]:
        raise SchemaError(f"{path}: {data!r} not in {schema['enum']}")
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        if "minimum" in schema and data < schema["minimum"]:
            raise SchemaError(f"{path}: {data} below minimum {schema['minimum']}")
    if isinstance(data, str) and "minLength" in schema:
        if len(data) < schema["minLength"]:
            raise SchemaError(f"{path}: string shorter than {schema['minLength']}")
    if isinstance(data, dict):
        for key in schema.get("required", ()):
            if key not in data:
                raise SchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in data.items():
            if key in properties:
                _validate(value, properties[key], f"{path}.{key}")
            elif isinstance(additional, dict):
                _validate(value, additional, f"{path}.{key}")
            elif additional is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
    if isinstance(data, list) and "items" in schema:
        for i, item in enumerate(data):
            _validate(item, schema["items"], f"{path}[{i}]")


def validate_result(data: dict) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid bench result."""
    _validate(data, BENCH_RESULT_SCHEMA)


def validate_aggregate(data: dict) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid aggregate."""
    _validate(data, AGGREGATE_SCHEMA)


__all__ = [
    "AGGREGATE_SCHEMA",
    "BENCH_RESULT_SCHEMA",
    "BenchResult",
    "BenchSeries",
    "DIRECTIONS",
    "Metric",
    "SCHEMA_VERSION",
    "SchemaError",
    "env_fingerprint",
    "validate_aggregate",
    "validate_result",
]
