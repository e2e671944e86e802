"""Structured benchmark harness with machine-readable results.

The subsystem behind ``python -m repro bench`` and the value-regression
gate in CI. It holds deterministic values only (agreement with the
paper and byte-identity); host time is measured by ``perfbench``, not here.

- :mod:`repro.bench.schema` — the :class:`BenchResult` document every
  bench produces (metrics with per-metric regression contracts, the
  printable tables, env fingerprint) plus JSON Schema validation;
- :mod:`repro.bench.registry` — ``@register_bench`` and the process
  registry the ``benchmarks/`` modules populate on import;
- :mod:`repro.bench.context` — shared lazily-computed inputs (model
  sparsity profiles);
- :mod:`repro.bench.runner` — discovery, execution, and the
  ``BENCH_<name>.json`` / ``BENCH_repro.json`` writers;
- :mod:`repro.bench.compare` — the baseline diff ``python -m repro bench
  --compare`` and CI call to flag metric regressions.

Minimal use::

    from repro.bench import BenchContext, discover, run_benches

    discover()                       # imports benchmarks/bench_*.py
    results = run_benches("tag:smoke", out_dir="bench_results")
"""

from repro.bench.compare import (
    CompareReport,
    compare_results,
    format_report,
    load_results,
    paper_summary,
)
from repro.bench.context import BenchContext
from repro.bench.registry import REGISTRY, BenchmarkRegistry, register_bench
from repro.bench.runner import discover, run_benches, write_results
from repro.bench.schema import (
    BenchResult,
    BenchSeries,
    Metric,
    SchemaError,
    validate_aggregate,
    validate_result,
)

__all__ = [
    "BenchContext",
    "BenchResult",
    "BenchSeries",
    "BenchmarkRegistry",
    "CompareReport",
    "Metric",
    "REGISTRY",
    "SchemaError",
    "compare_results",
    "discover",
    "format_report",
    "load_results",
    "paper_summary",
    "register_bench",
    "run_benches",
    "validate_aggregate",
    "validate_result",
    "write_results",
]
