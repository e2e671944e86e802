"""Discovery and execution of registered benches.

Discovery imports every ``benchmarks/bench_*.py`` module (as the
namespace package ``benchmarks.*``), which populates the global
:data:`~repro.bench.registry.REGISTRY` via ``@register_bench``. The
runner then executes any selection, validates every result against
:data:`~repro.bench.schema.BENCH_RESULT_SCHEMA`, and writes one
``BENCH_<name>.json`` per bench plus the aggregate ``BENCH_repro.json``
that CI diffs against the committed baseline. Two runs of one selection
on one machine write byte-identical files; the only clock read here
feeds the ``progress`` line and is stored nowhere.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from repro.bench.context import BenchContext
from repro.bench.registry import REGISTRY, BenchmarkRegistry
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchResult,
    env_fingerprint,
    validate_aggregate,
    validate_result,
)

AGGREGATE_FILENAME = "BENCH_repro.json"


def find_benchmarks_dir(start: Optional[Path] = None) -> Path:
    """Locate the repo's ``benchmarks/`` directory.

    Prefers the directory adjacent to this installed package (the normal
    in-repo layout ``<root>/src/repro/bench/runner.py`` ->
    ``<root>/benchmarks``), falling back to the current working
    directory.
    """
    candidates = []
    if start is not None:
        candidates.append(Path(start))
    candidates.append(Path(__file__).resolve().parents[3] / "benchmarks")
    candidates.append(Path.cwd() / "benchmarks")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "could not locate a benchmarks/ directory; looked at "
        + ", ".join(str(c) for c in candidates)
    )


def discover(benchmarks_dir: Optional[Path] = None) -> BenchmarkRegistry:
    """Import all bench modules, populating the global registry."""
    bench_dir = find_benchmarks_dir(benchmarks_dir)
    root = str(bench_dir.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    for path in sorted(bench_dir.glob("bench_*.py")):
        importlib.import_module(f"{bench_dir.name}.{path.stem}")
    return REGISTRY


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def run_benches(
    selector: str = "all",
    out_dir: Optional[Path] = None,
    registry: Optional[BenchmarkRegistry] = None,
    progress: Optional[Callable] = None,
) -> dict:
    """Execute a selection of benches; return ``{name: BenchResult}``.

    Every result is schema-validated before anything is written; with
    ``out_dir`` set, per-bench JSON files and the aggregate are written
    there (the directory is created if needed).
    """
    registry = registry if registry is not None else REGISTRY
    ctx = BenchContext()
    env = env_fingerprint()
    results: dict = {}
    for entry in registry.select(selector):
        if progress is not None:
            progress(f"running {entry.name} ...")
        start = time.perf_counter()
        result = entry.builder(ctx)
        elapsed = time.perf_counter() - start
        if not isinstance(result, BenchResult):
            raise TypeError(
                f"bench {entry.name!r} builder returned "
                f"{type(result).__name__}, expected BenchResult"
            )
        result.env = dict(env)
        if not result.tags:
            result.tags = entry.tags
        validate_result(result.to_dict())
        results[entry.name] = result
        if progress is not None:
            progress(
                f"  {entry.name}: {len(result.metrics)} metrics, "
                f"{len(result.series)} series, {elapsed:.2f}s"
            )
    if out_dir is not None:
        write_results(results, out_dir)
    return results


def aggregate_dict(results: dict) -> dict:
    """Bundle per-bench results into the aggregate document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "env": env_fingerprint(),
        "results": {name: result.to_dict()
                    for name, result in sorted(results.items())},
    }


def write_results(results: dict, out_dir: Path) -> list:
    """Write one ``BENCH_<name>.json`` per bench plus the aggregate."""
    aggregate = aggregate_dict(results)
    validate_aggregate(aggregate)  # every per-bench document is nested in it
    documents = {bench_filename(name): data
                 for name, data in aggregate["results"].items()}
    documents[AGGREGATE_FILENAME] = aggregate
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, data in documents.items():
        path = out_dir / filename
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        written.append(path)
    return written


__all__ = [
    "AGGREGATE_FILENAME",
    "aggregate_dict",
    "bench_filename",
    "discover",
    "find_benchmarks_dir",
    "run_benches",
    "write_results",
]
