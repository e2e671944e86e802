"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation has one ``bench_*.py``
module here. Each module registers its builder(s) with
``@repro.bench.register_bench`` and keeps a pytest wrapper that renders
the structured :class:`~repro.bench.BenchResult` (same printed tables as
always) and asserts on its metrics. The wrappers check values only;
nothing here reads a clock (host time is ``perfbench``'s). Tier-1
(``pytest`` from the repository root) does not collect them:
``bench_*.py`` does not match pytest's default file pattern. Run one by
explicit path::

    pytest benchmarks/bench_table2_specs.py --import-mode=importlib -s

or run every bench through the structured runner, which writes
``BENCH_<name>.json`` files instead of asserting::

    python -m repro bench --run all
"""

import pytest

from repro.bench import BenchContext


@pytest.fixture(scope="session")
def bench_ctx():
    """Shared bench context (caches paper-scale sparsity profiles)."""
    return BenchContext()


def emit(text):
    """Print a bench table with surrounding whitespace (shown with -s)."""
    print("\n" + text + "\n")


def emit_result(result):
    """Print every table and note of a BenchResult, one emit() each."""
    for block in result.render_blocks():
        emit(block)
