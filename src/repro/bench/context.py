"""Shared state handed to every bench builder.

The context exists so expensive session-wide inputs — today the
paper-scale sparsity profiles of all seven benchmark models — are
computed once per process whether the benches run under pytest (the
``bench_ctx`` session fixture) or under ``python -m repro bench``: it
reads them through the process-wide plan cache's ``profile`` tier, the
memo every ``ExionAccelerator.simulate`` call shares.
"""

from __future__ import annotations


class BenchContext:
    """Shared inputs for bench builders."""

    @property
    def profiles(self) -> dict:
        """Paper-scale sparsity profiles for all benchmark models."""
        from repro.program.cache import get_plan_cache
        from repro.workloads.specs import BENCHMARK_ORDER, get_spec

        cache = get_plan_cache()
        return {name: cache.profile(get_spec(name)) for name in BENCHMARK_ORDER}


__all__ = ["BenchContext"]
