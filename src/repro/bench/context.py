"""Shared state handed to every bench builder.

The context exists so expensive session-wide inputs — today the
paper-scale sparsity profiles of all seven benchmark models — are
computed once per process whether the benches run under pytest (the
``bench_ctx`` session fixture) or under ``python -m repro bench``.
"""

from __future__ import annotations

from typing import Optional


class BenchContext:
    """Lazily-computed shared inputs for bench builders."""

    def __init__(self):
        self._profiles: Optional[dict] = None

    @property
    def profiles(self) -> dict:
        """Paper-scale sparsity profiles for all benchmark models."""
        if self._profiles is None:
            from repro.hw.profile import estimate_profile
            from repro.workloads.specs import BENCHMARK_ORDER, get_spec

            self._profiles = {
                name: estimate_profile(get_spec(name), seed=0)
                for name in BENCHMARK_ORDER
            }
        return self._profiles


__all__ = ["BenchContext"]
