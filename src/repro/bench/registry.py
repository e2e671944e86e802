"""Benchmark registry and the ``@register_bench`` decorator.

Each ``benchmarks/bench_*.py`` module registers one builder per logical
bench (one per paper figure/table panel). A builder is a callable
``(ctx: BenchContext) -> BenchResult`` that computes the bench's numbers
and returns them structured; it never asserts and never prints — the
pytest wrapper asserts on the result's metrics, and the runner/CLI decide
what to write where.

Selection syntax (used by ``python -m repro bench --run``): a
comma-separated list of tokens, each either ``all``, an exact bench
name, or ``tag:<tag>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class RegisteredBench:
    """One registry entry: the bench's identity and its builder."""

    name: str
    builder: Callable
    tags: tuple = ()
    module: str = ""


class BenchmarkRegistry:
    """Name -> builder mapping with tag-based selection."""

    def __init__(self):
        self._benches: dict = {}

    def register(self, name: str, builder: Callable, tags=(),
                 replace: bool = False) -> RegisteredBench:
        if name in self._benches and not replace:
            raise ValueError(f"bench {name!r} already registered")
        entry = RegisteredBench(
            name=name, builder=builder, tags=tuple(tags),
            module=getattr(builder, "__module__", ""),
        )
        self._benches[name] = entry
        return entry

    def get(self, name: str) -> RegisteredBench:
        try:
            return self._benches[name]
        except KeyError:
            raise KeyError(
                f"unknown bench {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> list:
        return sorted(self._benches)

    def tags(self) -> list:
        return sorted({t for b in self._benches.values() for t in b.tags})

    def __len__(self) -> int:
        return len(self._benches)

    def __contains__(self, name: str) -> bool:
        return name in self._benches

    def select(self, selector: str) -> list:
        """Resolve a selection expression to a sorted list of entries."""
        chosen: dict = {}
        for token in str(selector).split(","):
            token = token.strip()
            if not token:
                continue
            if token == "all":
                chosen.update(self._benches)
            elif token.startswith("tag:"):
                tag = token[len("tag:"):]
                matches = {n: b for n, b in self._benches.items()
                           if tag in b.tags}
                if not matches:
                    raise KeyError(
                        f"no bench carries tag {tag!r}; "
                        f"known tags: {', '.join(self.tags())}"
                    )
                chosen.update(matches)
            else:
                chosen[token] = self.get(token)
        return [chosen[name] for name in sorted(chosen)]


#: Process-global registry the ``benchmarks/`` modules populate on import.
REGISTRY = BenchmarkRegistry()


def register_bench(name: str, tags=()):
    """Register ``fn`` as a bench builder under ``name``.

    Registration is idempotent (``replace=True``) because benchmark
    modules can legitimately be imported twice — once by pytest and once
    by the runner's discovery — in a single process.
    """

    def decorator(fn):
        REGISTRY.register(name, fn, tags=tags, replace=True)
        fn.bench_name = name
        return fn

    return decorator


__all__ = [
    "BenchmarkRegistry",
    "REGISTRY",
    "RegisteredBench",
    "register_bench",
]
