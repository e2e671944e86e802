"""Typed parameter spaces for design-space exploration.

A :class:`SearchSpace` is an ordered set of named dimensions, each one of

- :class:`Categorical` — an explicit value list (ablation switches, DRAM
  technologies, routers, model-zoo entries);
- :class:`IntRange` — inclusive integer bounds (DSC counts, FFN-Reuse
  period ``N``, log-domain bit widths), optionally log-scaled sampling;
- :class:`FloatRange` — inclusive float bounds (memory bandwidth, GSC
  capacity, top-k keep ratios), optionally log-scaled.

Everything is deterministic: :meth:`SearchSpace.sample` draws dimensions
in declaration order from one explicit ``numpy.random.Generator`` (same
seed → same points), :meth:`SearchSpace.grid` enumerates the cross
product in declaration order, and :func:`point_key` /
:func:`point_id` give every point a canonical byte-stable encoding the
runner's content-addressed cache and the report key on.

:func:`default_space` declares the repo-wide co-design space over
hardware knobs (generalizing :class:`~repro.hw.accelerator.ExionAccelerator`
beyond the three Table II factories), algorithm ablations, and — via
:func:`cluster_space` — workload/fleet scenario knobs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.canon import canonical_json, canonical_sha256
from repro.workloads.generator import as_rng


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and (
        not isinstance(value, bool)
    )


@dataclass(frozen=True)
class Categorical:
    """An explicit, ordered list of admissible values."""

    name: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"dimension {self.name!r} needs >= 1 value")
        object.__setattr__(self, "values", tuple(self.values))

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(len(self.values)))]

    def grid(self, levels: int = 0) -> list:
        """All values; ``levels`` is ignored (categoricals don't subsample)."""
        return list(self.values)

    def contains(self, value) -> bool:
        return value in self.values

    def coerce(self, value):
        """The canonical member equal to ``value`` (24.0 -> 24)."""
        return self.values[self.values.index(value)]

    def to_dict(self) -> dict:
        return {"kind": "categorical", "name": self.name,
                "values": list(self.values)}


@dataclass(frozen=True)
class IntRange:
    """Inclusive integer bounds, optionally sampled on a log scale."""

    name: str
    low: int
    high: int
    log: bool = False

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(
                f"dimension {self.name!r}: low {self.low} > high {self.high}"
            )
        if self.log and self.low <= 0:
            raise ValueError(
                f"dimension {self.name!r}: log scale needs low > 0"
            )

    def sample(self, rng: np.random.Generator) -> int:
        if self.log:
            value = math.exp(
                rng.uniform(math.log(self.low), math.log(self.high))
            )
            return int(min(max(round(value), self.low), self.high))
        return int(rng.integers(self.low, self.high + 1))

    def grid(self, levels: int = 3) -> list:
        if levels <= 1 or self.high == self.low:
            return [self.low]
        if self.log:
            raw = np.geomspace(self.low, self.high, num=levels)
        else:
            raw = np.linspace(self.low, self.high, num=levels)
        seen: list = []
        for value in raw:
            value = int(min(max(round(float(value)), self.low), self.high))
            if value not in seen:
                seen.append(value)
        return seen

    def contains(self, value) -> bool:
        return (
            _is_number(value)
            and float(value) == int(value)
            and self.low <= int(value) <= self.high
        )

    def coerce(self, value) -> int:
        """Normalize integral floats (24.0 -> 24) so a point's canonical
        encoding — and with it the cache key and report id — does not
        depend on the lexical type it arrived with."""
        return int(value)

    def to_dict(self) -> dict:
        return {"kind": "int", "name": self.name, "low": self.low,
                "high": self.high, "log": self.log}


@dataclass(frozen=True)
class FloatRange:
    """Inclusive float bounds, optionally sampled on a log scale."""

    name: str
    low: float
    high: float
    log: bool = False

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(
                f"dimension {self.name!r}: low {self.low} > high {self.high}"
            )
        if self.log and self.low <= 0:
            raise ValueError(
                f"dimension {self.name!r}: log scale needs low > 0"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.log:
            return float(math.exp(
                rng.uniform(math.log(self.low), math.log(self.high))
            ))
        return float(rng.uniform(self.low, self.high))

    def grid(self, levels: int = 3) -> list:
        if levels <= 1 or self.low == self.high:
            return [float(self.low)]
        if self.log:
            raw = np.geomspace(self.low, self.high, num=levels)
        else:
            raw = np.linspace(self.low, self.high, num=levels)
        return [float(v) for v in raw]

    def contains(self, value) -> bool:
        return _is_number(value) and self.low <= float(value) <= self.high

    def coerce(self, value) -> float:
        """Normalize ints (51 -> 51.0) for a type-stable encoding."""
        return float(value)

    def to_dict(self) -> dict:
        return {"kind": "float", "name": self.name, "low": float(self.low),
                "high": float(self.high), "log": self.log}


_DIMENSION_KINDS = {"categorical": Categorical, "int": IntRange,
                    "float": FloatRange}


def dimension_from_dict(data: dict):
    """Inverse of each dimension's ``to_dict``."""
    kind = data.get("kind")
    if kind == "categorical":
        return Categorical(data["name"], tuple(data["values"]))
    if kind == "int":
        return IntRange(data["name"], int(data["low"]), int(data["high"]),
                        bool(data.get("log", False)))
    if kind == "float":
        return FloatRange(data["name"], float(data["low"]),
                          float(data["high"]), bool(data.get("log", False)))
    raise ValueError(
        f"unknown dimension kind {kind!r}; "
        f"known: {', '.join(sorted(_DIMENSION_KINDS))}"
    )


class SearchSpace:
    """An ordered collection of named dimensions."""

    def __init__(self, dimensions):
        self.dimensions = list(dimensions)
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate dimension names {dupes}")

    def __len__(self) -> int:
        return len(self.dimensions)

    def __contains__(self, name: str) -> bool:
        return any(d.name == name for d in self.dimensions)

    @property
    def names(self) -> list:
        return [d.name for d in self.dimensions]

    def dimension(self, name: str):
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise KeyError(
            f"unknown dimension {name!r}; known: {', '.join(self.names)}"
        )

    # ------------------------------------------------------------------
    # point generation
    # ------------------------------------------------------------------
    def sample(self, rng: Union[int, np.random.Generator]) -> dict:
        """One point, dimensions drawn in declaration order."""
        rng = as_rng(rng)
        return {dim.name: dim.sample(rng) for dim in self.dimensions}

    def sample_batch(
        self, n: int, rng: Union[int, np.random.Generator]
    ) -> list:
        """``n`` points from one stream; same seed → same points."""
        rng = as_rng(rng)
        return [self.sample(rng) for _ in range(n)]

    def grid(self, levels: int = 3) -> list:
        """Cross product of per-dimension grids, declaration-order-major;
        every range dimension gets ``levels`` points."""
        points = [{}]
        for dim in self.dimensions:
            values = dim.grid(levels)
            points = [
                {**point, dim.name: value}
                for point in points
                for value in values
            ]
        return points

    # ------------------------------------------------------------------
    # validation / serialization
    # ------------------------------------------------------------------
    def validate(self, point: dict) -> dict:
        """Raise ``ValueError`` unless ``point`` lies inside the space."""
        for name in point:
            if name not in self:
                raise ValueError(
                    f"point has unknown dimension {name!r}; "
                    f"known: {', '.join(self.names)}"
                )
        for dim in self.dimensions:
            if dim.name not in point:
                raise ValueError(f"point is missing dimension {dim.name!r}")
            if not dim.contains(point[dim.name]):
                raise ValueError(
                    f"value {point[dim.name]!r} is outside dimension "
                    f"{dim.name!r} ({dim.to_dict()})"
                )
        return point

    def normalize(self, point: dict) -> dict:
        """Validate, then coerce each value to its dimension's canonical
        type (24.0 -> 24 for int ranges), so a point's encoding — and the
        cache key / report id built on it — is independent of how its
        values were spelled (space file, ``--set``, generator output)."""
        self.validate(point)
        return {
            dim.name: dim.coerce(point[dim.name])
            for dim in self.dimensions
        }

    def restrict(self, name: str, values) -> "SearchSpace":
        """A copy with one dimension pinned to an explicit value list."""
        dim = self.dimension(name)
        coerced = []
        for value in values:
            if not dim.contains(value):
                raise ValueError(
                    f"value {value!r} is outside dimension {name!r} "
                    f"({dim.to_dict()})"
                )
            coerced.append(dim.coerce(value))
        return SearchSpace([
            Categorical(d.name, tuple(coerced)) if d.name == name else d
            for d in self.dimensions
        ])

    def to_dict(self) -> dict:
        return {"dimensions": [d.to_dict() for d in self.dimensions]}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        """Inverse of :meth:`to_dict`; any other layout is a ValueError."""
        try:
            return cls([dimension_from_dict(d) for d in data["dimensions"]])
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"not a SearchSpace layout: {exc!r}") from None


# ----------------------------------------------------------------------
# canonical point encoding (what the cache and the report key on)
# ----------------------------------------------------------------------
def canonicalize(value):
    """Normalize numpy scalars so encoding is type-stable."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    return value


def point_key(point: dict) -> str:
    """Canonical byte-stable encoding of one point."""
    return canonical_json(canonicalize(point), newline=False)


def point_id(point: dict) -> str:
    """Short content hash of the canonical encoding."""
    return canonical_sha256(canonicalize(point))[:12]


def stable_seed(*parts) -> int:
    """A deterministic 31-bit seed from arbitrary string/int parts.

    Unlike ``hash()``, this is stable across processes (no
    ``PYTHONHASHSEED`` dependence), which is what keeps parallel workers
    and resumed runs on identical streams.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


# ----------------------------------------------------------------------
# the repo-wide co-design space
# ----------------------------------------------------------------------
def hardware_dimensions() -> list:
    """Table II generalized: DSC count, memory system, GSC capacity."""
    return [
        IntRange("num_dscs", 2, 48),
        Categorical("dram", ("lpddr5", "gddr6", "hbm2e")),
        FloatRange("bandwidth_gbps", 51.0, 1935.0, log=True),
        FloatRange("gsc_mb", 8.0, 96.0, log=True),
    ]


def ablation_dimensions() -> list:
    """Algorithm knobs: FFN-Reuse, eager prediction, log-domain bits."""
    return [
        Categorical("enable_ffn_reuse", (True, False)),
        IntRange("sparse_iters_n", 0, 8),
        FloatRange("ffn_target_sparsity", 0.5, 0.97),
        FloatRange("top_k_ratio", 0.1, 1.0),
        FloatRange("q_threshold", 0.0, 2.0),
        IntRange("prediction_bits", 4, 16),
    ]


def default_space(model: str = "dit") -> SearchSpace:
    """Hardware + ablation knobs for one benchmark model."""
    return SearchSpace(
        [Categorical("model", (model,))]
        + hardware_dimensions()
        + ablation_dimensions()
    )


def cluster_space(model: str = "dit") -> SearchSpace:
    """The fleet scenario space: hardware knobs plus workload/router knobs.

    Algorithm *value* knobs are deliberately absent: cluster service
    times are priced from the model's Table I spec, which the algorithm
    configuration reaches only through the ablation enable flag.
    """
    return SearchSpace(
        [Categorical("model", (model,))]
        + hardware_dimensions()
        + [
            Categorical("enable_ffn_reuse", (True, False)),
            IntRange("replicas", 1, 8),
            Categorical("router", ("round_robin", "jsq", "cache_affinity")),
            FloatRange("rate_rps", 25.0, 800.0, log=True),
        ]
    )


__all__ = [
    "Categorical",
    "FloatRange",
    "IntRange",
    "SearchSpace",
    "ablation_dimensions",
    "canonicalize",
    "cluster_space",
    "default_space",
    "dimension_from_dict",
    "hardware_dimensions",
    "point_id",
    "point_key",
    "stable_seed",
]
