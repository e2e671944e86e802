"""Open-loop traffic: arrival processes, workload mixes, trace files.

The cluster simulator is *open loop*: requests arrive on their own
schedule whether or not the fleet keeps up (the regime where queueing
delay and tail latency emerge). This module synthesizes that schedule:

- :class:`PoissonProcess` — memoryless arrivals at a constant rate, the
  classic open-loop baseline;
- :class:`MMPPProcess` — a two-state Markov-modulated Poisson process
  (calm/burst), the standard bursty-traffic model;
- :class:`DiurnalProcess` — a sinusoidal rate ramp (thinning against the
  peak rate), emulating a day/night load cycle compressed to ``period_s``.

:func:`synthesize_trace` turns an arrival process plus a
:class:`WorkloadMix` over the model zoo into concrete
:class:`ClusterRequest` records, and :func:`save_trace` /
:func:`load_trace` round-trip them through JSON-lines files so a
measured or synthesized trace can be replayed bit-for-bit.

All randomness flows from one explicit seed/``Generator`` (see
:func:`repro.workloads.generator.as_rng`): the same seed always yields
the same trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.workloads.generator import as_rng
from repro.workloads.specs import get_spec

#: Seeds drawn for individual requests stay below this bound.
_SEED_BOUND = 2**31 - 1


@dataclass(frozen=True)
class ClusterRequest:
    """One timestamped generation request flowing into the fleet.

    ``arrival_s`` is simulated time (seconds since the run started);
    ``model``/``ablation`` identify the pipeline the request needs (the
    cache-affinity key); ``seed``/``class_label``/``prompt`` are the
    generation inputs a
    :class:`~repro.serve.continuous.ContinuousServer` expects.
    ``tenant``/``priority``/``deadline_s`` feed its fair queuing,
    preemption, and SLA admission. ``deadline_s`` is absolute simulated
    time.
    """

    arrival_s: float
    model: str
    seed: int = 0
    class_label: Optional[int] = None
    prompt: Optional[str] = None
    ablation: str = "all"
    tenant: str = "default"
    priority: int = 1  # Priority.STANDARD (int to keep JSON round-trips flat)
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0.0:
            raise ValueError("arrival_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ValueError("deadline_s must be >= arrival_s")

    @property
    def pipeline_key(self) -> tuple:
        """Identity of the served pipeline: what cache affinity keys on."""
        return (self.model, self.ablation)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class ArrivalProcess:
    """Base class: a deterministic-given-RNG stream of arrival instants."""

    name = "arrivals"

    def times(self, n: int, rng: Union[int, np.random.Generator]) -> list:
        """The first ``n`` arrival instants (sorted, seconds)."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Scenario fingerprint for reports (stable, JSON-serializable)."""
        return {"process": self.name}


class PoissonProcess(ArrivalProcess):
    """Constant-rate memoryless arrivals (exponential inter-arrival gaps)."""

    name = "poisson"

    def __init__(self, rate_rps: float) -> None:
        if rate_rps <= 0.0:
            raise ValueError("rate_rps must be > 0")
        self.rate_rps = float(rate_rps)

    def times(self, n: int, rng: Union[int, np.random.Generator]) -> list:
        rng = as_rng(rng)
        gaps = rng.exponential(1.0 / self.rate_rps, size=n)
        return np.cumsum(gaps).tolist()

    def describe(self) -> dict:
        return {"process": self.name, "rate_rps": self.rate_rps}


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process: calm vs. burst.

    The process alternates between a low-rate and a high-rate state with
    exponentially distributed dwell times — the textbook model for bursty
    request traffic.
    """

    name = "mmpp"

    def __init__(
        self,
        rate_low_rps: float,
        rate_high_rps: float,
        mean_dwell_s: float = 1.0,
    ) -> None:
        if rate_low_rps <= 0.0 or rate_high_rps <= 0.0:
            raise ValueError("rates must be > 0")
        if mean_dwell_s <= 0.0:
            raise ValueError("mean_dwell_s must be > 0")
        self.rate_low_rps = float(rate_low_rps)
        self.rate_high_rps = float(rate_high_rps)
        self.mean_dwell_s = float(mean_dwell_s)

    def times(self, n: int, rng: Union[int, np.random.Generator]) -> list:
        rng = as_rng(rng)
        out: list = []
        t = 0.0
        high = False
        state_ends = float(rng.exponential(self.mean_dwell_s))
        while len(out) < n:
            rate = self.rate_high_rps if high else self.rate_low_rps
            t_next = t + float(rng.exponential(1.0 / rate))
            if t_next >= state_ends:
                # No arrival before the state flips; advance the phase.
                t = state_ends
                state_ends = t + float(rng.exponential(self.mean_dwell_s))
                high = not high
                continue
            t = t_next
            out.append(t)
        return out

    def describe(self) -> dict:
        return {
            "process": self.name,
            "rate_low_rps": self.rate_low_rps,
            "rate_high_rps": self.rate_high_rps,
            "mean_dwell_s": self.mean_dwell_s,
        }


class DiurnalProcess(ArrivalProcess):
    """Sinusoidal rate ramp between ``base`` and ``peak`` over a period.

    Implemented by thinning a peak-rate Poisson stream: candidate
    arrivals are kept with probability ``rate(t) / peak``, which yields a
    non-homogeneous Poisson process with the sinusoidal intensity.
    """

    name = "diurnal"

    def __init__(
        self,
        base_rate_rps: float,
        peak_rate_rps: float,
        period_s: float = 60.0,
    ) -> None:
        if base_rate_rps <= 0.0 or peak_rate_rps < base_rate_rps:
            raise ValueError("need 0 < base_rate_rps <= peak_rate_rps")
        if period_s <= 0.0:
            raise ValueError("period_s must be > 0")
        self.base_rate_rps = float(base_rate_rps)
        self.peak_rate_rps = float(peak_rate_rps)
        self.period_s = float(period_s)

    def rate_at(self, t: float) -> float:
        """Instantaneous intensity: base at t=0, peak half a period later."""
        swing = self.peak_rate_rps - self.base_rate_rps
        phase = (1.0 - np.cos(2.0 * np.pi * t / self.period_s)) / 2.0
        return self.base_rate_rps + swing * float(phase)

    def times(self, n: int, rng: Union[int, np.random.Generator]) -> list:
        rng = as_rng(rng)
        out: list = []
        t = 0.0
        while len(out) < n:
            t += float(rng.exponential(1.0 / self.peak_rate_rps))
            if rng.random() <= self.rate_at(t) / self.peak_rate_rps:
                out.append(t)
        return out

    def describe(self) -> dict:
        return {
            "process": self.name,
            "base_rate_rps": self.base_rate_rps,
            "peak_rate_rps": self.peak_rate_rps,
            "period_s": self.period_s,
        }


# ----------------------------------------------------------------------
# workload mix and trace synthesis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadMix:
    """Which models (and ablation) arriving requests ask for.

    ``weights`` are relative sampling weights (uniform when omitted);
    ``label_count`` bounds the random class labels drawn per request.
    """

    models: tuple = ("dit",)
    weights: Optional[tuple] = None
    ablation: str = "all"
    label_count: int = 1000

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("need at least one model")
        for name in self.models:
            get_spec(name)  # raises KeyError for unknown models
        if self.weights is not None and len(self.weights) != len(self.models):
            raise ValueError("weights must match models")
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")

    def probabilities(self) -> np.ndarray:
        if self.weights is None:
            return np.full(len(self.models), 1.0 / len(self.models))
        w = np.asarray(self.weights, dtype=float)
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative, sum > 0")
        return w / w.sum()

    def describe(self) -> dict:
        return {
            "models": list(self.models),
            "weights": None if self.weights is None else list(self.weights),
            "ablation": self.ablation,
        }


def synthesize_trace(
    process: ArrivalProcess,
    n: int,
    mix: Optional[WorkloadMix] = None,
    rng: Union[int, np.random.Generator] = 0,
    deadline_s: Optional[float] = None,
) -> list:
    """Materialize ``n`` requests: arrival times from ``process``, models
    and generation inputs from ``mix``, all driven by one RNG.

    ``deadline_s`` attaches a *relative* completion deadline to every
    request (absolute deadline = arrival + ``deadline_s``), which feeds
    the continuous scheduler's SLA machinery.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if deadline_s is not None and deadline_s <= 0.0:
        raise ValueError("deadline_s must be > 0")
    mix = mix if mix is not None else WorkloadMix()
    rng = as_rng(rng)
    instants = process.times(n, rng)
    probs = mix.probabilities()
    picks = rng.choice(len(mix.models), size=n, p=probs)
    seeds = rng.integers(0, _SEED_BOUND, size=n)
    labels = rng.integers(0, mix.label_count, size=n)
    return [
        ClusterRequest(
            arrival_s=float(instants[i]),
            model=mix.models[int(picks[i])],
            seed=int(seeds[i]),
            class_label=int(labels[i]),
            ablation=mix.ablation,
            deadline_s=(
                None if deadline_s is None
                else float(instants[i]) + deadline_s
            ),
        )
        for i in range(n)
    ]


def save_trace(path, requests: Iterable[ClusterRequest]) -> None:
    """Write requests as JSON lines (one request per line, key-sorted)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for request in requests:
            fh.write(json.dumps(asdict(request), sort_keys=True) + "\n")


def load_trace(path) -> list:
    """Read a JSON-lines trace back into :class:`ClusterRequest` records."""
    path = Path(path)
    requests = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            requests.append(ClusterRequest(**json.loads(line)))
    return sorted(requests, key=lambda r: r.arrival_s)


__all__ = [
    "ArrivalProcess",
    "ClusterRequest",
    "DiurnalProcess",
    "MMPPProcess",
    "PoissonProcess",
    "WorkloadMix",
    "load_trace",
    "save_trace",
    "synthesize_trace",
]
