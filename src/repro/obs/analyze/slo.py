"""Declarative SLOs with multi-window burn-rate evaluation (sim clock).

An :class:`SLOSpec` declares a target ratio over a stream of good/bad
samples derived from the attribution:

- ``latency`` — a served request is *good* iff its end-to-end simulated
  latency is at or under ``threshold_ns``; any non-served terminal
  outcome is *bad*;
- ``deadline`` — over requests that carried deadlines, *good* iff the
  request completed by its deadline.

The error budget is ``1 - target``. Burn rate at an instant is the
fraction of bad samples inside a trailing window divided by the budget:
burn 1.0 means the budget is being consumed exactly at the rate that
would exhaust it if sustained; burn 2.0 means twice as fast. Following
the multi-window alerting recipe, an alert fires only when **both** a
long and a short trailing window exceed the burn threshold — the long
window proves the problem is real, the short window proves it is still
happening — and stays latched until the short window recovers, so one
sustained violation produces one alert event, not one per sample.

Everything runs on the simulated clock over integer-nanosecond sample
instants, so results are deterministic and byte-stable; alerts can be
re-emitted into the trace as instant events for timeline display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.analyze.attribution import Attribution

#: Longest burn-rate series retained per spec (decimated for charts).
MAX_SERIES_POINTS = 128
#: Both windows must burn the budget at least this fast to alert.
BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective."""

    name: str
    kind: str  # "latency" | "deadline"
    target: float  # good-ratio target in (0, 1)
    threshold_ns: Optional[int] = None  # latency kind only

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "deadline"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if self.kind == "latency" and (
            self.threshold_ns is None or self.threshold_ns <= 0
        ):
            raise ValueError("latency SLO needs a positive threshold")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold_ns": self.threshold_ns,
        }


def parse_slo_spec(text: str) -> SLOSpec:
    """Parse the CLI grammar.

    ``name:latency:<threshold_seconds>:<target>`` or
    ``name:deadline:<target>`` — e.g. ``p95:latency:0.25:0.95``.
    """
    parts = text.split(":")
    if len(parts) == 4 and parts[1] == "latency":
        return SLOSpec(
            name=parts[0],
            kind="latency",
            target=float(parts[3]),
            threshold_ns=round(float(parts[2]) * 1_000_000_000),
        )
    if len(parts) == 3 and parts[1] == "deadline":
        return SLOSpec(name=parts[0], kind="deadline",
                       target=float(parts[2]))
    raise ValueError(
        f"bad SLO spec {text!r}: expected name:latency:<secs>:<target> "
        f"or name:deadline:<target>"
    )


def default_slos() -> list:
    """The stock objectives used when the CLI gets no ``--slo`` flags."""
    return [
        SLOSpec(name="latency-250ms", kind="latency", target=0.95,
                threshold_ns=250_000_000),
        SLOSpec(name="deadline-hit", kind="deadline", target=0.95),
    ]


def evaluate_slos(
    attribution: Attribution,
    specs: Sequence[SLOSpec],
) -> dict:
    """Evaluate every spec; returns ``{spec_name: result_doc}``.

    The windows derive from the trace horizon (long = horizon/4,
    short = horizon/16) so the same relative alerting sensitivity
    applies to runs of any simulated length.
    """
    horizon = max(attribution.horizon_ns, 1)
    long_ns = max(horizon // 4, 1)
    short_ns = max(horizon // 16, 1)
    results = {}
    for spec in specs:
        samples = _samples(attribution, spec)
        results[spec.name] = _evaluate(spec, samples, long_ns, short_ns)
    return dict(sorted(results.items()))


def _samples(attribution: Attribution, spec: SLOSpec) -> list:
    """(ts_ns, good) pairs in deterministic timeline order."""
    samples = []
    for request in attribution.requests:
        if request.outcome == "open":
            continue
        if spec.kind == "latency":
            good = (
                request.outcome == "served"
                and request.latency_ns <= spec.threshold_ns
            )
            samples.append((request.end_ns, request.request_id, good))
        else:
            met = request.deadline_met
            if met is None:
                continue
            samples.append((request.end_ns, request.request_id, met))
    samples.sort()
    return [(ts, good) for ts, _rid, good in samples]


def _evaluate(
    spec: SLOSpec,
    samples: list,
    long_ns: int,
    short_ns: int,
) -> dict:
    total = len(samples)
    bad = sum(1 for _ts, good in samples if not good)
    budget = 1.0 - spec.target
    doc = {
        "spec": spec.to_dict(),
        "total": total,
        "good": total - bad,
        "bad": bad,
        "compliance": _ratio(total - bad, total),
        "error_budget": round(budget, 9),
        "budget_consumed_ratio": round(_ratio(bad, total) / budget, 9),
        "windows": {
            "long_ns": long_ns,
            "short_ns": short_ns,
            "burn_threshold": BURN_THRESHOLD,
        },
        "alerts": [],
        "burn_series": [],
    }
    if total == 0:
        return doc

    series = []
    alerts = []
    latched = False
    for index, (ts, _good) in enumerate(samples):
        burn_long = _window_burn(samples, index, ts - long_ns, budget)
        burn_short = _window_burn(samples, index, ts - short_ns, budget)
        series.append((ts, round(burn_long, 9), round(burn_short, 9)))
        firing = (
            burn_long >= BURN_THRESHOLD and burn_short >= BURN_THRESHOLD
        )
        if firing and not latched:
            alerts.append({
                "ts_ns": ts,
                "burn_long": round(burn_long, 9),
                "burn_short": round(burn_short, 9),
            })
            latched = True
        elif not firing and latched and burn_short < BURN_THRESHOLD:
            latched = False
    doc["alerts"] = alerts
    doc["burn_series"] = _decimate(series)
    return doc


def _window_burn(
    samples: list, upto: int, window_start: int, budget: float
) -> float:
    """Burn rate over samples in ``(window_start, samples[upto].ts]``."""
    total = 0
    bad = 0
    for ts, good in samples[: upto + 1]:
        if ts > window_start:
            total += 1
            if not good:
                bad += 1
    if total == 0:
        return 0.0
    return (bad / total) / budget


def _ratio(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 1.0
    return round(numerator / denominator, 9)


def _decimate(series: list) -> list:
    """Keep at most :data:`MAX_SERIES_POINTS`, always the last point."""
    if len(series) <= MAX_SERIES_POINTS:
        return [list(point) for point in series]
    stride = -(-len(series) // MAX_SERIES_POINTS)
    kept = series[::stride]
    if kept[-1] != series[-1]:
        kept.append(series[-1])
    return [list(point) for point in kept]


def alert_events(slo_results: dict) -> list:
    """Flatten alerts as (name, ts_s, args) tuples for trace emission."""
    out = []
    for spec_name, doc in sorted(slo_results.items()):
        for alert in doc.get("alerts", ()):
            out.append((
                "slo_alert",
                alert["ts_ns"] / 1_000_000_000,
                {
                    "slo": spec_name,
                    "burn_long": alert["burn_long"],
                    "burn_short": alert["burn_short"],
                },
            ))
    out.sort(key=lambda item: (item[1], item[2]["slo"]))
    return out


__all__ = [
    "MAX_SERIES_POINTS",
    "SLOSpec",
    "alert_events",
    "default_slos",
    "evaluate_slos",
    "parse_slo_spec",
]
