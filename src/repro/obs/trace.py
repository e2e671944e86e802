"""Structured tracing: spans and events with deterministic identity.

A :class:`Tracer` collects two primitive shapes:

- :class:`Span` — a named interval ``[start_s, end_s)`` on a *track*
  (one row in the rendered timeline: a replica, the live batch, the hw
  pipeline), optionally linked to a parent span;
- :class:`Event` — a named instant at ``ts_s`` on a track (a join, an
  eviction, an SLO violation), optionally linked to the span it
  happened inside.

**Time never comes from the tracer.** Every ``begin_span``/``event``
call is passed a timestamp by the owning layer — the cluster's
:class:`~repro.cluster.replica.SimClock`, a server's simulated tick
accumulator, or the hw timeline's priced seconds — so two same-seed
runs produce byte-identical traces. Span and event ids are sequence
numbers in emission order, which the same determinism argument makes
stable too.

The tracer stores; exporters (:mod:`repro.obs.export`) render — Chrome
trace-event JSON for Perfetto / ``chrome://tracing``, or a flat JSONL
event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def _clean_args(args: Optional[dict]) -> dict:
    """Sort arg keys so serialized forms are order-independent."""
    if not args:
        return {}
    return {key: args[key] for key in sorted(args)}


@dataclass
class Span:
    """A named interval on a track. ``end_s`` is None while open."""

    span_id: int
    name: str
    track: str
    start_s: float
    end_s: Optional[float] = None
    parent_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.span_id} ({self.name}) still open")
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "parent_id": self.parent_id,
            "args": _clean_args(self.args),
        }


@dataclass
class Event:
    """A named instant on a track."""

    event_id: int
    name: str
    track: str
    ts_s: float
    span_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "event_id": self.event_id,
            "name": self.name,
            "track": self.track,
            "ts_s": self.ts_s,
            "span_id": self.span_id,
            "args": _clean_args(self.args),
        }


class Tracer:
    """Accumulates spans and events in deterministic emission order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self._next_span_id = 0
        self._next_event_id = 0

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        track: str,
        start_s: float,
        parent: Optional[Span] = None,
        **args,
    ) -> Span:
        span = Span(
            span_id=self._next_span_id,
            name=name,
            track=track,
            start_s=float(start_s),
            parent_id=None if parent is None else parent.span_id,
            args=_clean_args(args),
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, end_s: float, **args) -> Span:
        if span.end_s is not None:
            raise ValueError(
                f"span {span.span_id} ({span.name}) already ended"
            )
        if end_s < span.start_s:
            raise ValueError(
                f"span {span.span_id} ends at {end_s} before start "
                f"{span.start_s}"
            )
        span.end_s = float(end_s)
        if args:
            span.args = _clean_args({**span.args, **args})
        return span

    def span(
        self,
        name: str,
        track: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        **args,
    ) -> Span:
        """Record an already-closed interval in one call."""
        span = self.begin_span(name, track, start_s, parent=parent, **args)
        return self.end_span(span, end_s)

    def event(
        self,
        name: str,
        track: str,
        ts_s: float,
        span: Optional[Span] = None,
        **args,
    ) -> Event:
        event = Event(
            event_id=self._next_event_id,
            name=name,
            track=track,
            ts_s=float(ts_s),
            span_id=None if span is None else span.span_id,
            args=_clean_args(args),
        )
        self._next_event_id += 1
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def tracks(self) -> list[str]:
        """Every track name seen, sorted (the exporters' row order)."""
        names = {span.track for span in self.spans}
        names.update(event.track for event in self.events)
        return sorted(names)

    def records(self) -> list[dict]:
        """Every span and event as dicts, in global timestamp order.

        Sort key is (timestamp, spans-before-events, emission id) so the
        order is total and deterministic even with coincident times.
        """
        items = [
            (span.start_s, 0, span.span_id, span.to_dict())
            for span in self.spans
        ]
        items.extend(
            (event.ts_s, 1, event.event_id, event.to_dict())
            for event in self.events
        )
        items.sort(key=lambda item: item[:3])
        return [item[3] for item in items]


__all__ = ["Event", "Span", "Tracer"]
