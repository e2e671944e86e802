"""Normalized trace records: the analytics subsystem's input model.

Every analysis in :mod:`repro.obs.analyze` runs on **integer
nanoseconds**. Float seconds are what the tracer stores (simulated
clock readings), but float addition does not associate — summing a
request's wait/tick components in float would drift off its end-to-end
latency by ulps and break the "attribution sums bit-exactly" guarantee.
Converting every timestamp once via :func:`to_ns` and doing all
arithmetic in ``int`` makes interval sums telescope exactly: for any
chain of shared breakpoints, ``sum(b[i+1] - b[i]) == b[-1] - b[0]``.

Three sources produce the same normalized records:

- a live :class:`~repro.obs.trace.Tracer` (in-process analysis);
- the JSONL event log (``repro trace --events-out``) — the primary
  artifact path, full-float-repr timestamps, byte-exact round-trip;
- a Chrome trace-event document (``repro trace --out``) — timestamps
  there are microseconds rounded to 1e-3 us, i.e. already nanosecond
  resolution, so ``round(ts_us * 1000)`` recovers the same integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

#: Nanoseconds per second (the fixed analysis resolution).
NS_PER_S = 1_000_000_000


def to_ns(seconds: float) -> int:
    """Float seconds -> integer nanoseconds (round-half-even).

    Matches the Chrome exporter's ``round(s * 1e6, 3)`` microsecond
    grid, so records loaded from either artifact agree.
    """
    return round(float(seconds) * NS_PER_S)


@dataclass(frozen=True)
class SpanRec:
    """A closed interval on a track, in integer nanoseconds."""

    span_id: int
    name: str
    track: str
    start_ns: int
    end_ns: int
    parent_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class EventRec:
    """An instant on a track, in integer nanoseconds."""

    event_id: int
    name: str
    track: str
    ts_ns: int
    args: dict = field(default_factory=dict)


@dataclass
class TraceRecords:
    """Normalized spans + events, ready for analysis.

    ``spans`` and ``events`` keep their source order (global timestamp
    order for the artifact loaders, which is what
    :meth:`~repro.obs.trace.Tracer.records` emits).
    """

    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "TraceRecords":
        """From :meth:`Tracer.records` dicts (or JSONL-parsed rows)."""
        out = cls()
        for record in records:
            if record.get("type") == "span":
                if record.get("end_s") is None:
                    continue  # open span: nothing to attribute
                out.spans.append(SpanRec(
                    span_id=int(record["span_id"]),
                    name=record["name"],
                    track=record["track"],
                    start_ns=to_ns(record["start_s"]),
                    end_ns=to_ns(record["end_s"]),
                    parent_id=record.get("parent_id"),
                    args=dict(record.get("args") or {}),
                ))
            elif record.get("type") == "event":
                out.events.append(EventRec(
                    event_id=int(record["event_id"]),
                    name=record["name"],
                    track=record["track"],
                    ts_ns=to_ns(record["ts_s"]),
                    args=dict(record.get("args") or {}),
                ))
        return out

    @classmethod
    def from_tracer(cls, tracer) -> "TraceRecords":
        """From a live :class:`~repro.obs.trace.Tracer`, read in place.

        Equal to ``from_records(tracer.records())``: closed spans and
        events each in ``(timestamp, id)`` order (the two lists are
        separate, so spans-before-events needs no key here). The tracer
        keeps ``args`` key-sorted, so a copy normalises them.
        """
        spans = sorted(
            (span for span in tracer.spans if span.end_s is not None),
            key=attrgetter("start_s", "span_id"),
        )
        events = sorted(tracer.events, key=attrgetter("ts_s", "event_id"))
        return cls(
            spans=[
                SpanRec(
                    span.span_id, span.name, span.track, to_ns(span.start_s),
                    to_ns(span.end_s), span.parent_id, dict(span.args),
                )
                for span in spans
            ],
            events=[
                EventRec(
                    event.event_id, event.name, event.track,
                    to_ns(event.ts_s), dict(event.args),
                )
                for event in events
            ],
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceRecords":
        rows = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
        return cls.from_records(rows)

    @classmethod
    def from_chrome_trace(cls, doc: dict) -> "TraceRecords":
        """From a Chrome trace-event document (``repro trace --out``)."""
        out = cls()
        tracks = {
            meta["tid"]: meta.get("args", {}).get("name", "")
            for meta in doc.get("traceEvents", [])
            if meta.get("ph") == "M" and meta.get("name") == "thread_name"
        }

        def track_of(entry: dict) -> str:
            return tracks.get(entry.get("tid"), f"tid{entry.get('tid')}")

        next_event_id = 0
        for entry in doc.get("traceEvents", []):
            ph = entry.get("ph")
            args = dict(entry.get("args") or {})
            if ph == "X":
                span_id = args.pop("span_id", len(out.spans))
                parent_id = args.pop("parent_id", None)
                start_ns = round(float(entry["ts"]) * 1000)
                out.spans.append(SpanRec(
                    span_id=int(span_id),
                    name=entry["name"],
                    track=track_of(entry),
                    start_ns=start_ns,
                    end_ns=start_ns + round(float(entry["dur"]) * 1000),
                    parent_id=parent_id,
                    args=args,
                ))
            elif ph == "i":
                args.pop("span_id", None)
                out.events.append(EventRec(
                    event_id=next_event_id,
                    name=entry["name"],
                    track=track_of(entry),
                    ts_ns=round(float(entry["ts"]) * 1000),
                    args=args,
                ))
                next_event_id += 1
        return out

    @classmethod
    def load(cls, path: str) -> "TraceRecords":
        """Sniff and load either artifact format from ``path``.

        A JSON document with a ``traceEvents`` key is a Chrome trace;
        anything else is treated as the JSONL event log.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            # JSONL lines are JSON objects too, so sniff by parsing the
            # whole document: only a one-document Chrome trace succeeds.
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                doc = None
            if isinstance(doc, dict) and "traceEvents" in doc:
                return cls.from_chrome_trace(doc)
        return cls.from_jsonl(text)

    def horizon_ns(self) -> int:
        """Latest timestamp seen anywhere (0 for an empty trace)."""
        latest = 0
        for span in self.spans:
            latest = max(latest, span.end_ns)
        for event in self.events:
            latest = max(latest, event.ts_ns)
        return latest


__all__ = [
    "EventRec",
    "NS_PER_S",
    "SpanRec",
    "TraceRecords",
    "to_ns",
]
