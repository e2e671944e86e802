"""Normalized trace records: the analytics subsystem's input model.

Every analysis in :mod:`repro.obs.analyze` runs on **integer
nanoseconds**. Float seconds are what the tracer stores (simulated
clock readings), but float addition does not associate — summing a
request's wait/tick components in float would drift off its end-to-end
latency by ulps and break the "attribution sums bit-exactly" guarantee.
Converting every timestamp once via :func:`to_ns` and doing all
arithmetic in ``int`` makes interval sums telescope exactly: for any
chain of shared breakpoints, ``sum(b[i+1] - b[i]) == b[-1] - b[0]``.

Records are stored like the tracer's rows: two
:class:`~repro.obs.trace.Table` s, ``spans`` (:class:`SpanRec` rows)
and ``events`` (:class:`EventRec` rows), one list per field; the
analyses read the columns and a ``SpanRec`` is built only for a caller
that indexes or iterates. Three sources produce them:

- a live :class:`~repro.obs.trace.Tracer` (in-process analysis), whose
  ``args`` dicts are shared, not copied;
- the JSONL event log (``repro trace --events-out``) — the primary
  artifact path, full-float-repr timestamps, byte-exact round-trip;
- a Chrome trace-event document (``repro trace --out``) — ``ts`` there
  is microseconds rounded to 1e-3 us, so ``round(ts_us * 1000)``
  recovers each start and instant exactly. A span's end does not
  always: ``dur`` is the difference rounded on its own, not the
  difference of the two rounded stamps, so ``start + dur`` can land
  1 ns off the true end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.obs.trace import Table

#: Nanoseconds per second (the fixed analysis resolution).
NS_PER_S = 1_000_000_000


def to_ns(seconds: float) -> int:
    """Float seconds -> integer nanoseconds (round-half-even).

    Matches the Chrome exporter's ``round(s * 1e6, 3)`` microsecond
    grid for timestamps, so records loaded from either artifact agree
    on every start and instant.
    """
    return round(float(seconds) * NS_PER_S)


def _by_time(*seconds: list) -> tuple:
    """The stable order of the first column (row ids, ties in id
    order), then every column in that order as :func:`to_ns` values."""
    columns = [
        np.fromiter(column, np.float64, len(column)) for column in seconds
    ]
    order = np.argsort(columns[0], kind="stable")
    return order.tolist(), *(
        np.rint(column[order] * NS_PER_S).astype(np.int64).tolist()
        for column in columns
    )


class SpanRec(NamedTuple):
    """A closed interval on a track, in integer nanoseconds."""

    span_id: int
    name: str
    track: str
    start_ns: int
    end_ns: int
    parent_id: Optional[int]
    args: dict

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class EventRec(NamedTuple):
    """An instant on a track, in integer nanoseconds."""

    event_id: int
    name: str
    track: str
    ts_ns: int
    args: dict


@dataclass
class TraceRecords:
    """Normalized spans + events, ready for analysis.

    ``spans`` and ``events`` keep their source order (global timestamp
    order for the artifact loaders, which is what
    :meth:`~repro.obs.trace.Tracer.order` emits).
    """

    spans: Table = field(default_factory=lambda: Table(SpanRec))
    events: Table = field(default_factory=lambda: Table(EventRec))

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
                out.spans.append(
                    int(record["span_id"]), record["name"], record["track"],
                    to_ns(record["start_s"]), to_ns(record["end_s"]),
                    record.get("parent_id"), dict(record.get("args") or {}),
                )
            elif record.get("type") == "event":
                out.events.append(
                    int(record["event_id"]), record["name"], record["track"],
                    to_ns(record["ts_s"]), dict(record.get("args") or {}),
                )
        return out

    @classmethod
    def from_tracer(cls, tracer) -> "TraceRecords":
        """From a live :class:`~repro.obs.trace.Tracer`'s columns.

        Equal to ``from_records(tracer.records())``: spans and events
        each in ``(timestamp, id)`` order — ids are row positions, so a
        stable sort on the timestamp alone gives it.
        """
        spans, events = tracer.spans.columns, tracer.events.columns
        order, start_ns, end_ns = _by_time(spans.start_s, spans.end_s)
        at, ts_ns = _by_time(events.ts_s)
        return cls(
            spans=Table(SpanRec, SpanRec(
                order,
                list(map(spans.name.__getitem__, order)),
                list(map(spans.track.__getitem__, order)),
                start_ns,
                end_ns,
                list(map(spans.parent_id.__getitem__, order)),
                list(map(spans.args.__getitem__, order)),
            )),
            events=Table(EventRec, EventRec(
                at,
                list(map(events.name.__getitem__, at)),
                list(map(events.track.__getitem__, at)),
                ts_ns,
                list(map(events.args.__getitem__, at)),
            )),
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceRecords":
        """One span or event row per non-blank line, else ValueError."""
        rows = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if not isinstance(row, dict) or row.get("type") not in (
                "span", "event"
            ):
                raise ValueError(f"line {number} is neither a Chrome trace "
                                 f"nor a span or event row: {line[:60]!r}")
            rows.append(row)
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

        for entry in doc.get("traceEvents", []):
            ph = entry.get("ph")
            args = dict(entry.get("args") or {})
            if ph == "X":
                span_id = args.pop("span_id", len(out.spans))
                parent_id = args.pop("parent_id", None)
                start_ns = round(float(entry["ts"]) * 1000)
                out.spans.append(
                    int(span_id), entry["name"], track_of(entry), start_ns,
                    start_ns + round(float(entry["dur"]) * 1000), parent_id,
                    args,
                )
            elif ph == "i":
                args.pop("span_id", None)
                out.events.append(
                    len(out.events), entry["name"], track_of(entry),
                    round(float(entry["ts"]) * 1000), args,
                )
        return out

    @classmethod
    def load(cls, path: str) -> "TraceRecords":
        """Sniff and load either artifact format from ``path``.

        A JSON document with a ``traceEvents`` key is a Chrome trace;
        anything else must be the JSONL event log, or ``ValueError``
        names the path and the first line that is not a span or event
        row. An empty file is an empty trace.
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
        try:
            return cls.from_jsonl(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def horizon_ns(self) -> int:
        """Latest timestamp seen anywhere (0 for an empty trace)."""
        return max(
            max(self.spans.columns.end_ns, default=0),
            max(self.events.columns.ts_ns, default=0),
            0,
        )


__all__ = [
    "EventRec",
    "NS_PER_S",
    "SpanRec",
    "TraceRecords",
    "to_ns",
]
