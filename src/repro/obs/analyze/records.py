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
and ``events`` (:class:`EventRec` rows), with ids and nanoseconds in
``array('q')`` columns and a ``row`` index into the ``(name, track,
args)`` entries; the analyses read ``np.frombuffer`` views of the
columns and a ``SpanRec`` is built only for a caller that indexes or
iterates. Rows are flat, as the tracer's: no record links to another,
and the loaders skip the JSONL's two null link keys. Three sources
produce equal records:

- a live :class:`~repro.obs.trace.Tracer` (in-process analysis), whose
  row entries are shared, not copied;
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
from collections import namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.obs.trace import Rows, Table, empty_columns, int64, int64_column

if TYPE_CHECKING:
    from array import array

#: Nanoseconds per second (the fixed analysis resolution).
NS_PER_S = 1_000_000_000


def to_ns(seconds: float) -> int:
    """Float seconds -> integer nanoseconds (round-half-even).

    Matches the Chrome exporter's ``round(s * 1e6, 3)`` microsecond
    grid for timestamps, so records loaded from either artifact agree
    on every start and instant.
    """
    return round(float(seconds) * NS_PER_S)


def _by_time(*seconds: array) -> tuple:
    """The stable order of the first column (row ids, ties in id
    order), then every column in that order as :func:`to_ns` values,
    all as ``array('q')`` columns."""
    order = np.argsort(np.frombuffer(seconds[0]), kind="stable")
    return int64_column(order), *(
        int64_column(np.rint(np.frombuffer(column)[order] * NS_PER_S))
        for column in seconds
    )


def _id(value, field: str, name) -> int:
    """A loaded span or event id: an int in ``[0, 2**63)``, the range
    of its ``array('q')`` column; anything else is a ValueError naming
    the record."""
    if type(value) is not int or not 0 <= value < 1 << 63:
        raise ValueError(f"{name!r}: {field} {value!r} is not an int in "
                         f"[0, 2**63)")
    return value


def _take(column: array, order: array) -> array:
    """``column`` in ``order``."""
    return int64_column(int64(column)[int64(order)])


class SpanRec(NamedTuple):
    """A closed interval on a track, in integer nanoseconds."""

    span_id: int
    name: str
    track: str
    start_ns: int
    end_ns: int
    args: dict


class EventRec(NamedTuple):
    """An instant on a track, in integer nanoseconds."""

    event_id: int
    name: str
    track: str
    ts_ns: int
    args: dict


#: The stored columns of records, every one ``array('q')``.
SpanRecColumns = namedtuple("SpanRecColumns", "span_id start_ns end_ns row")
EventRecColumns = namedtuple("EventRecColumns", "event_id ts_ns row")


def _spans(*columns, rows=None) -> Table:
    return Table(SpanRec, SpanRecColumns(*columns or empty_columns("qqqq")),
                 rows or Rows([], [], []))


def _events(*columns, rows=None) -> Table:
    return Table(EventRec, EventRecColumns(*columns or empty_columns("qqq")),
                 rows or Rows([], [], []))


@dataclass
class TraceRecords:
    """Normalized spans + events, ready for analysis.

    ``spans`` and ``events`` keep their source order (global timestamp
    order for the artifact loaders, which is what
    :meth:`~repro.obs.trace.Tracer.order` emits).
    """

    spans: Table = field(default_factory=_spans)
    events: Table = field(default_factory=_events)

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
                name = record["name"]
                out.spans.append(
                    _id(record["span_id"], "span_id", name), name,
                    record["track"], to_ns(record["start_s"]),
                    to_ns(record["end_s"]), dict(record.get("args") or {}),
                )
            elif record.get("type") == "event":
                name = record["name"]
                out.events.append(
                    _id(record["event_id"], "event_id", name), name,
                    record["track"],
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
        spans, events = tracer.spans, tracer.events
        order, start_ns, end_ns = _by_time(spans.columns.start_s,
                                           spans.columns.end_s)
        at, ts_ns = _by_time(events.columns.ts_s)
        return cls(
            spans=_spans(order, start_ns, end_ns,
                         _take(spans.columns.row, order), rows=spans.rows),
            events=_events(at, ts_ns, _take(events.columns.row, at),
                           rows=events.rows),
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
                name = entry["name"]
                span_id = _id(args.pop("span_id", len(out.spans)),
                              "span_id", name)
                start_ns = round(float(entry["ts"]) * 1000)
                out.spans.append(
                    span_id, name, track_of(entry), start_ns,
                    start_ns + round(float(entry["dur"]) * 1000), args,
                )
            elif ph == "i":
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
        row. A record whose id is not an int in ``[0, 2**63)`` is a
        ``ValueError`` naming the path and the record, and so is a fleet
        ``dispatch[…]`` span that lists no ``request_ids`` (an artifact
        written before dispatches listed their members, whose requests
        the analysis cannot attribute). An empty file is an empty trace.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = None
        if text.lstrip().startswith("{"):
            # JSONL lines are JSON objects too, so sniff by parsing the
            # whole document: only a one-document Chrome trace succeeds.
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                pass
        try:
            records = (cls.from_chrome_trace(doc)
                       if isinstance(doc, dict) and "traceEvents" in doc
                       else cls.from_jsonl(text))
            for span in records.spans:
                if span.name.startswith("dispatch[") and "request_ids" not in span.args:
                    raise ValueError(f"{span.name!r}: span_id {span.span_id} lists no "
                                     "request_ids (written before dispatches listed them)")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return records

    def horizon_ns(self) -> int:
        """Latest timestamp seen anywhere (0 for an empty trace)."""
        return int(max(
            int64(self.spans.columns.end_ns).max(initial=0),
            int64(self.events.columns.ts_ns).max(initial=0),
        ))


__all__ = [
    "EventRec",
    "NS_PER_S",
    "SpanRec",
    "TraceRecords",
    "to_ns",
]
