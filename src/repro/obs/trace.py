"""Structured tracing: spans and events with deterministic identity.

A :class:`Tracer` collects two primitive shapes:

- a *span* — a named interval ``[start_s, end_s)`` on a *track* (one row
  in the rendered timeline: a replica, the live batch, the hw pipeline),
  optionally linked to a parent span;
- an *event* — a named instant at ``ts_s`` on a track (a join, an
  eviction, an SLO violation), optionally linked to the span it happened
  inside.

**Time never comes from the tracer.** Every ``span``/``event`` call is
passed a timestamp by the owning layer — the cluster's
:class:`~repro.cluster.replica.SimClock`, a server's simulated tick
accumulator, or the hw timeline's priced seconds — so two same-seed runs
produce byte-identical traces. A NaN or infinite timestamp is refused
with a :class:`ValueError` naming the record, so none reaches an
exporter. Span and event ids are sequence numbers in emission order,
which the same determinism argument makes stable too.

**Storage is columnar.** Each kind lives in a :class:`Table`: one list
per field, appended to on every call, so recording a span costs a few
list appends and no object. The ``args`` keywords are stored as the
dict the call built (:meth:`Tracer.record_span` stores the dict it is
given); their keys are sorted only where a record is serialized.
:class:`Span` and :class:`Event` are row *views*, built only when a
caller indexes or iterates ``tracer.spans`` / ``tracer.events``
(``len()`` reads a column length).

The tracer stores; exporters (:mod:`repro.obs.export`) render — Chrome
trace-event JSON for Perfetto / ``chrome://tracing``, or a flat JSONL
event log.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple, Optional

_INF = float("inf")


class Span(NamedTuple):
    """A view of one recorded interval."""

    span_id: int
    name: str
    track: str
    start_s: float
    end_s: float
    parent_id: Optional[int]
    args: dict


class Event(NamedTuple):
    """A view of one recorded instant."""

    event_id: int
    name: str
    track: str
    ts_s: float
    span_id: Optional[int]
    args: dict


class Table(Sequence):
    """Append-only rows of one ``NamedTuple`` type, stored by column.

    ``columns`` is an instance of the row type whose fields are lists —
    ``table.columns.start_s`` is the start column. Indexing or iterating
    builds row views from them.
    """

    def __init__(self, row_type, columns=None) -> None:
        self.row_type = row_type
        self.columns = columns or row_type._make([] for _ in row_type._fields)

    def append(self, *row) -> None:
        for column, value in zip(self.columns, row):
            column.append(value)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: int):
        return self.row_type._make(column[index] for column in self.columns)

    def __iter__(self):
        return map(self.row_type._make, zip(*self.columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self.columns == other.columns


def _sorted_args(args: dict) -> dict:
    """Key-sorted copy, the serialized form's argument order."""
    return {key: args[key] for key in sorted(args)}


class Tracer:
    """Accumulates spans and events in deterministic emission order.

    Recorded ``args`` dicts are read-only: one dict may back many rows
    (the observer shares a live batch's dispatch rows), so a reader
    that edits args copies them first, as the exporters and loaders do.
    """

    def __init__(self) -> None:
        self.spans = Table(Span)
        self.events = Table(Event)

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        track: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[int] = None,
        **args,
    ) -> int:
        """Record a closed interval; returns its span id."""
        return self.record_span(name, track, start_s, end_s, parent_id, args)

    def record_span(
        self,
        name: str,
        track: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[int],
        args: dict,
    ) -> int:
        """:meth:`span` with its args as a dict, stored as given (not
        copied), so rows may share one dict."""
        start_s, end_s = float(start_s), float(end_s)
        # One chained test refuses NaN, infinities and reversed stamps.
        if not -_INF < start_s <= end_s < _INF:
            if not (math.isfinite(start_s) and math.isfinite(end_s)):
                raise ValueError(
                    f"span {name!r} on {track!r}: non-finite timestamp "
                    f"(start {start_s}, end {end_s})"
                )
            raise ValueError(
                f"span {name!r} ends at {end_s} before start {start_s}"
            )
        # One append per column, spelled out: every cluster dispatch
        # records a span, so this is the recording hot path.
        columns = self.spans.columns
        span_id = len(columns.span_id)
        columns.span_id.append(span_id)
        columns.name.append(name)
        columns.track.append(track)
        columns.start_s.append(start_s)
        columns.end_s.append(end_s)
        columns.parent_id.append(parent_id)
        columns.args.append(args)
        return span_id

    def event(
        self,
        name: str,
        track: str,
        ts_s: float,
        span_id: Optional[int] = None,
        **args,
    ) -> int:
        """Record an instant; returns its event id."""
        ts_s = float(ts_s)
        if not math.isfinite(ts_s):
            raise ValueError(
                f"event {name!r} on {track!r}: non-finite timestamp {ts_s}"
            )
        event_id = len(self.events)
        self.events.append(event_id, name, track, ts_s, span_id, args)
        return event_id

    # ------------------------------------------------------------------
    def tracks(self) -> list[str]:
        """Every track name seen, sorted (the exporters' row order)."""
        return sorted(
            set(self.spans.columns.track) | set(self.events.columns.track)
        )

    def order(self) -> list[tuple[bool, int]]:
        """``(is_event, row)`` for every span and event, in global
        timestamp order.

        Sort key is (timestamp, spans-before-events, emission id) so the
        order is total and deterministic even with coincident times.
        """
        items = [(t, False, i) for i, t in enumerate(self.spans.columns.start_s)]
        items += [(t, True, i) for i, t in enumerate(self.events.columns.ts_s)]
        items.sort()
        return [item[1:] for item in items]

    def records(self) -> list[dict]:
        """Every span and event as dicts, in :meth:`order`."""
        spans, events = self.spans.columns, self.events.columns
        return [
            {
                "type": "event", "event_id": i, "name": events.name[i],
                "track": events.track[i], "ts_s": events.ts_s[i],
                "span_id": events.span_id[i],
                "args": _sorted_args(events.args[i]),
            } if is_event else {
                "type": "span", "span_id": i, "name": spans.name[i],
                "track": spans.track[i], "start_s": spans.start_s[i],
                "end_s": spans.end_s[i], "parent_id": spans.parent_id[i],
                "args": _sorted_args(spans.args[i]),
            }
            for is_event, i in self.order()
        ]


__all__ = ["Event", "Span", "Table", "Tracer"]
