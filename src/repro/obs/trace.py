"""Structured tracing: spans and events with deterministic identity.

A :class:`Tracer` collects two primitive shapes:

- a *span* — a named interval ``[start_s, end_s)`` on a *track* (one row
  in the rendered timeline: a replica, the live batch, the hw pipeline);
- an *event* — a named instant at ``ts_s`` on a track (a join, an
  eviction, an SLO violation).

Rows are flat: neither kind links to another row.

**Time never comes from the tracer.** Every ``span``/``event`` call is
passed a timestamp by the owning layer — the cluster's
:class:`~repro.cluster.replica.SimClock`, a server's simulated tick
accumulator, or the hw timeline's priced seconds — so two same-seed runs
produce byte-identical traces. A NaN or infinite timestamp is refused
with a :class:`ValueError` naming the record, so none reaches an
exporter. Span and event ids are sequence numbers in emission order,
which the same determinism argument makes stable too.

**Storage is columnar and typed.** Each kind lives in a :class:`Table`:
timestamps in ``array('d')`` and an ``array('q')`` index into the
table's :class:`Rows`, the ``(name, track, args)`` entries. An id is
its row position, so it is stored nowhere; recording a span costs three
machine words and no object. An entry may back many rows
(:meth:`Tracer.record_row` repeats one), so recorded ``args`` are
read-only; their keys are sorted only where a record is serialized.
:class:`Span` and :class:`Event` are row *views*, built only when a
caller indexes or iterates ``tracer.spans`` / ``tracer.events``;
vector readers take ``np.frombuffer`` views of the arrays.

The tracer stores; exporters (:mod:`repro.obs.export`) render — Chrome
trace-event JSON for Perfetto / ``chrome://tracing``, or a flat JSONL
event log.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from array import array

_INF = float("inf")


class Span(NamedTuple):
    """A view of one recorded interval."""

    span_id: int
    name: str
    track: str
    start_s: float
    end_s: float
    args: dict


class Event(NamedTuple):
    """A view of one recorded instant."""

    event_id: int
    name: str
    track: str
    ts_s: float
    args: dict


class Rows(NamedTuple):
    """The ``(name, track, args)`` entries a table's ``row`` column
    indexes, one list per field. Every entry backs at least one row."""

    name: list
    track: list
    args: list


#: A tracer's stored columns: stamps 'd', ``row`` 'q'.
SpanColumns = namedtuple("SpanColumns", "start_s end_s row")
EventColumns = namedtuple("EventColumns", "ts_s row")


def empty_columns(codes: str) -> list:
    """One empty column per typecode: ``array(code)``, a list for ``-``."""
    # Imported on first use, so a process that records no trace never
    # loads the extension module (~0.1 MB of peak RSS).
    from array import array

    return [[] if code == "-" else array(code) for code in codes]


def int64(column) -> np.ndarray:
    """A read-only int64 view of an ``array('q')`` column (no copy)."""
    return np.frombuffer(column, np.int64)


def int64_column(values) -> array:
    """``values`` (a numpy array) as an ``array('q')`` column."""
    column = empty_columns("q")[0]
    column.frombytes(np.asarray(values, np.int64).tobytes())
    return column


class Table(Sequence):
    """Append-only rows of one ``NamedTuple`` type, stored by column.

    ``columns`` is a named tuple of the stored fields: numbers in typed
    arrays, other values in lists, and, with ``rows``, a ``row`` index
    into the :class:`Rows` that hold ``name``, ``track`` and ``args``. A
    row-type field stored nowhere is the row's position: its id. Indexing or iterating builds
    row views; equal views make equal tables.
    """

    def __init__(self, row_type, columns, rows: Optional[Rows] = None) -> None:
        self.row_type, self.columns, self.rows = row_type, columns, rows

    def __len__(self) -> int:
        return len(self.columns[0])

    def _value(self, field: str, index: int):
        if field in self.columns._fields:
            return getattr(self.columns, field)[index]
        if field in Rows._fields:
            return getattr(self.rows, field)[self.columns.row[index]]
        return index

    def __getitem__(self, index: int):
        index = range(len(self))[index]
        return self.row_type._make(
            self._value(field, index) for field in self.row_type._fields
        )

    def _values(self, field: str):
        """Every row's ``field``, in row order: :meth:`_value` by column."""
        if field in self.columns._fields:
            return getattr(self.columns, field)
        if field in Rows._fields:
            return map(getattr(self.rows, field).__getitem__, self.columns.row)
        return range(len(self))

    def __iter__(self):
        return map(self.row_type._make,
                   zip(*map(self._values, self.row_type._fields)))

    def append(self, *values) -> None:
        """Append one row given as the row type's fields; with ``rows``,
        its name, track and args become a new entry."""
        row = dict(zip(self.row_type._fields, values))
        if self.rows is not None:
            row["row"] = len(self.rows.name)
            for field, entries in zip(Rows._fields, self.rows):
                entries.append(row[field])
        for field, column in zip(self.columns._fields, self.columns):
            column.append(row[field])

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and list(self) == list(other)


def _sorted_args(args: dict) -> dict:
    """Key-sorted copy, the serialized form's argument order."""
    return {key: args[key] for key in sorted(args)}


def _check_stamps(name: str, track: str, start_s: float, end_s: float):
    """Refuse NaN, infinite and reversed span stamps, naming the span."""
    start_s, end_s = float(start_s), float(end_s)
    if not (math.isfinite(start_s) and math.isfinite(end_s)):
        raise ValueError(
            f"span {name!r} on {track!r}: non-finite timestamp "
            f"(start {start_s}, end {end_s})"
        )
    if end_s < start_s:
        raise ValueError(
            f"span {name!r} ends at {end_s} before start {start_s}"
        )


class Tracer:
    """Accumulates spans and events in deterministic emission order.

    Recorded ``args`` dicts are read-only: one entry may back many spans
    (the observer repeats a live batch's dispatch rows), so a reader
    that edits args copies them first, as the exporters and loaders do.
    """

    def __init__(self) -> None:
        self.spans = Table(Span, SpanColumns(*empty_columns("ddq")),
                           Rows([], [], []))
        self.events = Table(Event, EventColumns(*empty_columns("dq")),
                            Rows([], [], []))

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # ------------------------------------------------------------------
    def span(self, name: str, track: str, start_s: float, end_s: float,
             **args) -> int:
        """Record a closed interval; returns its span id."""
        return self.record_span(name, track, start_s, end_s, args)

    def record_span(self, name: str, track: str, start_s: float,
                    end_s: float, args: dict) -> int:
        """:meth:`span` with its args as a dict, stored as given (not
        copied), in a new :class:`Rows` entry."""
        start_s, end_s = float(start_s), float(end_s)
        if not -_INF < start_s <= end_s < _INF:  # before the entry
            _check_stamps(name, track, start_s, end_s)
        rows = self.spans.rows
        rows.name.append(name)
        rows.track.append(track)
        rows.args.append(args)
        return self.record_row(len(rows.name) - 1, start_s, end_s)

    def record_row(self, row: int, start_s: float, end_s: float) -> int:
        """Record a span on the existing entry ``row`` of ``spans.rows``
        (the name, track and args of an earlier span) with its own
        stamps; returns its span id."""
        start_s, end_s = float(start_s), float(end_s)
        # One chained test passes every good pair of stamps: every
        # cluster dispatch records a span, so this is the recording hot
        # path, and its appends are spelled out.
        if not -_INF < start_s <= end_s < _INF:
            rows = self.spans.rows
            _check_stamps(rows.name[row], rows.track[row], start_s, end_s)
        columns = self.spans.columns
        columns.start_s.append(start_s)
        columns.end_s.append(end_s)
        columns.row.append(row)
        return len(columns.row) - 1

    def event(self, name: str, track: str, ts_s: float, **args) -> int:
        """Record an instant; returns its event id."""
        ts_s = float(ts_s)
        if not math.isfinite(ts_s):
            raise ValueError(
                f"event {name!r} on {track!r}: non-finite timestamp {ts_s}"
            )
        columns, rows = self.events.columns, self.events.rows
        columns.ts_s.append(ts_s)
        columns.row.append(len(rows.name))
        rows.name.append(name)
        rows.track.append(track)
        rows.args.append(args)
        return len(columns.row) - 1

    # ------------------------------------------------------------------
    def tracks(self) -> list[str]:
        """Every track name seen, sorted (the exporters' row order)."""
        return sorted(set(self.spans.rows.track) | set(self.events.rows.track))

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
        """Every span and event as dicts, in :meth:`order`.

        The JSONL event-log schema keeps its two link keys, a span's
        parent and an event's enclosing span; rows are flat, so both
        are null.
        """
        spans, events = list(self.spans), list(self.events)
        return [
            {
                "type": "event", "event_id": i, "name": view.name,
                "track": view.track, "ts_s": view.ts_s,
                "span_id": None, "args": _sorted_args(view.args),
            } if is_event else {
                "type": "span", "span_id": i, "name": view.name,
                "track": view.track, "start_s": view.start_s,
                "end_s": view.end_s, "parent_id": None,
                "args": _sorted_args(view.args),
            }
            for is_event, i in self.order()
            for view in [(events if is_event else spans)[i]]
        ]


__all__ = ["Event", "Rows", "Span", "Table", "Tracer"]
