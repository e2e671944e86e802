"""Exporters: Chrome trace-event JSON (Perfetto) and flat JSONL.

The Chrome trace-event format is the lingua franca of timeline viewers:
the emitted document loads directly in `Perfetto <https://ui.perfetto.
dev>`_ or ``chrome://tracing``. Mapping from :class:`~repro.obs.trace.
Tracer`:

- each **track** becomes one thread row (``pid`` 1, ``tid`` = rank of
  the track name in sorted order), named by an ``M`` (metadata) event;
- each **closed span** becomes an ``X`` (complete) event with ``ts`` /
  ``dur`` in microseconds; parent links ride in ``args.parent_id``;
- each **open span** becomes a ``b`` (async begin) event — visible in
  the viewer, explicitly unterminated;
- each **event** becomes an ``i`` (instant) event with thread scope.

Everything is serialized canonically (sorted keys, fixed separators,
trailing newline), so a deterministic tracer yields a byte-identical
``trace.json`` across runs — the property ``python -m repro trace``
gates on. :func:`validate_chrome_trace` is the structural check used by
tests and the trace CLI.
"""

from __future__ import annotations

from repro.canon import canonical_json
from repro.obs.trace import Tracer

_MICRO = 1e6
#: Phases emitted by :func:`chrome_trace` (subset of the spec).
_PHASES = ("M", "X", "i", "b", "e")


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded to fixed precision.

    Rounding to 1e-3 us keeps the JSON free of float-repr noise without
    losing resolution any viewer can display.
    """
    return round(seconds * _MICRO, 3)


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer as a Chrome trace-event document (dict)."""
    tracks = tracer.tracks()
    tids = {track: tid for tid, track in enumerate(tracks, start=1)}
    trace_events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 0,
        "args": {"name": "repro"},
    }]
    for track in tracks:
        trace_events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        })
    for record in tracer.records():
        args = dict(record["args"])
        if record["type"] == "span":
            args["span_id"] = record["span_id"]
            if record["parent_id"] is not None:
                args["parent_id"] = record["parent_id"]
            if record["end_s"] is None:
                trace_events.append({
                    "name": record["name"],
                    "ph": "b",
                    "cat": "span",
                    "id": record["span_id"],
                    "pid": 1,
                    "tid": tids[record["track"]],
                    "ts": _us(record["start_s"]),
                    "args": args,
                })
            else:
                trace_events.append({
                    "name": record["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[record["track"]],
                    "ts": _us(record["start_s"]),
                    "dur": _us(record["end_s"] - record["start_s"]),
                    "args": args,
                })
        else:
            if record["span_id"] is not None:
                args["span_id"] = record["span_id"]
            trace_events.append({
                "name": record["name"],
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": tids[record["track"]],
                "ts": _us(record["ts_s"]),
                "args": args,
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Canonical JSON serialization of :func:`chrome_trace`."""
    return canonical_json(chrome_trace(tracer))


def validate_chrome_trace(doc: dict) -> int:
    """Structurally validate a trace-event document.

    Returns the number of trace events; raises :class:`ValueError` on
    the first malformed entry. This is the schema gate used by the
    ``trace`` CLI and the obs test suite — it checks exactly the
    invariants the viewers rely on, nothing stricter.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must have a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"{where} has unknown phase {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} needs a non-empty name")
        for key in ("pid", "tid"):
            value = event.get(key)
            # bool is an int subclass; a True tid is still malformed.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{where} needs integer {key}")
        if ph != "M":
            ts = event.get("ts")
            if (
                not isinstance(ts, (int, float))
                or isinstance(ts, bool)
                or ts != ts  # NaN
                or ts in (float("inf"), float("-inf"))
                or ts < 0
            ):
                raise ValueError(f"{where} needs finite ts >= 0")
        if ph == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur != dur
                or dur in (float("inf"), float("-inf"))
                or dur < 0
            ):
                raise ValueError(f"{where} needs finite dur >= 0")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where} needs instant scope s in t/p/g")
        if ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where} metadata needs args.name")
        if ph in ("b", "e") and "id" not in event:
            raise ValueError(f"{where} async event needs an id")
    return len(events)


def events_jsonl(tracer: Tracer) -> str:
    """Flat JSONL log: one canonical JSON record per span/event.

    Records are in global timestamp order (:meth:`Tracer.records`), so
    the log reads as a chronological narrative and diffs stably.
    """
    return "".join(canonical_json(record) for record in tracer.records())


__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "events_jsonl",
    "validate_chrome_trace",
]
