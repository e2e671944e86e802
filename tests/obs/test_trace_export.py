"""Tracer semantics and the Chrome trace-event / JSONL exporters."""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    chrome_trace_json,
    events_jsonl,
    validate_chrome_trace,
)


def small_trace() -> Tracer:
    tracer = Tracer()
    parent = tracer.span("tick[dense]", "serve/batch", 0.0, 1.0, batch=2)
    tracer.span("tick[sparse]", "serve/batch", 1.0, 1.5, parent=parent)
    tracer.event("join", "serve/membership", 0.0, request_id=0)
    tracer.event("evict", "serve/membership", 1.0, span=parent, reason="x")
    tracer.begin_span("pending", "cluster/requests", 0.5)  # stays open
    return tracer


class TestTracer:
    def test_ids_are_emission_order(self):
        tracer = small_trace()
        assert [s.span_id for s in tracer.spans] == [0, 1, 2]
        assert [e.event_id for e in tracer.events] == [0, 1]
        assert tracer.spans[1].parent_id == 0
        assert tracer.events[1].span_id == 0

    def test_end_span_errors(self):
        tracer = Tracer()
        span = tracer.begin_span("s", "t", 1.0)
        with pytest.raises(ValueError):
            tracer.end_span(span, 0.5)  # ends before start
        tracer.end_span(span, 2.0)
        with pytest.raises(ValueError):
            tracer.end_span(span, 3.0)  # double end
        assert span.duration_s == 1.0

    def test_tracks_and_records_sorted(self):
        tracer = small_trace()
        assert tracer.tracks() == [
            "cluster/requests", "serve/batch", "serve/membership",
        ]
        records = tracer.records()
        times = [r["start_s"] if r["type"] == "span" else r["ts_s"]
                 for r in records]
        assert times == sorted(times)
        # Coincident timestamps: spans order before events.
        at_zero = [
            r["type"] for r, t in zip(records, times) if t == 0.0
        ]
        assert at_zero == ["span", "event"]

    def test_open_spans(self):
        tracer = small_trace()
        open_spans = [s.name for s in tracer.spans if s.end_s is None]
        assert open_spans == ["pending"]


class TestChromeExport:
    def test_document_shape(self):
        doc = chrome_trace(small_trace())
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        # process_name + one thread_name per track, tids ranked by name.
        assert meta[0]["name"] == "process_name"
        threads = {e["args"]["name"]: e["tid"] for e in meta[1:]}
        assert threads == {
            "cluster/requests": 1, "serve/batch": 2, "serve/membership": 3,
        }

    def test_span_and_event_mapping(self):
        doc = chrome_trace(small_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "tick[dense]", "tick[sparse]",
        }
        dense = next(e for e in complete if e["name"] == "tick[dense]")
        assert dense["ts"] == 0.0 and dense["dur"] == 1e6  # microseconds
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"join", "evict"}
        assert all(e["s"] == "t" for e in instants)
        open_async = [e for e in doc["traceEvents"] if e["ph"] == "b"]
        assert [e["name"] for e in open_async] == ["pending"]
        assert "id" in open_async[0]

    def test_json_is_canonical_and_deterministic(self):
        j1 = chrome_trace_json(small_trace())
        j2 = chrome_trace_json(small_trace())
        assert j1 == j2
        doc = json.loads(j1)
        assert json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n" == j1

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        good = chrome_trace(small_trace())
        bad = dict(good)
        bad["traceEvents"] = good["traceEvents"] + [
            {"ph": "Q", "name": "x", "pid": 1, "tid": 1, "ts": 0.0}
        ]
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


class TestJsonl:
    def test_one_canonical_record_per_line(self):
        tracer = small_trace()
        text = events_jsonl(tracer)
        lines = text.splitlines()
        assert len(lines) == len(tracer.records())
        parsed = [json.loads(line) for line in lines]
        assert [json.dumps(p, sort_keys=True, separators=(",", ":"))
                for p in parsed] == lines
        assert {p["type"] for p in parsed} == {"span", "event"}
