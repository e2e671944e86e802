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
    tracer.span("tick[dense]", "serve/batch", 0.0, 1.0, batch=2)
    tracer.span("tick[sparse]", "serve/batch", 1.0, 1.5)
    tracer.event("join", "serve/membership", 0.0, request_id=0)
    tracer.event("evict", "serve/membership", 1.0, reason="x")
    tracer.span("pending", "cluster/requests", 0.5, 0.5)
    return tracer


class TestTracer:
    def test_ids_are_emission_order(self):
        tracer = small_trace()
        assert [s.span_id for s in tracer.spans] == [0, 1, 2]
        assert [e.event_id for e in tracer.events] == [0, 1]

    def test_span_ending_before_start_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="before start"):
            tracer.span("s", "t", 1.0, 0.5)
        assert len(tracer) == 0  # nothing recorded
        span = tracer.spans[tracer.span("s", "t", 1.0, 2.0)]
        assert (span.start_s, span.end_s) == (1.0, 2.0)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"),
                                     float("-inf")))
    @pytest.mark.parametrize("record", ("span start", "span end", "event"))
    def test_non_finite_stamps_are_refused_by_name(self, record, bad):
        tracer = Tracer()
        with pytest.raises(ValueError, match="'x' on 't': non-finite"):
            if record == "span start":
                tracer.span("x", "t", bad, 1.0)
            elif record == "span end":
                tracer.span("x", "t", 0.0, bad)
            else:
                tracer.event("x", "t", bad)
        assert len(tracer) == 0  # nothing recorded
        json.dumps(tracer.records(), allow_nan=False)

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

    def test_rows_are_views_of_the_columns(self):
        tracer = small_trace()
        assert len(tracer.spans) == 3 and len(tracer.events) == 2
        assert tracer.spans[-1] == tracer.spans[2] == list(tracer.spans)[2]
        assert [span.name for span in tracer.spans] == [
            "tick[dense]", "tick[sparse]", "pending",
        ]
        # Args are stored as passed; only serialized forms sort them.
        tracer.span("x", "t", 2.0, 3.0, zeta=1, alpha=2)
        assert list(tracer.spans[-1].args) == ["zeta", "alpha"]
        assert list(tracer.records()[-1]["args"]) == ["alpha", "zeta"]
        with pytest.raises(IndexError):
            tracer.events[2]


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
            "tick[dense]", "tick[sparse]", "pending",
        }
        dense = next(e for e in complete if e["name"] == "tick[dense]")
        assert dense["ts"] == 0.0 and dense["dur"] == 1e6  # microseconds
        sparse = next(e for e in complete if e["name"] == "tick[sparse]")
        assert sparse["args"] == {"span_id": 1}
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"join", "evict"}
        assert all(e["s"] == "t" for e in instants)
        evict = next(e for e in instants if e["name"] == "evict")
        assert evict["args"] == {"reason": "x"}

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

    def test_flat_rows_keep_both_link_keys_as_null(self):
        # The event-log schema keeps both link keys: "parent_id" on
        # every span and "span_id" on every event, both null.
        parsed = [json.loads(line)
                  for line in events_jsonl(small_trace()).splitlines()]
        spans = [p for p in parsed if p["type"] == "span"]
        events = [p for p in parsed if p["type"] == "event"]
        assert [p["parent_id"] for p in spans] == [None] * 3
        assert [p["span_id"] for p in events] == [None] * 2
        assert sorted(p["span_id"] for p in spans) == [0, 1, 2]
