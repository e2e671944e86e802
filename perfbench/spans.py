"""In-memory wall-clock spans recorded at the driver boundary.

The benchmark wraps every call it makes into a ``repro`` layer in
``recorder.span(name, layer)``. Spans stay in memory until the run ends
and are then written in Chrome trace-event form. With tracing off the
workloads get :data:`OFF`, whose ``span`` hands back one shared no-op
context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class _Off:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False

    def span(self, name, layer, op=None):
        return self


OFF = _Off()


class Recorder:
    """Spans as ``[name, layer, start_s, end_s, parent_index, op_id]`` rows."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, layer: str, op=None):
        parent = self._open[-1] if self._open else -1
        if op is None and parent >= 0:
            op = self.spans[parent][5]
        index = len(self.spans)
        row = [name, layer, time.perf_counter(), 0.0, parent, op]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield index
        finally:
            row[3] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict:
        """Self time per layer: a span's duration minus what its direct
        children cover (children never overlap: the driver is one thread)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        out: dict = {}
        for span, child_s in zip(self.spans, covered):
            out[span[1]] = out.get(span[1], 0.0) + (span[3] - span[2]) - child_s
        return out

    def chrome_trace(self, process_name: str) -> dict:
        """Chrome trace-event document (complete ``X`` events, µs)."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": process_name}}]
        for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name, "cat": layer,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path, process_name: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(process_name)))
