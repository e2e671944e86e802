"""Shared dispatch rows: one row entry per distinct dispatch of a live batch.

``Observer.on_dispatch`` builds a dispatch span's name, track and args
entry once per ``(phase, cold_s, energy_j, model, ablation)`` while a
replica's members (the fleet ordinals it lists as ``request_ids``) stay
the same, and records later equal dispatches with the same entry index;
a change of members drops the replica's entries.
These tests pin the sharing on a fleet cell and by hand, the entries a
drain cell leaves behind, the read-only contract every trace reader
keeps, and the retained bytes per span of the trace and of its analysis.
"""

import copy
import gc
import tracemalloc

import pytest

from repro.cluster import (
    Dispatch,
    MMPPProcess,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import (
    Observer,
    TraceRecords,
    analyze_tracer,
    chrome_trace,
    events_jsonl,
    render_html,
)
from repro.obs.metrics import metrics_from_trace


class _Recording(Observer):
    """An observer that also keeps every dispatch it was handed."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatches = []

    def on_dispatch(self, dispatch, request_ids) -> None:
        self.dispatches.append((dispatch, request_ids))
        super().on_dispatch(dispatch, request_ids)


def _fleet_cell(
    observer, seed: int = 11, requests: int = 100, continuous: bool = True
) -> None:
    """One dry-run MMPP cell on four replicas, observed."""
    trace = synthesize_trace(
        MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), requests,
        WorkloadMix(("dit", "mld", "stable_diffusion")), rng=seed,
        deadline_s=3.0,
    )
    simulate_cluster(
        trace, build_replicas(4, accelerator="exion24", continuous=continuous),
        make_router("jsq"), slo=SLOPolicy(latency_target_s=3.0),
        observer=observer,
    )


def _key(dispatch, request_ids) -> tuple:
    return (tuple(request_ids), dispatch.phase, dispatch.cold_s,
            dispatch.energy_j, dispatch.model, dispatch.ablation,
            dispatch.replica)


@pytest.fixture(scope="module")
def cell():
    observer = _Recording()
    _fleet_cell(observer)
    return observer


def _dispatch(**changes) -> Dispatch:
    fields = dict(
        replica="r0", model="dit", ablation="all", served=[],
        started_s=1.0, service_s=0.5, phase="sparse", cold_s=0.0,
        members=(0, 1), energy_j=2.0,
    )
    fields.update(changes)
    return Dispatch(**fields)


class TestSharedRows:
    def test_equal_dispatches_of_a_live_batch_share_one_row(self, cell):
        spans = cell.tracer.spans
        assert len(spans) == len(cell.dispatches)
        live = {}  # replica -> (members, {key: row}) while its members stay
        owner = {}  # id(args) -> the one dispatch key it records
        for (dispatch, ids), row in zip(cell.dispatches, spans.columns.row):
            if live.get(dispatch.replica, (None,))[0] != ids:
                live[dispatch.replica] = ids, {}
            key = _key(dispatch, ids)
            assert row == live[dispatch.replica][1].setdefault(key, row)
            args = spans.rows.args[row]
            assert owner.setdefault(id(args), key) == key
            assert args["request_ids"] == ids
            assert len(ids) == len(dispatch.members) == args["batch_size"]

    def test_distinct_rows_are_a_tenth_of_the_spans(self, cell):
        spans = cell.tracer.spans
        assert len(spans) > 1000
        assert len({id(args) for args in spans.rows.args}) <= len(spans) / 10

    def test_the_row_is_the_dispatch(self):
        observer = Observer()
        observer.on_dispatch(_dispatch(cold_s=0.25), [7, 9])
        span = observer.tracer.spans[0]
        assert (span.name, span.track, span.start_s, span.end_s) == (
            "dispatch[dit]", "replica/r0", 1.0, 1.5,
        )
        assert span.args == {
            "batch_size": 2, "model": "dit", "ablation": "all",
            "phase": "sparse", "cold_s": 0.25, "energy_j": 2.0,
            "request_ids": [7, 9],
        }

    @pytest.mark.parametrize("change", [
        {"request_ids": [7]},
        {"request_ids": [7, 8]},
        {"phase": "dense"},
        {"cold_s": 0.5},
        {"energy_j": 3.0},
        {"model": "mld"},
        {"ablation": "ep"},
        {"replica": "r1"},
        {"cold_s": -0.0},
        {"energy_j": -0.0},
    ])
    def test_a_changed_key_starts_a_new_row(self, change):
        observer = Observer()
        observer.on_dispatch(_dispatch(energy_j=0.0), [7, 9])
        observer.on_dispatch(_dispatch(energy_j=0.0, started_s=2.0), [7, 9])
        ids = change.pop("request_ids", [7, 9])
        observer.on_dispatch(_dispatch(**{"energy_j": 0.0, **change}), ids)
        first, again, changed = observer.tracer.spans.columns.row
        assert again == first
        assert changed != first

    def test_a_refused_dispatch_records_nothing(self):
        observer = Observer()
        with pytest.raises(ValueError, match="ends at"):
            observer.on_dispatch(_dispatch(service_s=-1.0), [7, 9])
        assert len(observer.tracer.spans) == 0
        observer.on_dispatch(_dispatch(), [7, 9])
        assert observer.tracer.spans[0].end_s == 1.5


    def test_a_change_of_members_drops_the_rows(self):
        observer = Observer()
        for ids in ([7], [7, 9], [7]):
            observer.on_dispatch(_dispatch(members=tuple(ids)), ids)
        first, _, again = observer.tracer.spans.columns.row
        args = observer.tracer.spans.rows.args
        assert args[again] == args[first]
        assert args[again] is not args[first]

    def test_a_drain_cell_keeps_only_each_replicas_last_batch(self):
        observer = _Recording()
        _fleet_cell(observer, continuous=False)
        spans = observer.tracer.spans
        args = [spans.rows.args[row] for row in spans.columns.row]
        assert len({id(a) for a in args}) == len(args) > 10
        last = {d.replica: ids for d, ids in observer.dispatches}
        assert {replica: ids for replica, (ids, _)
                in observer._live_rows.items()} == last
        assert all(len(rows) == 1 for _, rows in observer._live_rows.values())

class TestReadOnlyArgs:
    def test_every_reader_leaves_args_unchanged(self, cell):
        tracer = cell.tracer
        recorded = [*tracer.spans.rows.args, *tracer.events.rows.args]
        snapshot = copy.deepcopy(recorded)
        tracer.records()
        TraceRecords.from_chrome_trace(chrome_trace(tracer))
        TraceRecords.from_jsonl(events_jsonl(tracer))
        TraceRecords.from_tracer(tracer)
        metrics_from_trace(tracer).snapshot()
        render_html(analyze_tracer(tracer))
        assert recorded == snapshot


def _retained_bytes(build) -> int:
    """Bytes allocated for what ``build()`` returns: traced memory while
    it is held, less that after it is dropped (caches it warmed stay)."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del kept
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestRetainedBytes:
    """Bytes per span on a 100-request continuous cell (5,504 spans).

    A span's columns are three 8-byte array slots; its share of the row
    entries and event dicts makes up the rest. Measured on CPython
    3.11.7: the trace 60.5 B per span (64.8 while dispatches listed
    tenants and priorities, not request ids), its analysis 111.6 B per
    span (each request keeps its member ticks, and the critical path its
    chain, as int64 positions into the tick table; Python lists of ints
    took 146.6). CPython 3.10 dicts are larger (24-byte entries, 3.11
    and 3.12 use 16 for str keys): rebuilding the cell's 529 args dicts
    took 38 KB more on 3.10.13 than on 3.11.7 (3.12.1: 2 KB less), an
    estimated 7 B per span on the trace; the trace bound leaves ~12 %
    over that estimate. The analysis keeps a few dicts and one array per
    request and tenant, none per span, so its bound of 150 leaves 34 %.
    """

    def test_a_fleet_cell_keeps_at_most_76_bytes_per_span(self):
        _fleet_cell(Observer(), seed=1)  # warm the pricing caches
        spans = []

        def build():
            observer = Observer()
            _fleet_cell(observer, seed=1)
            spans.append(len(observer.tracer.spans))
            return observer

        retained = _retained_bytes(build)
        assert spans[0] > 1000
        assert retained / spans[0] <= 76

    def test_its_analysis_keeps_at_most_150_bytes_per_span(self):
        observer = Observer()
        _fleet_cell(observer, seed=1)
        analyze_tracer(observer.tracer)  # warm
        retained = _retained_bytes(lambda: analyze_tracer(observer.tracer))
        assert retained / len(observer.tracer.spans) <= 150
