"""Serve-mode attribution against the row walk it replaced.

The functions below are the serve-mode walk that ran before membership
became one relation (``RequestAttribution.positions``), kept verbatim as
the reference: ``detect_mode`` and ``_serve_ticks`` (the per-span loop
the tick columns replaced, condensed), ``_analyze_serve``,
``_attribute_request``, ``_split_wait``, ``_account_tenants``,
``_exact_split`` and the serve branch of ``build_critical_path`` (its
graph, fed to the CPM engine of ``critical_path_reference``). It
decided "which ticks did request r share" three ways, one per consumer,
each scanning every tick for every request. Four adaptations:
``_attribute_request`` records each member tick's position instead of
counting it, since ``ticks`` is now the length of ``positions``; a
tick's duration is ``end_ns - start_ns``; the critical path's
membership is the documented rule, a tick that lists ids has exactly
those members, so a fleet request's interval never picks up another
replica's overlapping dispatch; and a dispatch's node is labelled
``"{replica} {phase}"``.

``hypothesis`` properties generate serve traces, from the trace
scenario and by hand, and require the mode, the tick table, the
analysis document, the critical path and every request's positions to
match, byte for byte once canonically encoded. Fleet traces, generated
dispatches and real simulator cells, hold the critical path alone to
the oracle: the row walk never read fleet events.

The three old rules agree wherever a request's intervals are disjoint
and every batch that lists a request lies inside its intervals, which
is every trace a server writes. Two malformed shapes split them, so
the generators do not build them and ``TestWhereTheOldRulesSplit``
pins the one relation's answer instead: a zero-length tick at an
instant where a request both leaves and rejoins (the component walk
counted it once per interval, the other two once), and a batch that
lists a request outside that request's intervals.
"""

from bisect import bisect_left
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import Observer, run_trace_scenario
from repro.obs.analyze import (
    TraceRecords,
    analyze,
    analyze_records,
    build_critical_path,
)
from repro.obs.analyze.attribution import (
    _BATCH_TRACK,
    _MEMBERSHIP_TRACK,
    _UNATTRIBUTED,
    Attribution,
    RequestAttribution,
    _Tick,
    _sorted_tenant,
    _tenant_doc,
)
from repro.obs.analyze.records import to_ns
from repro.obs.analyze.report import AnalysisReport
from repro.obs.analyze.slo import default_slos, evaluate_slos

from critical_path_reference import CriticalPath, critical_path

# ----------------------------------------------------------------------
# the reference: the serve walk, verbatim
# ----------------------------------------------------------------------
def detect_mode(records: TraceRecords) -> str:
    """Which instrumented layer produced this trace."""
    rows = records.spans.rows  # every entry names at least one span
    if any(name.startswith("tick[") for name in rows.name):
        return "continuous"
    if any(name.startswith("dispatch[") for name in rows.name):
        return "cluster"
    batches = ("batch", _BATCH_TRACK) in zip(rows.name, rows.track)
    return "drain" if batches else "continuous"


def _serve_ticks(records: TraceRecords) -> list:
    ticks = []
    for span_id, name, track, start_ns, end_ns, args in records.spans:
        if track != _BATCH_TRACK or not (name.startswith("tick[") or name == "batch"):
            continue
        phase = "batch" if name == "batch" else args.get("phase") or name[5:-1]
        cold_ns = min(max(to_ns(args.get("cold_s", 0.0)), 0), end_ns - start_ns)
        ticks.append(_Tick(
            span_id, start_ns, end_ns, phase, cold_ns,
            round(float(args.get("energy_j", 0.0)) * 1e9), "",
            bool(args.get("boundary", phase != "sparse")),
            tuple(args.get("request_ids", ())),
        ))
    return sorted(ticks, key=lambda t: (t.start_ns, t.span_id))


def _analyze_serve(records: TraceRecords, mode: str) -> Attribution:
    # Serve traces are small: the attribution walks _Tick rows.
    ticks = _serve_ticks(records)
    out = Attribution(mode=mode, horizon_ns=records.horizon_ns())
    for tick in ticks:
        out.ticks.append(*tick)
    out.busy_ns = sum(t.end_ns - t.start_ns for t in ticks)
    out.energy_nj = sum(t.energy_nj for t in ticks)

    # Membership boundaries: instants at which a queued request could
    # have been (re)considered — tick starts flagged as boundaries plus
    # every membership edit instant (joins/evicts happen only there).
    boundaries = {
        t.start_ns for t in ticks if t.phase == "batch" or t.boundary
    }
    lifecycle: dict = {}
    for event in records.events:
        if event.track != _MEMBERSHIP_TRACK:
            continue
        rid = event.args.get("request_id")
        if rid is None:
            continue
        lifecycle.setdefault(int(rid), []).append(event)
        if event.name in ("join", "evict", "expire"):
            boundaries.add(event.ts_ns)
    boundary_list = sorted(boundaries)

    for rid in sorted(lifecycle):
        events = sorted(lifecycle[rid], key=lambda e: (e.ts_ns, e.event_id))
        out.requests.append(
            _attribute_request(rid, events, ticks, boundary_list,
                               out.horizon_ns, mode)
        )

    _account_tenants(out, ticks)
    return out


def _attribute_request(
    rid: int,
    events: list,
    ticks: list,
    boundaries: list,
    horizon_ns: int,
    mode: str,
) -> RequestAttribution:
    request = RequestAttribution(request_id=rid)
    request.positions = []
    submit = next((e for e in events if e.name == "submit"), None)
    if submit is not None:
        request.submit_ns = submit.ts_ns
        request.tenant = str(submit.args.get("tenant", "default"))
        request.priority = int(submit.args.get("priority", 1))
        request.model = str(submit.args.get("model", ""))
        deadline = submit.args.get("deadline_s")
        if deadline is not None:
            request.deadline_ns = to_ns(deadline)
    else:
        request.submit_ns = events[0].ts_ns

    # Walk the lifecycle into alternating wait/active segments.
    open_join: Optional[int] = None
    intervals: list = []
    terminal: Optional[tuple] = None
    for event in events:
        if event.name == "join" and open_join is None:
            intervals.append([event.ts_ns, None, None])
            open_join = event.ts_ns
        elif event.name in ("evict", "complete") and open_join is not None:
            intervals[-1][1] = event.ts_ns
            intervals[-1][2] = event
            open_join = None
            if event.name == "complete":
                terminal = ("served", event.ts_ns)
            elif event.args.get("reason") == "deadline":
                terminal = ("dropped", event.ts_ns)
        elif event.name == "expire":
            terminal = ("expired", event.ts_ns)
    if open_join is not None:
        intervals[-1][1] = horizon_ns
        intervals[-1][2] = None
    if terminal is None:
        last = intervals[-1][1] if intervals else events[-1].ts_ns
        terminal = ("open", max(last, request.submit_ns))
    request.outcome, request.end_ns = terminal
    request.intervals = [(j, l) for j, l, _ in intervals]

    # Drain mode: membership intervals come from the batch span that
    # carried the request (submit events + request_ids span args).
    if mode == "drain" and not request.intervals:
        for tick in ticks:
            if rid in tick.members and tick.start_ns >= request.submit_ns:
                request.intervals = [(tick.start_ns, tick.end_ns)]
                request.outcome = "served"
                request.end_ns = tick.end_ns
                break

    comp = request.components
    cursor = request.submit_ns
    first_wait = True
    for join_ns, leave_ns in request.intervals:
        if join_ns > cursor or first_wait:
            _split_wait(comp, cursor, join_ns, boundaries, first_wait)
            first_wait = False
        covered = 0
        for position, tick in enumerate(ticks):
            if tick.start_ns >= join_ns and tick.end_ns <= leave_ns and (
                not tick.members or rid in tick.members
            ):
                cold = tick.cold_ns
                comp["cold_ns"] += cold
                key = f"{tick.phase}_ns"
                comp[key] = comp.get(key, 0) + tick.end_ns - tick.start_ns - cold
                covered += tick.end_ns - tick.start_ns
                request.positions.append(position)
        comp["other_ns"] += (leave_ns - join_ns) - covered
        cursor = leave_ns
    if request.end_ns > cursor:
        # Tail wait after the last eviction (requeued then expired), or
        # a request that never joined at all.
        _split_wait(comp, cursor, request.end_ns, boundaries, first_wait)
    return request


def _split_wait(
    comp: dict,
    start_ns: int,
    end_ns: int,
    boundaries: list,
    initial: bool,
) -> None:
    """Attribute one waiting segment.

    The initial pre-join wait splits at the first membership boundary
    after submission: before it the request *could not* have joined
    (``join_wait_ns``), after it the scheduler chose not to admit it
    (``queue_wait_ns``). Later gaps are preemption stalls.
    """
    if not initial:
        comp["preempt_ns"] += end_ns - start_ns
        return
    index = bisect_left(boundaries, start_ns)
    boundary = boundaries[index] if index < len(boundaries) else None
    if boundary is None or boundary > end_ns:
        comp["join_wait_ns"] += end_ns - start_ns
    else:
        comp["join_wait_ns"] += boundary - start_ns
        comp["queue_wait_ns"] += end_ns - boundary


def _account_tenants(out: Attribution, ticks: list) -> None:
    """Split every tick's time (and energy) exactly across its members."""
    by_rid = {r.request_id: r for r in out.requests}
    intervals = [
        (j, l, r.request_id)
        for r in out.requests
        for j, l in r.intervals
    ]
    for tick in ticks:
        if tick.members:
            members = sorted(int(m) for m in tick.members)
        else:
            members = sorted(
                rid for j, l, rid in intervals
                if j <= tick.start_ns and tick.end_ns <= l
            )
        cold_phase = [("cold", tick.cold_ns),
                      (tick.phase, tick.end_ns - tick.start_ns - tick.cold_ns)]
        if not members:
            doc = _tenant_doc(out.tenants, _UNATTRIBUTED)
            doc["tick_ns"] += tick.end_ns - tick.start_ns
            doc["energy_nj"] += tick.energy_nj
            for phase, amount in cold_phase:
                if amount:
                    doc["by_phase"][phase] = (
                        doc["by_phase"].get(phase, 0) + amount
                    )
            continue
        shares = dict.fromkeys(members, 0)
        phase_shares = {m: {} for m in members}
        for phase, amount in cold_phase:
            if amount == 0:
                continue
            for member, share in zip(
                members, _exact_split(amount, len(members))
            ):
                shares[member] += share
                phase_shares[member][phase] = (
                    phase_shares[member].get(phase, 0) + share
                )
        energy_shares = dict(
            zip(members, _exact_split(tick.energy_nj, len(members)))
        )
        for member in members:
            request = by_rid.get(member)
            tenant = request.tenant if request is not None else _UNATTRIBUTED
            doc = _tenant_doc(out.tenants, tenant)
            doc["tick_ns"] += shares[member]
            doc["energy_nj"] += energy_shares[member]
            for phase, amount in phase_shares[member].items():
                doc["by_phase"][phase] = (
                    doc["by_phase"].get(phase, 0) + amount
                )
            priority = str(request.priority if request is not None else 1)
            doc["by_priority"][priority] = (
                doc["by_priority"].get(priority, 0) + shares[member]
            )
            model = (request.model if request is not None else "") or "?"
            doc["by_model"][model] = (
                doc["by_model"].get(model, 0) + shares[member]
            )
    for request in out.requests:
        doc = _tenant_doc(out.tenants, request.tenant)
        doc["requests"] += 1
        if request.outcome == "served":
            doc["served"] += 1
    out.tenants = {
        tenant: _sorted_tenant(doc)
        for tenant, doc in sorted(out.tenants.items())
    }


def _exact_split(amount: int, count: int) -> list:
    """Split ``amount`` into ``count`` shares: the floor share, plus one
    for the first ``amount % count`` positions (the lowest ids), so the
    shares always sum to ``amount``."""
    share, remainder = divmod(amount, count)
    return [share + 1] * remainder + [share] * (count - remainder)


def _serve_critical_path(attribution: Attribution) -> CriticalPath:
    """Dependency graph from the attribution's requests and ticks.

    Every mode: each request contributes a *wait* node (submission to
    first join) feeding its first member tick, and every request chains
    its member ticks in time order (covering both same-phase adjacency
    and preemption bridges). Edges that a noisy wall-clock trace would render invalid
    (successor starting before predecessor end) are skipped rather than
    fatal — the analyzer reports on real artifacts, it does not insist
    they be ideal.
    """
    nodes = {}  # key -> (key, start_ns, end_ns, label)
    edges = set()

    def add_node(key: str, start_ns: int, end_ns: int, label: str) -> None:
        if key not in nodes:
            nodes[key] = (key, start_ns, end_ns, label)

    def add_edge(u: str, v: str) -> None:
        if nodes[v][1] >= nodes[u][2]:
            edges.add((u, v))

    member_ticks: dict = {}
    all_ticks = list(attribution.ticks)
    for request in attribution.requests:
        ticks = []
        for tick in all_ticks:
            in_interval = any(
                j <= tick.start_ns and tick.end_ns <= l
                for j, l in request.intervals
            )
            listed = request.request_id in tick.members
            if listed if tick.members else in_interval:
                ticks.append(tick)
        if ticks:
            member_ticks[request.request_id] = sorted(
                ticks, key=lambda t: (t.start_ns, t.span_id)
            )

    for request in attribution.requests:
        chain = member_ticks.get(request.request_id, [])
        if not chain:
            continue
        first_join = (
            request.intervals[0][0] if request.intervals
            else chain[0].start_ns
        )
        wait_key = f"wait:{request.request_id:08d}"
        if first_join > request.submit_ns:
            add_node(wait_key, request.submit_ns, first_join,
                     f"wait r{request.request_id}")
        previous = None
        for tick in chain:
            key = f"tick:{tick.span_id:08d}"
            add_node(key, tick.start_ns, tick.end_ns,
                     f"{tick.replica} {tick.phase}" if tick.replica else tick.phase)
            if previous is None and wait_key in nodes:
                add_edge(wait_key, key)
            elif previous is not None:
                add_edge(previous, key)
            previous = key
    return critical_path(nodes.values(), edges)


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _documents(attribution, path) -> tuple:
    report = AnalysisReport(
        attribution=attribution, path=path,
        slo=evaluate_slos(attribution, default_slos()),
    )
    return (report.to_json(), path.to_dict(),
            [list(map(int, r.positions)) for r in attribution.requests])


def _assert_matches_oracle(records) -> None:
    mode = detect_mode(records)
    assert mode != "cluster"
    report = analyze(records)
    oracle = _analyze_serve(records, mode)
    assert (report.attribution.mode, report.attribution.ticks) == (mode, oracle.ticks)
    assert _documents(report.attribution, report.path) == _documents(
        oracle, _serve_critical_path(oracle)
    )


# ----------------------------------------------------------------------
# generated traces
# ----------------------------------------------------------------------
_TENANTS = st.sampled_from(["alice", "bob", "carol"])


@st.composite
def _scenario_trace(draw) -> TraceRecords:
    observer = Observer()
    run_trace_scenario(
        model=draw(st.sampled_from(["dit", "mld", "stable_diffusion"])),
        continuous=draw(st.booleans()),
        cold_start=draw(st.booleans()),
        requests=draw(st.integers(1, 40)),
        batch_size=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
        iterations=draw(st.integers(2, 12)),
        observer=observer,
    )
    return TraceRecords.from_tracer(observer.tracer)


def _price_args(draw) -> dict:
    return draw(st.fixed_dictionaries({}, optional={
        "cold_s": st.one_of(st.floats(-1e-6, 2e-6), st.just(1.0)),
        "energy_j": st.floats(-1e-6, 1e-3),
    }))


def _submit_args(draw) -> dict:
    args = {"tenant": draw(_TENANTS), "priority": draw(st.integers(0, 3))}
    args.update(draw(st.fixed_dictionaries({}, optional={
        "model": st.sampled_from(["dit", ""]),
        "deadline_s": st.floats(0.0, 1e-5),
    })))
    return args


class _Trace:
    """A hand-built trace: spans and membership events in id order."""

    def __init__(self) -> None:
        self.records = TraceRecords()

    def span(self, name, start_ns, end_ns, args, track=_BATCH_TRACK):
        self.records.spans.append(len(self.records.spans), name, track,
                                  start_ns, end_ns, args)

    def event(self, name, ts_ns, request_id, track=_MEMBERSHIP_TRACK, **args):
        self.records.events.append(
            len(self.records.events), name, track, ts_ns,
            {"request_id": request_id, **args},
        )


@st.composite
def _continuous_records(draw) -> TraceRecords:
    """Ticks with jittered wall-clock edges (gaps between them are
    ``other_ns``), some zero-length, and requests whose lifecycles join,
    leave and rejoin at tick edges or anywhere else. A request's
    membership intervals are disjoint: it rejoins after it leaves. Half
    the traces keep every instant on a 10 ns grid and draw every jitter
    and duration from {0, 10}, so critical-path totals tie."""
    trace = _Trace()
    edges, cursor = [], 0
    grid = draw(st.booleans())
    for _ in range(draw(st.integers(1, 30))):
        if grid:
            start = cursor + draw(st.sampled_from([0, 10]))
            end = start + draw(st.sampled_from([0, 10]))
        else:
            start = cursor + draw(st.integers(0, 40))  # jitter
            end = start + draw(st.one_of(st.just(0), st.integers(1, 1000)))
        phase = draw(st.sampled_from(["dense", "sparse"]))
        args = {"boundary": draw(st.booleans()), **_price_args(draw)}
        if draw(st.booleans()):
            args["phase"] = phase
        trace.span(f"tick[{phase}]", start, end, args)
        edges += [start, end]
        cursor = end
    if draw(st.booleans()):  # a span on another track is not a tick
        trace.span("iteration", 0, cursor, {}, track="hw/timeline")
    anywhere = st.integers(0, cursor + 50)
    instants = st.one_of(st.sampled_from(edges),
                         anywhere.map(lambda t: t // 10 * 10) if grid else anywhere)
    for rid in range(draw(st.integers(0, 8))):
        times = sorted(draw(st.lists(instants, min_size=1, max_size=8,
                                     unique=True)))
        submit = times.pop(0)
        if draw(st.booleans()):
            trace.event("submit", submit, rid, **_submit_args(draw))
        if times and draw(st.booleans()):
            times.insert(0, submit)  # joins the instant it arrives
        for index, ts in enumerate(times):
            if index % 2 == 0:
                trace.event("join", ts, rid, cursor=0)
                continue
            leave = draw(st.sampled_from(
                ["preempt", "preempt", "deadline", "complete"]
            ))
            if leave == "complete":
                trace.event("complete", ts, rid, batch_size=1)
                break
            trace.event("evict", ts, rid, reason=leave)
            if leave == "deadline":
                break
        else:
            if len(times) % 2 == 0 and draw(st.booleans()):
                trace.event("expire", (times or [submit])[-1] + 5, rid,
                            reason="timeout")
    return trace.records


@st.composite
def _drain_records(draw) -> TraceRecords:
    """Drain batches apart in time, some zero-length and some listing
    nobody. A listed request's join and complete events straddle its
    batch by up to a few ns (wall-clock jitter, so ``other_ns`` is not
    0); some listed requests have no join event (the fallback path) and
    some listed ids have no lifecycle events at all."""
    trace = _Trace()
    cursor, rid = 0, 0
    for _ in range(draw(st.integers(1, 12))):
        start = cursor + draw(st.integers(10, 60))
        end = start + draw(st.one_of(st.just(0), st.integers(1, 1000)))
        listed = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["joined", "joined", "no-join",
                                         "no-events"]))
            listed.append(rid + 1000 if kind == "no-events" else rid)
            if kind != "no-events":
                submit = draw(st.integers(0, start))
                trace.event("submit", submit, rid, **_submit_args(draw))
                if kind == "joined":
                    trace.event("join", draw(st.integers(max(submit, start - 4),
                                                         start)), rid)
                    trace.event("complete", end + draw(st.integers(0, 4)), rid)
            rid += 1
        trace.span("batch", start, end, {
            "batch_size": len(listed), "request_ids": listed,
            "tenants": ["alice"] * len(listed), **_price_args(draw),
        })
        cursor = end + 5
    return trace.records


def _tied(lifecycles: list, ticks: list) -> TraceRecords:
    """A hand-built trace from each request's ``(name, ts_ns, args)``
    events and ``(phase, start_ns, end_ns)`` ticks."""
    trace = _Trace()
    for rid, events in enumerate(lifecycles):
        for name, ts_ns, args in events:
            trace.event(name, ts_ns, rid, **args)
    for phase, start, end in ticks:
        trace.span(f"tick[{phase}]", start, end, {})
    return trace.records


#: Traces whose critical path ties between two predecessors that Kahn's
#: pass pops in different rounds, so the smaller key is the wrong pick:
#: a wait of round 1 against a tick of round 2 (tick 1's predecessors),
#: and a tick of round 2 against a later tick of round 1 (tick 2's).
_TIES = (
    _tied([[("submit", 0, {}), ("join", 10, {}), ("complete", 20, {})],
           [("submit", 0, {}), ("join", 4, {}), ("complete", 20, {})]],
          [("dense", 4, 10), ("sparse", 10, 20)]),
    _tied([[("submit", 2, {}), ("join", 4, {}), ("complete", 10, {})],
           [("submit", 0, {}), ("join", 2, {}),
            ("evict", 4, {"reason": "preempt"}), ("join", 6, {}),
            ("complete", 10, {})]],
          [("dense", 2, 4), ("sparse", 4, 6), ("dense", 6, 10)]),
)


_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestOneRelationMatchesRowWalk:
    @_SETTINGS
    @given(_scenario_trace())
    def test_scenario_traces(self, records):
        _assert_matches_oracle(records)

    @_SETTINGS
    @given(_continuous_records())
    @example(records=_TIES[0])
    @example(records=_TIES[1])
    def test_hand_built_continuous(self, records):
        _assert_matches_oracle(records)

    @_SETTINGS
    @given(_drain_records())
    def test_hand_built_drain(self, records):
        _assert_matches_oracle(records)

    def test_each_case_by_hand(self):
        """One drain trace holding each case the drain generator covers,
        checked against hand-computed values as well as the oracle."""
        trace = _Trace()
        trace.event("submit", 0, 0, tenant="alice", priority=2)
        trace.event("join", 8, 0)
        trace.event("complete", 21, 0)
        trace.event("submit", 5, 1, tenant="bob")  # never joins
        trace.span("batch", 10, 20, {"request_ids": [0, 1, 7],
                                     "energy_j": 1e-9 * 5})
        trace.span("batch", 30, 30, {"request_ids": []})
        trace.span("batch", 40, 47, {})
        records = trace.records
        _assert_matches_oracle(records)
        attribution = analyze(records).attribution
        first, second = attribution.requests
        assert (first.positions.tolist(), first.intervals) == ([0], [(8, 21)])
        assert first.components["other_ns"] == 3  # 13 ns joined, 10 ticked
        assert (second.positions.tolist(), second.intervals) == ([0], [(10, 20)])
        assert second.outcome == "served"
        # 10 ns over ids 0, 1 and 7 (no events): shares 4, 3, 3.
        assert attribution.tenants["alice"]["by_priority"] == {"2": 4}
        assert attribution.tenants["bob"]["tick_ns"] == 3
        assert attribution.tenants[_UNATTRIBUTED]["tick_ns"] == 3 + 7
        assert attribution.tenants[_UNATTRIBUTED]["by_model"] == {"?": 3}
        assert attribution.tenant_residual_ns() == 0


class TestWhereTheOldRulesSplit:
    def test_touching_intervals_count_a_zero_length_tick_once(self):
        trace = _Trace()
        trace.event("submit", 0, 0)
        trace.event("join", 0, 0)
        trace.event("evict", 10, 0, reason="preempt")
        trace.event("join", 10, 0)
        trace.event("complete", 20, 0)
        for start, end in ((0, 10), (10, 10), (10, 20)):
            trace.span("tick[dense]", start, end, {})
        report = analyze(trace.records)
        (request,) = report.attribution.requests
        assert request.positions.tolist() == [0, 1, 2]
        assert request.to_dict()["ticks"] == 3
        assert request.residual_ns == 0
        assert len(report.path.to_dict()["nodes"]) == 3

    def test_a_listed_batch_is_a_member_wherever_it_lies(self):
        trace = _Trace()
        trace.event("submit", 0, 0, tenant="alice")
        trace.event("join", 0, 0)
        trace.event("complete", 5, 0)
        trace.span("batch", 10, 20, {"request_ids": [0]})
        attribution = analyze(trace.records).attribution
        (request,) = attribution.requests
        assert request.positions.tolist() == [0]
        assert attribution.tenants["alice"]["tick_ns"] == 10
        assert request.residual_ns == 0


class TestCriticalPathTies:
    def test_a_wait_of_an_earlier_round_beats_a_smaller_tick_key(self):
        """Tick 1 ties between wait 0 (round 1) and tick 0 (round 2,
        after wait 1): Kahn's pass pops wait 0 first, though ``tick:``
        keys sort before ``wait:`` keys."""
        trace = _Trace()
        for rid, join in ((0, 10), (1, 4)):
            trace.event("submit", 0, rid)
            trace.event("join", join, rid)
            trace.event("complete", 20, rid)
        trace.span("tick[dense]", 4, 10, {})
        trace.span("tick[sparse]", 10, 20, {})
        _assert_matches_oracle(trace.records)
        path = analyze(trace.records).path.to_dict()
        assert [node["key"] for node in path["nodes"]] == [
            "wait:00000000", "tick:00000001",
        ]
        assert path["total_ns"] == 20

    def test_two_ticks_with_one_span_id_raise(self):
        trace = _Trace()
        trace.event("submit", 0, 0)
        trace.event("join", 0, 0)
        trace.event("complete", 20, 0)
        for start in (0, 10):
            trace.records.spans.append(5, "tick[dense]", _BATCH_TRACK,
                                       start, start + 10, {})
        with pytest.raises(ValueError, match="duplicate node key 'tick:00000005'"):
            analyze(trace.records)


# ----------------------------------------------------------------------
# fleet traces: the critical path alone
# ----------------------------------------------------------------------
def _fleet(dispatches, submits=()) -> TraceRecords:
    """A fleet trace of ``dispatches``, each ``(span_id, start_ns, end_ns,
    replica, request_ids)``: a ``queued`` event per listed request, at its
    ``submits`` entry (request id -> instant) or its first dispatch's
    start, and a ``dispatch[dit]`` span on the replica's track."""
    trace = _Trace()
    first = {}
    for span_id, start, end, replica, members in dispatches:
        trace.records.spans.append(span_id, "dispatch[dit]", f"replica/{replica}",
                                   start, end, {"phase": "dense",
                                                "request_ids": members})
        for rid in members:
            first[rid] = min(first.get(rid, start), start)
    for rid, submit in sorted({**first, **dict(submits)}.items()):
        trace.event("queued", submit, rid, track="cluster/requests")
    return trace.records


def _path_outcome(build, attribution) -> tuple:
    try:
        return "path", build(attribution).to_dict()
    except ValueError as exc:
        return "error", str(exc)


def _fleet_path(records) -> tuple:
    """The engine's critical path of a fleet trace, or its error, after
    requiring the oracle's to be the same."""
    attribution = analyze_records(records)
    got = _path_outcome(build_critical_path, attribution)
    assert got == _path_outcome(_serve_critical_path, attribution)
    return got


_SPAN_IDS = st.one_of(
    st.integers(0, 40),
    # across 10**8, where key order stops being numeric order
    st.integers(10**8 - 3, 10**8 + 3),
    st.integers(10**9, 10**9 + 2),
)


@st.composite
def _fleet_records(draw, reversed_ok: bool) -> TraceRecords:
    """Dispatches on up to three replicas with small starts and lengths
    (overlaps, gaps, back-to-back, ties), each listing one to three of
    up to six requests queued at or before their first dispatch. Span
    ids and trace order have no link to start order."""
    requests = draw(st.integers(1, 6))
    dispatches = []
    for span_id in draw(st.lists(_SPAN_IDS, max_size=14, unique=True)):
        start = draw(st.integers(0, 60))
        dispatches.append((
            span_id, start,
            start + draw(st.integers(-3 if reversed_ok else 0, 12)),
            draw(st.sampled_from(["r0", "r1", "r2"])),
            draw(st.lists(st.integers(0, requests - 1), min_size=1,
                          max_size=3, unique=True)),
        ))
    starts = {}
    for _, start, _, _, members in dispatches:
        for rid in members:
            starts[rid] = min(starts.get(rid, start), start)
    return _fleet(dispatches, {rid: draw(st.integers(0, start))
                               for rid, start in starts.items()})


class TestFleetCriticalPath:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fleet_records(reversed_ok=False))
    def test_generated_dispatches(self, records):
        _fleet_path(records)

    @_SETTINGS
    @given(_fleet_records(reversed_ok=True))
    def test_generated_dispatches_with_reversed_ones(self, records):
        _fleet_path(records)

    def test_one_dispatch_is_its_own_path(self):
        _, path = _fleet_path(_fleet([(7, 3, 10, "r0", [0])]))
        assert [node["key"] for node in path["nodes"]] == ["tick:00000007"]
        assert (path["total_ns"], path["span_ns"], path["edges"]) == (7, 7, [])
        assert path["nodes"][0]["label"] == "r0 dense"

    def test_another_replicas_overlapping_dispatch_is_no_member(self):
        _, path = _fleet_path(_fleet([
            (0, 0, 10, "r0", [0]),
            (1, 5, 8, "r1", [1]),  # inside request 0's interval
            (2, 10, 20, "r0", [0]),
        ]))
        assert [node["key"] for node in path["nodes"]] == [
            "tick:00000000", "tick:00000002",
        ]
        assert path["total_ns"] == 20

    def test_zero_length_dispatches_chain(self):
        _, path = _fleet_path(_fleet([
            (0, 0, 0, "r0", [0]),
            (1, 0, 4, "r0", [0]),
            (2, 4, 4, "r0", [0]),
            (3, 6, 6, "r1", [1]),
        ]))
        # the zero-length tail ties its chain's total: the first key wins
        assert [node["key"] for node in path["nodes"]] == [
            "tick:00000000", "tick:00000001",
        ]

    @pytest.mark.parametrize("ids, winner", [
        ((5, 3), "tick:00000003"),
        ((99999999, 100000000), "tick:100000000"),  # string order
    ])
    def test_equal_chains_tie_to_the_smallest_key(self, ids, winner):
        first, second = ids
        _, path = _fleet_path(_fleet([
            (first, 0, 10, "r0", [0]),
            (second, 2, 12, "r1", [1]),
        ]))
        assert [node["key"] for node in path["nodes"]] == [winner]

    def test_a_predecessor_tie_goes_to_the_one_popped_first(self):
        # "tick:100000000" sorts before "tick:99999999", so Kahn's pass
        # pops it first, though its span id is the larger
        _, path = _fleet_path(_fleet([
            (99999999, 0, 5, "r0", [0]),
            (100000000, 0, 5, "r1", [1]),
            (100000001, 5, 10, "r0", [0, 1]),
        ]))
        assert [node["key"] for node in path["nodes"]] == [
            "tick:100000000", "tick:100000001",
        ]

    def test_a_chain_follows_start_order_not_trace_order(self):
        # the later dispatch comes first in the trace, with the smaller id
        _, path = _fleet_path(_fleet([
            (0, 10, 20, "r0", [0]),
            (1, 0, 10, "r0", [0]),
        ]))
        assert [node["key"] for node in path["nodes"]] == [
            "tick:00000001", "tick:00000000",
        ]
        assert path["total_ns"] == 20

    def test_a_reversed_dispatch_raises(self):
        outcome = _fleet_path(_fleet([
            (0, 0, 10, "r0", [0]),
            (1, 20, 15, "r1", [1]),
        ]))
        assert outcome == (
            "error", "node 'tick:00000001' ends at 15 before start 20")

    def test_a_duplicate_span_id_raises(self):
        # The oracle merges one key's nodes, so the engine alone is asked.
        records = _fleet([(4, 0, 10, "r0", [0]), (4, 10, 15, "r1", [1])])
        with pytest.raises(ValueError, match="duplicate node key 'tick:00000004'"):
            build_critical_path(analyze_records(records))

    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("seed", [11, 47])
    def test_fleet_traces(self, seed, continuous):
        trace = synthesize_trace(
            MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 100,
            WorkloadMix(("dit", "mld", "stable_diffusion")), rng=seed,
            deadline_s=3.0,
        )
        observer = Observer()
        simulate_cluster(
            trace, build_replicas(4, accelerator="exion24",
                                  continuous=continuous),
            make_router("jsq"), slo=SLOPolicy(latency_target_s=3.0),
            observer=observer,
        )
        _, path = _fleet_path(TraceRecords.from_tracer(observer.tracer))
        assert len(path["nodes"]) > 1
