"""Wait/service attribution and per-tenant cost accounting.

Decomposes every request's end-to-end simulated latency into named
components, **exactly**: all arithmetic is integer nanoseconds over
shared breakpoints (submit/join/evict/complete instants and tick span
edges), so the components of request *r* telescope to
``end_ns - submit_ns`` bit-for-bit — there is no float summation to
drift. The component vocabulary:

- ``queue_wait_ns`` — admission/fairness wait: from the first membership
  boundary after submission until the request actually joined;
- ``join_wait_ns`` — structural wait for a dense-phase boundary (a
  request cannot join mid-phase, however empty the batch);
- ``preempt_ns`` — stalls between a preemption eviction and the next
  rejoin (or terminal expiry of a preempted request);
- ``dense_ns`` / ``sparse_ns`` — tick time spent while a member of the
  live batch, by phase color;
- ``cold_ns`` — cold-start surcharge portions of member ticks;
- ``batch_ns`` — drain-mode micro-batch service (whole generations,
  not phase-split);
- ``other_ns`` — any residual active time not covered by tick spans
  (structurally zero for simulated runs; absorbs wall-clock noise so
  the sum identity holds unconditionally).

One path serves one server or many. Every step span — a serve tick, a
drain batch, a fleet dispatch — is read through one column extraction
into :attr:`Attribution.ticks`, which also decides the mode. A fleet
request's ``queued``, ``served``, ``rejected`` and ``slo:*`` events are
its submission, completion, rejection and expiry; having no ``join``
events, it takes its membership intervals from the dispatches listing it.

Cost accounting answers a different question — where did the *device's*
time go, not each requester's — so there each tick's duration is split
among its members by integer division (remainder to the lowest request
ids), making per-tenant tick-nanosecond totals sum exactly to fleet
busy time. Energy rides along in integer nanojoules when tick spans
carry an ``energy_j`` price.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.cluster.slo import nearest_rank
from repro.obs.analyze.records import NS_PER_S, TraceRecords, to_ns
from repro.obs.trace import Table, empty_columns, int64, int64_column

#: Component keys, in reporting order.
COMPONENTS = (
    "queue_wait_ns",
    "join_wait_ns",
    "preempt_ns",
    "dense_ns",
    "sparse_ns",
    "cold_ns",
    "batch_ns",
    "other_ns",
)

_MEMBERSHIP_TRACK = "serve/membership"
_BATCH_TRACK = "serve/batch"
_UNATTRIBUTED = "(unattributed)"
#: No positions (read-only, so every empty default can share it).
_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False


class _Tick(NamedTuple):
    """One priced interval of shared device time (a row of
    :attr:`Attribution.ticks`)."""

    span_id: int
    start_ns: int
    end_ns: int
    phase: str  # "dense" | "sparse" | "batch"
    cold_ns: int
    energy_nj: int
    replica: str  # cluster dispatches only
    #: span started at a membership boundary (its ``boundary`` arg, else
    #: unless it is sparse)
    boundary: bool
    #: request ids the span lists (drain batches, fleet dispatches);
    #: other ticks recover their members from membership intervals.
    members: tuple


def _ticks(*columns) -> Table:
    """A tick table of ``columns``, or an empty one."""
    return Table(_Tick, _Tick(*columns or empty_columns("qqq-qq---")))


@dataclass
class RequestAttribution:
    """One request's exact latency decomposition."""

    request_id: int
    tenant: str = "default"
    priority: int = 1
    model: str = ""
    replica: str = ""  # a fleet request's; with the model, its server
    outcome: str = "open"  # served | dropped | expired | rejected | open
    submit_ns: int = 0
    end_ns: int = 0
    deadline_ns: Optional[int] = None
    components: dict = field(
        default_factory=lambda: dict.fromkeys(COMPONENTS, 0)
    )
    intervals: list = field(default_factory=list)  # (join_ns, leave_ns)
    #: ascending int64 positions of its member ticks in
    #: :attr:`Attribution.ticks`
    positions: np.ndarray = field(default_factory=lambda: _NONE)

    @property
    def ticks(self) -> int:
        return len(self.positions)

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.submit_ns

    @property
    def residual_ns(self) -> int:
        """Components-vs-latency mismatch; 0 by construction."""
        return self.latency_ns - sum(self.components.values())

    @property
    def deadline_met(self) -> Optional[bool]:
        if self.deadline_ns is None:
            return None
        return self.outcome == "served" and self.end_ns <= self.deadline_ns

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "model": self.model,
            "outcome": self.outcome,
            "submit_ns": self.submit_ns,
            "end_ns": self.end_ns,
            "latency_ns": self.latency_ns,
            "deadline_ns": self.deadline_ns,
            "deadline_met": self.deadline_met,
            "components": dict(self.components),
            "residual_ns": self.residual_ns,
            "ticks": self.ticks,
        }


@dataclass
class Attribution:
    """Per-request decompositions plus fleet and tenant rollups."""

    mode: str = "continuous"  # continuous | drain | cluster
    requests: list = field(default_factory=list)  # RequestAttribution
    busy_ns: int = 0
    energy_nj: int = 0
    horizon_ns: int = 0
    tenants: dict = field(default_factory=dict)
    replicas: dict = field(default_factory=dict)
    #: _Tick rows by column (analysis internal; integers in
    #: ``array('q')``), in ``(start_ns, span_id)`` order
    ticks: Table = field(default_factory=_ticks)

    # ------------------------------------------------------------------
    def fleet_components(self) -> dict:
        totals = dict.fromkeys(COMPONENTS, 0)
        for request in self.requests:
            for key, value in request.components.items():
                totals[key] += value
        return totals

    def outcomes(self) -> dict:
        counts: dict = {}
        for request in self.requests:
            counts[request.outcome] = counts.get(request.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def latency_summary(self) -> dict:
        served = sorted(
            r.latency_ns for r in self.requests if r.outcome == "served"
        )
        if not served:
            return {"count": 0, "p50_ns": 0, "p95_ns": 0, "p99_ns": 0,
                    "mean_ns": 0, "max_ns": 0}
        return {
            "count": len(served),
            "p50_ns": nearest_rank(served, 50),
            "p95_ns": nearest_rank(served, 95),
            "p99_ns": nearest_rank(served, 99),
            # Integer mean (floor) keeps the report integral and exact.
            "mean_ns": sum(served) // len(served),
            "max_ns": served[-1],
        }

    def tenant_residual_ns(self) -> int:
        """Fleet busy time minus all tenant tick shares; 0 by construction."""
        return self.busy_ns - sum(
            doc["tick_ns"] for doc in self.tenants.values()
        )

    def max_request_residual_ns(self) -> int:
        return max(
            (abs(r.residual_ns) for r in self.requests), default=0
        )


# ----------------------------------------------------------------------
# trace -> attribution
# ----------------------------------------------------------------------
def analyze_records(records: TraceRecords) -> Attribution:
    """Build the full attribution for one run's trace records."""
    mode, ticks, entry, args, phase, replica, server = _steps(records)
    out = Attribution(mode=mode, horizon_ns=records.horizon_ns(), ticks=ticks)
    columns = ticks.columns
    start, end, cold, energy = map(int64, (
        columns.start_ns, columns.end_ns, columns.cold_ns, columns.energy_nj
    ))
    out.busy_ns = int((end - start).sum())
    out.energy_nj = int(energy.sum())
    replica_names, codes = replica  # a serve tick names no replica
    busy, dispatches, cold_ns = (
        _sum_by(codes, values, len(replica_names)).tolist()
        for values in (end - start, np.ones_like(codes), cold)
    )
    out.replicas = {
        name: {"busy_ns": busy[i], "dispatches": dispatches[i], "cold_ns": cold_ns[i]}
        for i, name in sorted(enumerate(replica_names), key=lambda p: p[1]) if name
    }
    _analyze_requests(records, out, (end - start, cold, energy, phase),
                      _listed(entry, args), server)
    out.tenants = {
        tenant: _sorted_tenant(doc)
        for tenant, doc in sorted(out.tenants.items())
    }
    return out


def _steps(records: TraceRecords) -> tuple:
    """``(mode, ticks, entry, args, phase, replica, server)``: the step
    spans of ``records`` as a tick table, the mode they imply, each
    tick's index into ``args``, the args of the row entries the ticks
    record, and the ticks' phases, replicas and servers as ``(names,
    codes)``, with ``"cold"`` phase name 0. A dispatch's server is its
    ``(replica, model)``; a serve trace's ticks name no replica and
    share its one server, ``""``. Args are decoded once per entry (a
    live batch repeats one entry tick after tick).

    A step is a serve ``tick[…]`` or a drain ``batch`` on the serve
    batch track, or a fleet ``dispatch[…]``. Any tick makes the trace
    ``continuous``; else any dispatch makes it ``cluster`` and any batch
    ``drain``; a trace with none is ``continuous``. A cluster trace's
    ticks are its dispatches, any other trace's its ticks and batches,
    in ``(start_ns, span_id)`` order. A step is a membership boundary by
    its ``boundary`` arg, else unless it is ``sparse``.
    """
    spans = records.spans
    names, tracks, entry_args = spans.rows
    is_tick = [t == _BATCH_TRACK and n.startswith("tick[") for n, t in zip(names, tracks)]
    is_batch = [t == _BATCH_TRACK and n == "batch" for n, t in zip(names, tracks)]
    is_dispatch = [name.startswith("dispatch[") for name in names]
    mode = ("continuous" if any(is_tick) else "cluster" if any(is_dispatch)
            else "drain" if any(is_batch) else "continuous")
    picked = (is_dispatch if mode == "cluster"
              else [t or b for t, b in zip(is_tick, is_batch)])
    entries = [e for e, step in enumerate(picked) if step]
    args = list(map(entry_args.__getitem__, entries))
    code = np.full(len(names), -1)
    code[entries] = np.arange(len(entries))
    entry = code[int64(spans.columns.row)]
    rows = np.flatnonzero(entry >= 0)
    span_id, start, end = (int64(column) for column in (
        spans.columns.span_id, spans.columns.start_ns, spans.columns.end_ns
    ))
    rows = rows[np.lexsort((span_id[rows], start[rows]))]
    entry, span_id, start, end = (a[rows] for a in (entry, span_id, start, end))
    cold = np.minimum(np.maximum(
        _to_ns([a.get("cold_s", 0.0) for a in args])[entry], 0), end - start)
    energy = _to_ns([a.get("energy_j", 0.0) for a in args])[entry]
    phases = [
        "batch" if is_batch[e]
        else str(a.get("phase") or (names[e][5:-1] if is_tick[e] else "batch"))
        for e, a in zip(entries, args)
    ]
    # "cold" is key 0 of the phase rollup; each phase names its own key.
    phase_names, phase = _factorize(["cold", *phases])
    replicas = [tracks[e].partition("/")[2] if mode == "cluster" else ""
                for e in entries]
    replica_names, replica = _factorize(replicas)
    phase, replica = phase[1:][entry], replica[entry]
    server_names, server = _factorize([
        (r, str(a.get("model", ""))) if r else "" for a, r in zip(args, replicas)
    ])
    picks = entry.tolist()
    boundary, members = (list(map(values.__getitem__, picks)) for values in (
        [bool(a.get("boundary", p != "sparse")) for a, p in zip(args, phases)],
        [tuple(a.get("request_ids", ())) for a in args],
    ))
    return mode, _ticks(
        int64_column(span_id), int64_column(start), int64_column(end),
        np.array(phase_names, dtype=object)[phase].tolist(),
        int64_column(cold), int64_column(energy),
        np.array(replica_names, dtype=object)[replica].tolist(), boundary, members,
    ), entry, args, (phase_names, phase), (replica_names, replica), (
        server_names, server[entry])


def _listed(entry: np.ndarray, args: list) -> dict:
    """Request id -> ascending int64 positions of the ticks whose entry
    lists it (drain batches and fleet dispatches), gathered per entry:
    a tick has one entry, so one id's runs of ticks are disjoint."""
    order = np.argsort(entry, kind="stable")
    bounds = np.searchsorted(entry[order], np.arange(len(args) + 1)).tolist()
    chunks: dict = {}
    for e, a in enumerate(args):
        for rid in dict.fromkeys(map(int, a.get("request_ids", ()))):
            chunks.setdefault(rid, []).append(order[bounds[e]:bounds[e + 1]])
    return {rid: np.sort(np.concatenate(parts)) for rid, parts in chunks.items()}


#: A fleet request's lifecycle events in the serve membership vocabulary
#: (every ``cluster/slo`` drop is an expiry).
_FLEET_KINDS = {"queued": "submit", "served": "complete", "rejected": "rejected"}


def _analyze_requests(records: TraceRecords, out: Attribution,
                      amounts: tuple, listed: dict, server: tuple) -> None:
    """Each request's exact split, and its ticks' shares by tenant."""
    columns = out.ticks.columns
    lifecycle: dict = {}
    for event in records.events:
        kind = {_MEMBERSHIP_TRACK: event.name, "cluster/slo": "expire",
                "cluster/requests": _FLEET_KINDS.get(event.name)}.get(event.track)
        rid = event.args.get("request_id")
        if kind is not None and rid is not None:
            lifecycle.setdefault(int(rid), []).append(event._replace(name=kind))
    for rid in sorted(lifecycle):
        events = sorted(lifecycle[rid], key=lambda e: (e.ts_ns, e.event_id))
        out.requests.append(_lifecycle(rid, events, out.horizon_ns))
    members = _member_ticks(out.requests, columns, listed)

    # Membership boundaries, per server: instants at which a queued
    # request could have been (re)considered — its server's boundary
    # tick starts plus every membership edit instant of its requests.
    server_names, server = server
    flagged = np.array(columns.boundary, dtype=bool)
    boundaries = {
        key: set(int64(columns.start_ns)[flagged & (server == code)].tolist())
        for code, key in enumerate(server_names)
    }
    keys = [(r.replica, r.model) if r.replica else "" for r in out.requests]
    for key, request in zip(keys, out.requests):
        boundaries.setdefault(key, set()).update(
            e.ts_ns for e in lifecycle[request.request_id]
            if e.name in ("join", "evict", "expire")
        )
    boundaries = {key: sorted(instants) for key, instants in boundaries.items()}
    _add_components(out.requests, amounts, [boundaries[key] for key in keys])

    _account_slots(out.tenants, amounts, members, out.requests)
    for request in out.requests:
        doc = _tenant_doc(out.tenants, request.tenant)
        doc["requests"] += 1
        if request.outcome == "served":
            doc["served"] += 1


def _lifecycle(rid: int, events: list, horizon_ns: int) -> RequestAttribution:
    """A request's submission, membership intervals and outcome, from
    its lifecycle events in time order."""
    request = RequestAttribution(request_id=rid)
    submit = next((e for e in events if e.name == "submit"), None)
    if submit is not None:
        request.submit_ns = submit.ts_ns
        request.tenant = str(submit.args.get("tenant", "default"))
        request.priority = int(submit.args.get("priority", 1))
        request.model = str(submit.args.get("model", ""))
        request.replica = str(submit.args.get("replica", ""))
        deadline = submit.args.get("deadline_s")
        if deadline is not None:
            request.deadline_ns = to_ns(deadline)
    else:
        request.submit_ns = events[0].ts_ns

    # Walk the lifecycle into alternating wait/active segments.
    open_join: Optional[int] = None
    terminal: Optional[tuple] = None
    for event in events:
        if event.name == "join" and open_join is None:
            open_join = event.ts_ns
        elif event.name in ("evict", "complete") and open_join is not None:
            request.intervals.append((open_join, event.ts_ns))
            open_join = None
            if event.name == "complete":
                terminal = ("served", event.ts_ns)
            elif event.args.get("reason") == "deadline":
                terminal = ("dropped", event.ts_ns)
        elif event.name == "expire":
            terminal = ("expired", event.ts_ns)
        elif event.name in ("complete", "rejected"):  # a fleet request's
            terminal = ("served" if event.name == "complete" else "rejected",
                        event.ts_ns)
    if open_join is not None:
        request.intervals.append((open_join, horizon_ns))
    if terminal is None:
        last = (request.intervals[-1][1] if request.intervals
                else events[-1].ts_ns)
        terminal = ("open", max(last, request.submit_ns))
    request.outcome, request.end_ns = terminal
    return request


def _member_ticks(requests: list, ticks: _Tick, listed: dict) -> dict:
    """The membership relation: member id -> ascending int64 positions
    of its ticks, which each request also keeps as ``positions``.

    A tick that lists request ids (a drain batch, a fleet dispatch) has
    exactly those members; any other tick, the requests whose membership
    interval contains it (by bisecting the tick starts). A request with
    no ``join`` event (every fleet request) is a member of the ticks
    listing it, and they are its intervals, broken wherever two
    consecutive ones do not abut: its server's join and leave instants,
    a preemption being a gap. Such a request that expired after it was a
    member was dropped; one with no terminal event whose last tick is a
    batch was served by it (a batch runs whole generations).
    """
    relation = dict(listed)
    starts, ends = ticks.start_ns, ticks.end_ns
    joinless = []
    for request in requests:
        positions = relation.get(request.request_id, _NONE)
        if request.intervals:
            inside = set(positions.tolist())
            for join_ns, leave_ns in request.intervals:
                inside.update(
                    p for p in range(bisect_left(starts, join_ns),
                                     bisect_right(starts, leave_ns))
                    if ends[p] <= leave_ns and not ticks.members[p]
                )
            positions = np.array(sorted(inside), dtype=np.int64)
        else:
            joinless.append(request)
        request.positions = relation[request.request_id] = positions

    # The joinless requests' ticks, all at once: an interval opens at a
    # request's first tick and after every gap.
    owner, position = _pairs([r.positions for r in joinless])
    start, end = int64(starts)[position], int64(ends)[position]
    opens, closes = (np.ones(len(owner), dtype=bool) for _ in range(2))
    opens[1:] = closes[:-1] = (owner[1:] != owner[:-1]) | (start[1:] != end[:-1])
    for o, join_ns, leave_ns in zip(owner[opens].tolist(), start[opens].tolist(),
                                    end[closes].tolist()):
        joinless[o].intervals.append((join_ns, leave_ns))
    for request in joinless:
        if not request.intervals:
            continue
        if request.outcome == "expired":
            request.outcome = "dropped"
        elif request.outcome == "open":
            request.end_ns = max(request.end_ns, request.intervals[-1][1])
            if ticks.phase[request.positions[-1]] == "batch":
                request.outcome = "served"
    return relation


def _add_components(requests: list, amounts: tuple, boundaries: list) -> None:
    """Fill each request's ``components``: its waits from the gaps
    around its intervals (split at the request's ``boundaries``), its
    member ticks' time by phase and cold share, and the rest of its
    interval time as ``other_ns``. The tick sums are int64 sums over
    every ``(request, position)`` pair at once."""
    duration, cold, _, (phase_names, phase) = amounts
    owner, position = _pairs([r.positions for r in requests])
    cold_ns, tick_ns = (_sum_by(owner, values[position], len(requests)).tolist()
                        for values in (cold, duration))
    by_phase = _rollup(len(requests), len(phase_names), owner, phase[position],
                       (duration - cold)[position], np.ones(len(owner), bool))
    for request, instants, cold_total, tick_total, phases in zip(
            requests, boundaries, cold_ns, tick_ns, by_phase):
        comp = request.components
        cursor = request.submit_ns
        first_wait = True
        for join_ns, leave_ns in request.intervals:
            if join_ns > cursor or first_wait:
                _split_wait(comp, cursor, join_ns, instants, first_wait)
                first_wait = False
            comp["other_ns"] += leave_ns - join_ns
            cursor = leave_ns
        if request.end_ns > cursor:
            # Tail wait after the last eviction (requeued then expired), or
            # a request that never joined at all.
            _split_wait(comp, cursor, request.end_ns, instants, first_wait)
        if phases:
            comp["cold_ns"] += cold_total
            for code, total in phases:
                key = f"{phase_names[code]}_ns"
                comp[key] = comp.get(key, 0) + total
            comp["other_ns"] -= tick_total


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


def _tenant_doc(tenants: dict, tenant: str) -> dict:
    doc = tenants.get(tenant)
    if doc is None:
        doc = tenants[tenant] = {
            "tick_ns": 0, "energy_nj": 0, "requests": 0, "served": 0,
            "by_phase": {}, "by_priority": {}, "by_model": {},
        }
    return doc


def _sorted_tenant(doc: dict) -> dict:
    for key in ("by_phase", "by_priority", "by_model"):
        doc[key] = dict(sorted(doc[key].items()))
    return dict(sorted(doc.items()))


def _pairs(positions: list) -> tuple:
    """``(owner, position)``: every position of the ``positions`` arrays
    beside the index of the array holding it."""
    return (np.repeat(np.arange(len(positions)), list(map(len, positions))),
            np.concatenate([_NONE, *positions]))


def _account_slots(tenants: dict, amounts: tuple, members: dict,
                   requests: list) -> None:
    """Split every tick's time and energy over its member slots and add
    the shares to the ``tenants`` documents.

    ``amounts`` are each tick's duration, cold and energy, and its phase
    as ``(names, codes)`` with ``"cold"`` name 0; ``members`` is the
    membership relation. A tick's slots are its members in request-id
    order, or one (unattributed) slot when it has none; an id no request
    carries is unattributed, priority 1, no model. A slot's share is the
    exact split's: the floor share, plus one for slots below the
    remainder (the lowest ids), so a tick's shares sum to its amount. A
    phase key appears where its amount is non-zero, priority and model
    keys for every member slot. Sums are int64, exact up to 292 years of
    busy time and 9.2 GJ of energy.
    """
    duration, cold, energy, (phase_names, phase) = amounts
    ids = sorted(members)
    owner, position = _pairs(list(map(members.__getitem__, ids)))
    size = np.bincount(position, minlength=len(duration))
    slots = np.maximum(size, 1)
    member = np.repeat(np.arange(len(size)), slots)
    slot = np.arange(len(member)) - (np.cumsum(slots) - slots)[member]
    present = (size > 0)[member]
    who = np.full(len(member), len(ids))
    who[present] = owner[np.argsort(position, kind="stable")]
    by_rid = {r.request_id: r for r in requests}
    nobody = RequestAttribution(request_id=-1, tenant=_UNATTRIBUTED)
    holders = [by_rid.get(rid, nobody) for rid in ids] + [nobody]
    tenant_names, tenant = _factorize([r.tenant for r in holders])
    tenant = tenant[who]
    rows = len(tenant_names)

    def share(amount):
        floor, remainder = np.divmod(amount[member], slots[member])
        return floor + (slot < remainder)

    busy_part = duration - cold
    cold_share, busy_share, energy_share = map(
        share, (cold, busy_part, energy)
    )
    tick_share = cold_share + busy_share
    rollups = [("by_phase", phase_names, _rollup(
        rows, len(phase_names),
        np.concatenate([tenant, tenant]),
        np.concatenate([np.zeros_like(member), phase[member]]),
        np.concatenate([cold_share, busy_share]),
        np.concatenate([cold[member] != 0, busy_part[member] != 0]),
    ))]
    rollups += [
        (key, names, _rollup(rows, len(names), tenant, codes[who], tick_share,
                             present))
        for key, (names, codes) in (
            ("by_priority", _factorize([str(r.priority) for r in holders])),
            ("by_model", _factorize([r.model or "?" for r in holders])),
        )
    ]
    tick_ns = _sum_by(tenant, tick_share, rows).tolist()
    energy_nj = _sum_by(tenant, energy_share, rows).tolist()
    for t in sorted(set(tenant.tolist())):  # np.unique imports numpy.ma
        doc = _tenant_doc(tenants, tenant_names[t])
        doc["tick_ns"] += tick_ns[t]
        doc["energy_nj"] += energy_nj[t]
        for key, names, rollup in rollups:
            doc[key].update((names[k], total) for k, total in rollup[t])


def _to_ns(seconds: list) -> np.ndarray:
    """:func:`to_ns` of every value: the same float product, rounded
    half to even."""
    return np.rint(
        np.fromiter(seconds, np.float64, len(seconds)) * NS_PER_S
    ).astype(np.int64)


def _factorize(values: list) -> tuple:
    """``(names, codes)``: the distinct values in first-seen order and
    each value's position among them (an int64 array)."""
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.int64,
                                    len(values))


def _sum_by(codes: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Exact int64 sum of ``values`` per code."""
    totals = np.zeros(size, dtype=np.int64)
    np.add.at(totals, codes, values)
    return totals


def _rollup(rows, columns, row, column, values, present) -> list:
    """Per row, the ``(column, sum of values)`` pairs of the columns that
    some ``present`` entry reaches, in column order."""
    cell = (row * columns + column)[present]
    totals = _sum_by(cell, values[present], rows * columns)
    reached = np.zeros(rows * columns, dtype=bool)
    reached[cell] = True
    out = [[] for _ in range(rows)]
    for index, total in zip(np.flatnonzero(reached).tolist(),
                            totals[reached].tolist()):
        out[index // columns].append((index % columns, total))
    return out


__all__ = [
    "Attribution",
    "COMPONENTS",
    "RequestAttribution",
    "analyze_records",
]
