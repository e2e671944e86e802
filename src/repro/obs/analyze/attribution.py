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

Every step span — a serve tick, a drain batch, a fleet dispatch — is
read through one column extraction into :attr:`Attribution.ticks`, and
the same selection decides the mode.

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
from itertools import chain
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
    #: span started at a membership boundary (hook enrichment arg)
    boundary: bool
    #: request ids the span lists (drain batches); other ticks recover
    #: their members from membership intervals.
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
    outcome: str = "open"  # served | dropped | expired | open
    submit_ns: int = 0
    end_ns: int = 0
    deadline_ns: Optional[int] = None
    components: dict = field(
        default_factory=lambda: dict.fromkeys(COMPONENTS, 0)
    )
    intervals: list = field(default_factory=list)  # (join_ns, leave_ns)
    #: ascending positions of its member ticks in :attr:`Attribution.ticks`
    positions: list = field(default_factory=list)

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
    #: ``array('q')``), in tick-start order for serve modes and trace
    #: order for cluster dispatches
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
    mode, ticks, entry, args, phase, replica = _steps(records)
    out = Attribution(mode=mode, horizon_ns=records.horizon_ns(), ticks=ticks)
    columns = ticks.columns
    start, end, cold, energy = map(int64, (
        columns.start_ns, columns.end_ns, columns.cold_ns, columns.energy_nj
    ))
    out.busy_ns = int((end - start).sum())
    out.energy_nj = int(energy.sum())
    amounts = (end - start, cold, energy, phase)
    if mode == "cluster":
        _analyze_cluster(records, out, amounts, replica, entry, args)
    else:
        _analyze_serve(records, out, amounts)
    out.tenants = {
        tenant: _sorted_tenant(doc)
        for tenant, doc in sorted(out.tenants.items())
    }
    return out


def _steps(records: TraceRecords) -> tuple:
    """``(mode, ticks, entry, args, phase, replica)``: the step spans of
    ``records`` as a tick table, the mode they imply, each tick's index
    into ``args``, the args of the row entries the ticks record, and the
    ticks' phases and replicas as ``(names, codes)``, with ``"cold"``
    phase name 0. Args are decoded once per entry (a live batch repeats
    one entry tick after tick).

    A step is a serve ``tick[…]`` or a drain ``batch`` on the serve
    batch track, or a fleet ``dispatch[…]``. Any tick makes the trace
    ``continuous``; else any dispatch makes it ``cluster`` and any batch
    ``drain``; a trace with none is ``continuous``. A cluster trace's
    ticks are its dispatches, in trace order; any other trace's are its
    ticks and batches, in ``(start_ns, span_id)`` order.
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
    if mode != "cluster":
        rows = rows[np.lexsort((span_id[rows], start[rows]))]
    entry, span_id, start, end = (a[rows] for a in (entry, span_id, start, end))
    cold = np.minimum(np.maximum(
        _to_ns([a.get("cold_s", 0.0) for a in args])[entry], 0), end - start)
    energy = _to_ns([a.get("energy_j", 0.0) for a in args])[entry]
    # "cold" is key 0 of the phase rollup; each phase names its own key.
    phase_names, phase = _factorize(["cold", *(
        "batch" if is_batch[e]
        else str(a.get("phase") or (names[e][5:-1] if is_tick[e] else "batch"))
        for e, a in zip(entries, args)
    )])
    replica_names, replica = _factorize([
        tracks[e].partition("/")[2] if mode == "cluster" else "" for e in entries
    ])
    phase, replica = phase[1:][entry], replica[entry]
    picks = entry.tolist()
    boundary, members = (list(map(values.__getitem__, picks)) for values in (
        [bool(a.get("boundary", False)) for a in args],
        [tuple(a.get("request_ids", ())) for a in args],
    ))
    return mode, _ticks(
        int64_column(span_id), int64_column(start), int64_column(end),
        np.array(phase_names, dtype=object)[phase].tolist(),
        int64_column(cold), int64_column(energy),
        np.array(replica_names, dtype=object)[replica].tolist(), boundary, members,
    ), entry, args, (phase_names, phase), (replica_names, replica)


def _analyze_serve(records: TraceRecords, out: Attribution,
                   amounts: tuple) -> None:
    """Each request's exact split, and its ticks' shares by tenant."""
    columns = out.ticks.columns
    # Membership boundaries: instants at which a queued request could
    # have been (re)considered — tick starts flagged as boundaries plus
    # every membership edit instant (joins/evicts happen only there).
    boundaries = {
        start for start, phase, flagged in zip(
            columns.start_ns, columns.phase, columns.boundary
        ) if phase == "batch" or flagged
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
        out.requests.append(_lifecycle(rid, events, out.horizon_ns))
    members = _member_ticks(out.requests, columns, out.mode)
    for request in out.requests:
        _add_components(request, columns, boundary_list)

    # One slot per (tick, member): a tick's members in request-id order,
    # so the lowest ids take the split's remainder; a tick with no
    # member is one (unattributed) slot.
    held: list = [[] for _ in range(len(out.ticks))]
    for rid in sorted(members):
        for position in members[rid]:
            held[position].append(rid)
    # An id no request carries is unattributed, priority 1, no model.
    by_rid = {r.request_id: r for r in out.requests}
    nobody = RequestAttribution(request_id=-1, tenant=_UNATTRIBUTED)
    slots = [by_rid.get(rid, nobody) for rid in
             chain.from_iterable(ids or [None] for ids in held)]
    size = np.fromiter(map(len, held), np.int64, len(held))
    member, slot = _slots(size)
    _account_slots(
        out.tenants, *amounts, member, slot, size,
        _factorize([r.tenant for r in slots]),
        _factorize([str(r.priority) for r in slots]),
        _factorize([r.model or "?" for r in slots]), (size > 0)[member],
    )
    for request in out.requests:
        doc = _tenant_doc(out.tenants, request.tenant)
        doc["requests"] += 1
        if request.outcome == "served":
            doc["served"] += 1


def _lifecycle(rid: int, events: list, horizon_ns: int) -> RequestAttribution:
    """A request's submission, membership intervals and outcome, from
    its membership events in time order."""
    request = RequestAttribution(request_id=rid)
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
    if open_join is not None:
        request.intervals.append((open_join, horizon_ns))
    if terminal is None:
        last = (request.intervals[-1][1] if request.intervals
                else events[-1].ts_ns)
        terminal = ("open", max(last, request.submit_ns))
    request.outcome, request.end_ns = terminal
    return request


def _member_ticks(requests: list, ticks: _Tick, mode: str) -> dict:
    """The serve membership relation: member id -> ascending positions
    of its ticks, which each request also keeps as ``positions``.

    A tick that lists request ids (a drain batch) has exactly those
    members; any other tick, the requests whose membership interval
    contains it (by bisecting the tick starts). A drain request with no
    join event takes the first batch listing it after its submission.
    """
    relation: dict = {}
    for position, listed in enumerate(ticks.members):
        for rid in listed:
            relation.setdefault(int(rid), []).append(position)
    starts, ends = ticks.start_ns, ticks.end_ns
    for request in requests:
        listed = relation.get(request.request_id, [])
        if mode == "drain" and not request.intervals:
            carrier = next(
                (p for p in listed if starts[p] >= request.submit_ns), None
            )
            if carrier is not None:
                request.intervals = [(starts[carrier], ends[carrier])]
                request.outcome = "served"
                request.end_ns = ends[carrier]
        inside = set(listed)
        for join_ns, leave_ns in request.intervals:
            inside.update(
                p for p in range(bisect_left(starts, join_ns),
                                 bisect_right(starts, leave_ns))
                if ends[p] <= leave_ns and not ticks.members[p]
            )
        request.positions = relation[request.request_id] = sorted(inside)
    return relation


def _add_components(request: RequestAttribution, ticks: _Tick,
                    boundaries: list) -> None:
    """Fill ``request.components``: its waits from the gaps around its
    intervals, its member ticks' time by phase and cold share, and the
    rest of its interval time as ``other_ns``."""
    comp = request.components
    cursor = request.submit_ns
    first_wait = True
    for join_ns, leave_ns in request.intervals:
        if join_ns > cursor or first_wait:
            _split_wait(comp, cursor, join_ns, boundaries, first_wait)
            first_wait = False
        comp["other_ns"] += leave_ns - join_ns
        cursor = leave_ns
    if request.end_ns > cursor:
        # Tail wait after the last eviction (requeued then expired), or
        # a request that never joined at all.
        _split_wait(comp, cursor, request.end_ns, boundaries, first_wait)
    for position in request.positions:
        duration = ticks.end_ns[position] - ticks.start_ns[position]
        cold = ticks.cold_ns[position]
        comp["cold_ns"] += cold
        key = f"{ticks.phase[position]}_ns"
        comp[key] = comp.get(key, 0) + duration - cold
        comp["other_ns"] -= duration


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


# ----------------------------------------------------------------------
# cluster mode
# ----------------------------------------------------------------------
def _analyze_cluster(records: TraceRecords, out: Attribution, amounts: tuple,
                     replica: tuple, row, args: list) -> None:
    """Fleet-level accounting from dispatch ticks and lifecycle events.

    Every lifecycle event carries the request's fleet ordinal, but a
    dispatch lists tenants, not requests, so this mode reports rollups
    (per tenant/replica/model) and each served request's wait and
    service rather than per-tick decompositions; the exact-conservation
    guarantee here is that per-tenant dispatch shares sum to fleet busy
    time.

    Each dispatch's tenants become member slots for
    :func:`_account_slots`, read from the ``args`` entry that ``row``
    gives each tick. A priority or model key appears only where a
    contributing amount is non-zero.
    """
    duration, cold = amounts[:2]
    replica_names, replica = replica
    busy, dispatches, cold_ns = (
        _sum_by(replica, values, len(replica_names)).tolist()
        for values in (duration, np.ones_like(duration), cold)
    )
    for i in sorted(range(len(replica_names)), key=replica_names.__getitem__):
        out.replicas[replica_names[i]] = {
            "busy_ns": busy[i], "dispatches": dispatches[i],
            "cold_ns": cold_ns[i],
        }

    # One row per member slot; an entry's lists are flattened once, and
    # a slot reads its entry's list at its own position.
    tenant_lists = [a.get("tenants", ()) for a in args]
    priority_lists = [a.get("priorities", ()) for a in args]
    listed = np.fromiter(map(len, tenant_lists), np.int64, len(args))
    size = listed[row]
    member, slot = _slots(size)
    entry = row[member]
    # The appended name is the tenantless dispatches' one slot.
    tenant_names, codes = _factorize(
        [*chain.from_iterable(tenant_lists), _UNATTRIBUTED], str
    )
    tenant = np.full(len(member), codes[-1])
    has = (size > 0)[member]
    tenant[has] = codes[(np.cumsum(listed) - listed)[entry[has]] + slot[has]]
    # A slot's priority is the one listed at its position, else 1; the
    # appended 1 is the unlisted slots' entry.
    count = np.fromiter(map(len, priority_lists), np.int64, len(args))
    priority_names, priorities = _factorize(
        [*chain.from_iterable(priority_lists), 1], lambda p: str(int(p))
    )
    priority = priorities[np.where(
        slot < count[entry], (np.cumsum(count) - count)[entry] + slot,
        len(priorities) - 1,
    )]
    model_names, model = _factorize(
        [a.get("model", "") for a in args], lambda m: str(m) or "?"
    )
    busy_part = duration - cold
    _account_slots(
        out.tenants, *amounts, member, slot, size,
        (tenant_names, tenant), (priority_names, priority),
        (model_names, model[entry]),
        ((cold != 0) | (busy_part != 0))[member] & has,
    )

    # Request rollups from lifecycle events (no cross-joins: a served
    # event carries its own arrival stamp and wait).
    # Service is the rest of the sojourn, so a request's components sum
    # to its latency; an artifact without the stamp rebuilds the arrival
    # from the rounded wait and service.
    for _, name, track, ts_ns, args in records.events:
        if track != "cluster/requests":
            continue
        tenant = str(args.get("tenant", "default"))
        doc = _tenant_doc(out.tenants, tenant)
        if name == "queued":
            doc["requests"] += 1
        elif name == "served":
            doc["served"] += 1
            wait_ns = to_ns(args.get("wait_s", 0.0))
            submitted = args.get("submitted_s")
            submit_ns = (
                ts_ns - wait_ns - to_ns(args.get("service_s", 0.0))
                if submitted is None else to_ns(submitted)
            )
            request = RequestAttribution(
                request_id=int(args.get("request_id", -1)),
                tenant=tenant,
                priority=int(args.get("priority", 1)),
                model=str(args.get("model", "")),
                outcome="served",
                submit_ns=submit_ns,
                end_ns=ts_ns,
            )
            request.components["queue_wait_ns"] = wait_ns
            request.components["batch_ns"] = ts_ns - submit_ns - wait_ns
            out.requests.append(request)


def _slots(size: np.ndarray) -> tuple:
    """``(member, slot)``: each slot's tick and its place among that
    tick's ``max(size, 1)`` slots, in tick order."""
    slots = np.maximum(size, 1)
    member = np.repeat(np.arange(len(size)), slots)
    return member, np.arange(len(member)) - (np.cumsum(slots) - slots)[member]


def _account_slots(tenants: dict, duration, cold, energy, phase: tuple,
                   member, slot, size, tenant: tuple, priority: tuple,
                   model: tuple, present) -> None:
    """Split every tick's time and energy over its member slots and add
    the shares to the ``tenants`` documents.

    Per tick: ``duration``, ``cold`` and ``energy`` amounts, ``phase``
    as ``(names, codes)`` with ``"cold"`` name 0, and ``size`` (members;
    a tick with none is one slot). Per slot (see
    :func:`_slots`): ``tenant``, ``priority`` and ``model`` as ``(names,
    codes)`` pairs, and ``present`` where its priority and model keys
    appear. A slot's share is the exact split's: the floor share, plus
    one for slots below the remainder, so a tick's shares sum to its
    amount. Sums are int64, exact up to 292 years of busy time and
    9.2 GJ of energy.
    """
    slots = np.maximum(size, 1)
    tenant_names, tenant = tenant
    rows = len(tenant_names)

    def share(amount):
        floor, remainder = np.divmod(amount[member], slots[member])
        return floor + (slot < remainder)

    busy_part = duration - cold
    cold_share, busy_share, energy_share = map(
        share, (cold, busy_part, energy)
    )
    tick_share = cold_share + busy_share
    phase_names, phase = phase
    rollups = [("by_phase", phase_names, _rollup(
        rows, len(phase_names),
        np.concatenate([tenant, tenant]),
        np.concatenate([np.zeros_like(member), phase[member]]),
        np.concatenate([cold_share, busy_share]),
        np.concatenate([cold[member] != 0, busy_part[member] != 0]),
    ))]
    rollups += [
        (key, names, _rollup(rows, len(names), tenant, codes, tick_share,
                             present))
        for key, (names, codes) in (("by_priority", priority),
                                    ("by_model", model))
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


def _factorize(values: list, label=None) -> tuple:
    """``(names, codes)``: the distinct values in first-seen order and
    each value's position among them (an int64 array). With ``label``,
    the names are the distinct labels of the distinct values, so values
    with equal labels share a code."""
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    if label is None:
        return list(index), codes
    names, relabel = _factorize(list(map(label, index)))
    return names, relabel[codes]


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
