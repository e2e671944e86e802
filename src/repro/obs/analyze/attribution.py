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

Cost accounting answers a different question — where did the *device's*
time go, not each requester's — so there each tick's duration is split
among its members by integer division (remainder to the lowest request
ids), making per-tenant tick-nanosecond totals sum exactly to fleet
busy time. Energy rides along in integer nanojoules when tick spans
carry an ``energy_j`` price.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.obs.analyze.records import TraceRecords, to_ns
from repro.obs.trace import Table

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

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


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
    ticks: int = 0
    intervals: list = field(default_factory=list)  # (join_ns, leave_ns)

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
    #: _Tick rows by column (analysis internal), in tick-start order for
    #: serve modes and trace order for cluster dispatches
    ticks: Table = field(default_factory=lambda: Table(_Tick))

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

        def rank(q: float) -> int:
            # Nearest-rank: the smallest sample covering quantile q.
            index = max(1, -(-len(served) * q // 100))  # ceil
            return served[int(index) - 1]

        return {
            "count": len(served),
            "p50_ns": rank(50),
            "p95_ns": rank(95),
            "p99_ns": rank(99),
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
    mode = detect_mode(records)
    if mode == "cluster":
        return _analyze_cluster(records)
    return _analyze_serve(records, mode)


def detect_mode(records: TraceRecords) -> str:
    """Which instrumented layer produced this trace."""
    names = records.spans.columns.name
    if any(name.startswith("tick[") for name in names):
        return "continuous"
    if any(name.startswith("dispatch[") for name in names):
        return "cluster"
    if any(name == "batch" and track == _BATCH_TRACK
           for name, track in zip(names, records.spans.columns.track)):
        return "drain"
    return "continuous"


def _serve_ticks(records: TraceRecords) -> list:
    ticks = []
    for span in records.spans:
        if span.track != _BATCH_TRACK:
            continue
        if span.name.startswith("tick["):
            phase = span.args.get("phase") or span.name[5:-1]
        elif span.name == "batch":
            phase = "batch"
        else:
            continue
        duration = span.duration_ns
        cold_ns = min(max(to_ns(span.args.get("cold_s", 0.0)), 0), duration)
        ticks.append(_Tick(
            span_id=span.span_id,
            start_ns=span.start_ns,
            end_ns=span.end_ns,
            phase=phase,
            cold_ns=cold_ns,
            energy_nj=round(float(span.args.get("energy_j", 0.0)) * 1e9),
            replica="",
            boundary=bool(span.args.get("boundary", False)),
            members=tuple(span.args.get("request_ids", ())),
        ))
    ticks.sort(key=lambda t: (t.start_ns, t.span_id))
    return ticks


def _analyze_serve(records: TraceRecords, mode: str) -> Attribution:
    # Serve traces are small: the attribution walks _Tick rows.
    ticks = _serve_ticks(records)
    out = Attribution(mode=mode, horizon_ns=records.horizon_ns())
    for tick in ticks:
        out.ticks.append(*tick)
    out.busy_ns = sum(t.duration_ns for t in ticks)
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
        for tick in ticks:
            if tick.start_ns >= join_ns and tick.end_ns <= leave_ns and (
                not tick.members or rid in tick.members
            ):
                cold = tick.cold_ns
                comp["cold_ns"] += cold
                key = f"{tick.phase}_ns"
                comp[key] = comp.get(key, 0) + tick.duration_ns - cold
                covered += tick.duration_ns
                request.ticks += 1
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
                      (tick.phase, tick.duration_ns - tick.cold_ns)]
        if not members:
            doc = _tenant_doc(out.tenants, _UNATTRIBUTED)
            doc["tick_ns"] += tick.duration_ns
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


def _exact_split(amount: int, count: int) -> list:
    """Split ``amount`` into ``count`` shares: the floor share, plus one
    for the first ``amount % count`` positions (the lowest ids), so the
    shares always sum to ``amount``."""
    share, remainder = divmod(amount, count)
    return [share + 1] * remainder + [share] * (count - remainder)


def _group_share(amount: int, count: int, slots: list) -> int:
    """``sum(_exact_split(amount, count)[s] for s in slots)`` for
    ascending ``slots``: the floor share each, plus one per slot below
    the remainder."""
    share, remainder = divmod(amount, count)
    return share * len(slots) + bisect_left(slots, remainder)


# ----------------------------------------------------------------------
# cluster mode
# ----------------------------------------------------------------------
def _analyze_cluster(records: TraceRecords) -> Attribution:
    """Fleet-level accounting from dispatch spans and lifecycle events.

    Cluster traces identify requests per server, not globally, so this
    mode reports rollups (per tenant/replica/model) rather than
    per-request decompositions; the exact-conservation guarantee here
    is that per-tenant dispatch shares sum to fleet busy time. It walks
    the record columns and appends each dispatch to ``ticks`` as a row.
    """
    out = Attribution(mode="cluster", horizon_ns=records.horizon_ns())
    spans = records.spans.columns
    for span_id, name, track, start_ns, end_ns, args in zip(
        spans.span_id, spans.name, spans.track, spans.start_ns,
        spans.end_ns, spans.args,
    ):
        if not name.startswith("dispatch["):
            continue
        duration = end_ns - start_ns
        cold_ns = min(max(to_ns(args.get("cold_s", 0.0)), 0), duration)
        energy_nj = round(float(args.get("energy_j", 0.0)) * 1e9)
        phase = str(args.get("phase") or "batch")
        replica = track.partition("/")[2]
        out.ticks.append(span_id, start_ns, end_ns, phase, cold_ns,
                         energy_nj, replica, False, ())
        out.busy_ns += duration
        out.energy_nj += energy_nj
        totals = out.replicas.get(replica)
        if totals is None:
            totals = out.replicas[replica] = {
                "busy_ns": 0, "dispatches": 0, "cold_ns": 0,
            }
        totals["busy_ns"] += duration
        totals["dispatches"] += 1
        totals["cold_ns"] += cold_ns

        cold_phase = (("cold", cold_ns), (phase, duration - cold_ns))
        tenants = args.get("tenants", ())
        if not tenants:
            doc = _tenant_doc(out.tenants, _UNATTRIBUTED)
            doc["tick_ns"] += duration
            doc["energy_nj"] += energy_nj
            for key, amount in cold_phase:
                if amount:
                    doc["by_phase"][key] = doc["by_phase"].get(key, 0) + amount
            continue
        # One exact split per tick and quantity, a member's slot being its
        # position; members of one tenant and priority share one rollup,
        # so each such group adds the sum of its slots' shares.
        groups: dict = {}
        priorities = args.get("priorities", ())
        for slot, tenant in enumerate(tenants):
            priority = int(priorities[slot]) if slot < len(priorities) else 1
            groups.setdefault((str(tenant), str(priority)), []).append(slot)
        phases = [(key, amount) for key, amount in cold_phase if amount]
        model = str(args.get("model", "")) or "?"
        for (tenant, priority), slots in groups.items():
            doc = _tenant_doc(out.tenants, tenant)
            doc["energy_nj"] += _group_share(energy_nj, len(tenants), slots)
            if not phases:
                continue
            by_phase = doc["by_phase"]
            share = 0
            for key, amount in phases:
                part = _group_share(amount, len(tenants), slots)
                by_phase[key] = by_phase.get(key, 0) + part
                share += part
            doc["tick_ns"] += share
            by_priority = doc["by_priority"]
            by_priority[priority] = by_priority.get(priority, 0) + share
            doc["by_model"][model] = doc["by_model"].get(model, 0) + share

    # Request rollups from lifecycle events (ids are per-server, so no
    # cross-joins: served events carry their own wait/service prices).
    events = records.events.columns
    for name, track, ts_ns, args in zip(
        events.name, events.track, events.ts_ns, events.args
    ):
        if track != "cluster/requests":
            continue
        tenant = str(args.get("tenant", "default"))
        doc = _tenant_doc(out.tenants, tenant)
        if name == "queued":
            doc["requests"] += 1
        elif name == "served":
            doc["served"] += 1
            wait_ns = to_ns(args.get("wait_s", 0.0))
            service_ns = to_ns(args.get("service_s", 0.0))
            request = RequestAttribution(
                request_id=int(args.get("request_id", -1)),
                tenant=tenant,
                priority=int(args.get("priority", 1)),
                model=str(args.get("model", "")),
                outcome="served",
                submit_ns=ts_ns - wait_ns - service_ns,
                end_ns=ts_ns,
            )
            request.components["queue_wait_ns"] = wait_ns
            request.components["batch_ns"] = service_ns
            out.requests.append(request)
    out.tenants = {
        tenant: _sorted_tenant(doc)
        for tenant, doc in sorted(out.tenants.items())
    }
    out.replicas = dict(sorted(out.replicas.items()))
    return out


__all__ = [
    "Attribution",
    "COMPONENTS",
    "RequestAttribution",
    "analyze_records",
    "detect_mode",
]
