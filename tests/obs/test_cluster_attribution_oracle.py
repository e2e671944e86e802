"""The columnar cluster attribution against the row walk it replaced.

``_analyze_cluster`` below is the per-span row walk that cluster-mode
attribution ran before it became integer kernels over the span columns,
kept verbatim as the reference, except that a served request's arrival
is the ``served`` event's ``submitted_s`` stamp when it carries one. A ``hypothesis`` property generates
cluster traces and requires both to produce the same attribution
document, byte for byte once canonically encoded; a second test runs
the same comparison on real fleet-simulator traces.
"""

from bisect import bisect_left

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.obs import Observer
from repro.obs.analyze import TraceRecords, analyze, analyze_records
from repro.obs.analyze.attribution import (
    _UNATTRIBUTED,
    Attribution,
    RequestAttribution,
    _sorted_tenant,
    _tenant_doc,
)
from repro.obs.analyze.records import to_ns


# ----------------------------------------------------------------------
# the reference: the row walk, verbatim
# ----------------------------------------------------------------------
def _group_share(amount: int, count: int, slots: list) -> int:
    """``sum(_exact_split(amount, count)[s] for s in slots)`` for
    ascending ``slots``: the floor share each, plus one per slot below
    the remainder."""
    share, remainder = divmod(amount, count)
    return share * len(slots) + bisect_left(slots, remainder)



def _analyze_cluster(records: TraceRecords) -> Attribution:
    """Fleet-level accounting from dispatch spans and lifecycle events.

    Cluster traces identify requests per server, not globally, so this
    mode reports rollups (per tenant/replica/model) rather than
    per-request decompositions; the exact-conservation guarantee here
    is that per-tenant dispatch shares sum to fleet busy time. It walks
    the record columns and appends each dispatch to ``ticks`` as a row.
    """
    out = Attribution(mode="cluster", horizon_ns=records.horizon_ns())
    for span_id, name, track, start_ns, end_ns, args in records.spans:
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
            service_ns = to_ns(args.get("service_s", 0.0))
            submit_ns = ts_ns - wait_ns - service_ns
            if "submitted_s" in args:  # the arrival stamp, when carried
                submit_ns = to_ns(args["submitted_s"])
                service_ns = ts_ns - submit_ns - wait_ns
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
            request.components["batch_ns"] = service_ns
            out.requests.append(request)
    out.tenants = {
        tenant: _sorted_tenant(doc)
        for tenant, doc in sorted(out.tenants.items())
    }
    out.replicas = dict(sorted(out.replicas.items()))
    return out


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _documents(attribution) -> tuple:
    """Every document a cluster attribution feeds: the tick columns and
    the canonical report body (tenants, replicas, requests, critical
    path, SLOs)."""
    from repro.obs.analyze.report import AnalysisReport, build_critical_path
    from repro.obs.analyze.slo import default_slos, evaluate_slos

    report = AnalysisReport(
        attribution=attribution,
        path=build_critical_path(attribution),
        slo=evaluate_slos(attribution, default_slos()),
    )
    return tuple(map(list, attribution.ticks.columns)), report.to_json()


def _assert_matches_oracle(records) -> None:
    columnar = analyze_records(records)
    assert columnar.mode == "cluster"
    assert _documents(columnar) == _documents(_analyze_cluster(records))


_TENANTS = st.sampled_from(["alice", "bob", "carol", _UNATTRIBUTED])
_SECONDS = st.one_of(
    st.floats(-1.0, 20.0, allow_nan=False),  # cold_s may pass the span
    st.integers(0, 3),
)
_JOULES = st.one_of(
    st.floats(-1.0, 10.0, allow_nan=False),
    st.floats(1e3, 5e3, allow_nan=False),  # kJ-scale dispatches
)


@st.composite
def _dispatch(draw, span_id: int) -> tuple:
    start_ns = draw(st.integers(0, 10**10))
    length_ns = draw(st.one_of(st.just(0), st.integers(0, 10**9)))
    args = draw(st.fixed_dictionaries({}, optional={
        "batch_size": st.integers(1, 8),
        "model": st.sampled_from(["dit", "mld", ""]),
        "phase": st.sampled_from(["dense", "sparse", "batch", "cold", ""]),
        "cold_s": _SECONDS,
        "energy_j": _JOULES,
        # an empty or absent list is an unattributed dispatch
        "tenants": st.lists(_TENANTS, max_size=6),
        # shorter than tenants: the unlisted slots are priority 1
        "priorities": st.lists(st.integers(0, 3), max_size=7),
    }))
    model = args.get("model", "dit")
    replica = draw(st.sampled_from(["r0", "r1", "r2"]))
    return (span_id, f"dispatch[{model}]", f"replica/{replica}", start_ns,
            start_ns + length_ns, args)


@st.composite
def _cluster_trace(draw) -> TraceRecords:
    records = TraceRecords()
    count = draw(st.integers(1, 40))
    for span_id in range(count):
        records.spans.append(*draw(_dispatch(span_id)))
    if draw(st.booleans()):  # a non-dispatch span is not attributed
        records.spans.append(count, "route", "cluster/router", 0, 5, {})
    for event_id in range(draw(st.integers(0, 10))):
        served = draw(st.booleans())
        args = {
            "request_id": event_id,
            "tenant": draw(_TENANTS),
            "priority": draw(st.integers(0, 3)),
            "model": "dit",
        }
        if served:
            args["wait_s"] = draw(st.floats(0.0, 2.0))
            args["service_s"] = draw(st.floats(0.0, 2.0))
            if draw(st.booleans()):
                args["submitted_s"] = draw(st.floats(0.0, 10.0))
        records.events.append(
            event_id, "served" if served else "queued", "cluster/requests",
            draw(st.integers(10**9, 10**10)), args,
        )
    return records


class TestColumnarMatchesRowWalk:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cluster_trace())
    def test_generated_traces(self, records):
        _assert_matches_oracle(records)

    def test_each_case_by_hand(self):
        """One trace holding each case the property covers, checked
        against hand-computed shares as well as against the oracle."""
        spans = [
            (0, "dispatch[dit]", "replica/r0", 0, 10,
             {"tenants": ["alice", "bob", "alice"], "priorities": [2],
              "cold_s": 1.0, "energy_j": 2500.0, "phase": "dense"}),
            (1, "dispatch[mld]", "replica/r1", 5, 5,
             {"tenants": ["carol"], "energy_j": 1.0}),
            (2, "dispatch[dit]", "replica/r0", 10, 17, {}),
        ]
        records = TraceRecords()
        for span in spans:
            records.spans.append(*span)
        attribution = analyze_records(records)
        _assert_matches_oracle(records)
        assert attribution.tenants[_UNATTRIBUTED]["tick_ns"] == 7
        # 10 ns, 3 slots: cold 1 s clamps to the span; shares 4, 3, 3.
        assert attribution.tenants["alice"]["by_phase"] == {"cold": 7}
        assert attribution.tenants["alice"]["by_priority"] == {"1": 3, "2": 4}
        assert attribution.tenants["carol"]["by_priority"] == {}
        assert attribution.tenants["alice"]["energy_nj"] == (
            round(2500.0 * 1e9) * 2 // 3 + 1
        )

    @pytest.mark.parametrize("continuous", [False, True])
    def test_fleet_traces(self, continuous):
        trace = synthesize_trace(MMPPProcess(15.0, 60.0, mean_dwell_s=2.0),
                                 120, rng=2, deadline_s=2.0)
        observer = Observer()
        simulate_cluster(
            trace, build_replicas(2, continuous=continuous),
            make_router("jsq"), slo=SLOPolicy(latency_target_s=2.0),
            observer=observer,
        )
        records = TraceRecords.from_tracer(observer.tracer)
        _assert_matches_oracle(records)
        assert analyze(records).attribution.tenant_residual_ns() == 0
