"""The cluster critical path against the CPM graph it replaced.

``_replica_chains`` below is the graph builder cluster mode fed to the
general :func:`critical_path` (CPM over string keys, an edge set and a
heap, kept in ``critical_path_reference``) before the path became one
pass over the tick columns, kept verbatim as the reference. A
``hypothesis`` property generates cluster tick columns and requires
both to give the same path document, or the same ``ValueError``; hand
cases pin each edge the property draws; a last test runs the
comparison on real fleet-simulator traces.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from repro.obs import Observer
from repro.obs.analyze import analyze_tracer, build_critical_path
from repro.obs.analyze.attribution import Attribution, _factorize

from critical_path_reference import critical_path


# ----------------------------------------------------------------------
# the reference: the replica-chain graph, verbatim
# ----------------------------------------------------------------------
def _replica_chains(ticks) -> tuple:
    """Cluster mode's graph from the tick columns: each replica's
    dispatches chained in ``(start_ns, span_id)`` order, by one lexsort;
    consecutive dispatches of a replica get an edge unless the later
    one starts before the earlier one ends."""
    keys = ["tick:%08d" % span_id for span_id in ticks.span_id]
    nodes = list(zip(keys, ticks.start_ns, ticks.end_ns, [
        f"{replica} {phase}"
        for replica, phase in zip(ticks.replica, ticks.phase)
    ]))
    _, replica = _factorize(ticks.replica)
    start = np.array(ticks.start_ns, dtype=np.int64)
    end = np.array(ticks.end_ns, dtype=np.int64)
    order = np.lexsort((np.array(ticks.span_id, dtype=np.int64), start,
                        replica))
    before, after = order[:-1], order[1:]
    chained = ((replica[before] == replica[after])
               & (start[after] >= end[before]))
    edges = list(zip(map(keys.__getitem__, before[chained].tolist()),
                     map(keys.__getitem__, after[chained].tolist())))
    return nodes, edges


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _attribution(dispatches) -> Attribution:
    """A cluster attribution whose ticks are ``dispatches``, each
    ``(span_id, start_ns, end_ns, replica, phase)``."""
    out = Attribution(mode="cluster")
    for span_id, start_ns, end_ns, replica, phase in dispatches:
        out.ticks.append(span_id, start_ns, end_ns, phase, 0, 0, replica,
                         False, ())
    return out


def _outcome(build, ticks) -> tuple:
    try:
        return "path", build(ticks).to_dict()
    except ValueError as exc:
        return "error", str(exc)


def _assert_matches_oracle(attribution) -> dict:
    """Both paths agree; returns the new path's document."""
    got = _outcome(build_critical_path, attribution)
    want = _outcome(
        lambda a: critical_path(*_replica_chains(a.ticks.columns)),
        attribution,
    )
    assert got == want
    return got[1]


_SPAN_IDS = st.one_of(
    st.integers(0, 40),
    # across 10**8, where key order stops being numeric order
    st.integers(10**8 - 3, 10**8 + 3),
    st.integers(10**9, 10**9 + 2),
)


@st.composite
def _ticks(draw, reversed_ok: bool) -> Attribution:
    ids = draw(st.lists(_SPAN_IDS, max_size=14, unique=True))
    dispatches = []
    for span_id in ids:
        start_ns = draw(st.integers(0, 60))
        # small starts and lengths: overlaps, gaps, back-to-back, ties
        length_ns = draw(st.integers(-3 if reversed_ok else 0, 12))
        dispatches.append((
            span_id, start_ns, start_ns + length_ns,
            draw(st.sampled_from(["r0", "r1", "r2"])),
            draw(st.sampled_from(["dense", "sparse"])),
        ))
    return _attribution(dispatches)


class TestChainScanMatchesGraph:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_ticks(reversed_ok=False))
    def test_generated_ticks(self, attribution):
        _assert_matches_oracle(attribution)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_ticks(reversed_ok=True))
    def test_generated_ticks_with_reversed_dispatches(self, attribution):
        _assert_matches_oracle(attribution)

    def test_no_dispatch_is_the_empty_path(self):
        path = _assert_matches_oracle(_attribution([]))
        assert path == {"total_ns": 0, "span_ns": 0, "nodes": [], "edges": []}

    def test_one_dispatch_is_its_own_path(self):
        path = _assert_matches_oracle(_attribution([(7, 3, 10, "r0", "dense")]))
        assert [node["key"] for node in path["nodes"]] == ["tick:00000007"]
        assert (path["total_ns"], path["span_ns"], path["edges"]) == (7, 7, [])

    def test_overlap_breaks_a_replica_chain(self):
        path = _assert_matches_oracle(_attribution([
            (0, 0, 10, "r0", "dense"),
            (1, 5, 12, "r0", "sparse"),  # starts before 0 ends
            (2, 12, 20, "r0", "sparse"),
            (3, 0, 9, "r1", "dense"),
        ]))
        assert [node["key"] for node in path["nodes"]] == [
            "tick:00000001", "tick:00000002",
        ]
        assert path["total_ns"] == 15
        assert path["edges"] == [
            {"from": "tick:00000001", "to": "tick:00000002", "slack_ns": 0},
        ]

    def test_zero_length_dispatches_chain(self):
        path = _assert_matches_oracle(_attribution([
            (0, 0, 0, "r0", "dense"),
            (1, 0, 4, "r0", "sparse"),
            (2, 4, 4, "r0", "sparse"),
            (3, 6, 6, "r1", "dense"),
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
        path = _assert_matches_oracle(_attribution([
            (first, 0, 10, "r0", "dense"),
            (second, 2, 12, "r1", "dense"),
        ]))
        assert [node["key"] for node in path["nodes"]] == [winner]

    def test_a_reversed_dispatch_raises(self):
        attribution = _attribution([
            (0, 0, 10, "r0", "dense"),
            (1, 20, 15, "r1", "sparse"),
        ])
        with pytest.raises(ValueError, match="ends at 15 before start 20"):
            build_critical_path(attribution)
        _assert_matches_oracle(attribution)

    def test_a_duplicate_span_id_raises(self):
        attribution = _attribution([
            (4, 0, 10, "r0", "dense"),
            (4, 10, 15, "r1", "sparse"),
        ])
        with pytest.raises(ValueError, match="duplicate node key"):
            build_critical_path(attribution)
        _assert_matches_oracle(attribution)

    @pytest.mark.parametrize("seed", [11, 47])
    def test_fleet_traces(self, seed):
        trace = synthesize_trace(
            MMPPProcess(15.0, 60.0, mean_dwell_s=2.0), 100,
            WorkloadMix(("dit", "mld", "stable_diffusion")), rng=seed,
            deadline_s=3.0,
        )
        observer = Observer()
        simulate_cluster(
            trace, build_replicas(4, accelerator="exion24", continuous=True),
            make_router("jsq"), slo=SLOPolicy(latency_target_s=3.0),
            observer=observer,
        )
        attribution = analyze_tracer(observer.tracer).attribution
        path = _assert_matches_oracle(attribution)
        assert len(path["nodes"]) > 1
