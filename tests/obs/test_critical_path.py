"""The reference CPM engine: synthetic DAGs plus property checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critical_path_reference import CPNode, critical_path


def _node(key, start, end, label=""):
    return CPNode(key=key, start_ns=start, end_ns=end, label=label)


class TestChains:
    def test_single_node_is_its_own_path(self):
        path = critical_path([_node("a", 0, 30)], [])
        assert path.total_ns == 30
        assert [n.key for n in path.nodes] == ["a"]
        assert path.edges == []
        assert path.span_ns == 30

    def test_linear_chain_sums_durations_and_slack(self):
        nodes = [
            _node("a", 0, 10),
            _node("b", 15, 25),
            _node("c", 25, 40),
        ]
        path = critical_path(nodes, [("a", "b"), ("b", "c")])
        assert path.total_ns == 10 + 10 + 15
        assert [n.key for n in path.nodes] == ["a", "b", "c"]
        assert [e["slack_ns"] for e in path.edges] == [5, 0]

    def test_empty_graph(self):
        path = critical_path([], [])
        assert path.total_ns == 0
        assert path.nodes == []


class TestDiamond:
    def test_longer_arm_wins(self):
        nodes = [
            _node("src", 0, 10),
            _node("fast", 10, 15),
            _node("slow", 10, 40),
            _node("sink", 40, 50),
        ]
        edges = [
            ("src", "fast"), ("src", "slow"),
            ("fast", "sink"), ("slow", "sink"),
        ]
        path = critical_path(nodes, edges)
        assert [n.key for n in path.nodes] == ["src", "slow", "sink"]
        assert path.total_ns == 10 + 30 + 10

    def test_equal_arms_tie_break_deterministically(self):
        nodes = [
            _node("src", 0, 10),
            _node("armA", 10, 20),
            _node("armB", 10, 20),
            _node("sink", 20, 30),
        ]
        edges = [
            ("src", "armA"), ("src", "armB"),
            ("armA", "sink"), ("armB", "sink"),
        ]
        path = critical_path(nodes, edges)
        # Both arms pop in key order: the first popped wins the tie.
        assert [n.key for n in path.nodes] == ["src", "armA", "sink"]

    def test_a_tie_goes_to_the_first_popped_not_the_smaller_key(self):
        nodes = [
            _node("m", 0, 5),
            _node("a", 5, 10),  # ready only once "m" pops, after "b"
            _node("b", 0, 10),
            _node("z", 10, 20),
        ]
        path = critical_path(nodes, [("m", "a"), ("a", "z"), ("b", "z")])
        assert [n.key for n in path.nodes] == ["b", "z"]
        assert path.total_ns == 20


class TestFanOut:
    def test_widest_leaf_terminates_the_path(self):
        nodes = [_node("root", 0, 5)] + [
            _node(f"leaf{i}", 5, 5 + 10 * (i + 1)) for i in range(3)
        ]
        edges = [("root", f"leaf{i}") for i in range(3)]
        path = critical_path(nodes, edges)
        assert [n.key for n in path.nodes] == ["root", "leaf2"]
        assert path.total_ns == 5 + 30

    def test_disconnected_long_singleton_beats_short_chain(self):
        nodes = [
            _node("a", 0, 10),
            _node("b", 10, 20),
            _node("island", 100, 200),
        ]
        path = critical_path(nodes, [("a", "b")])
        assert [n.key for n in path.nodes] == ["island"]
        assert path.total_ns == 100


class TestValidation:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            critical_path([_node("a", 0, 1), _node("a", 1, 2)], [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            critical_path([_node("a", 0, 1)], [("a", "ghost")])

    def test_time_violating_edge_rejected(self):
        nodes = [_node("a", 0, 10), _node("b", 5, 15)]
        with pytest.raises(ValueError, match="violates time"):
            critical_path(nodes, [("a", "b")])

    def test_cycle_rejected(self):
        nodes = [_node("a", 0, 0), _node("b", 0, 0)]
        with pytest.raises(ValueError, match="cycle"):
            critical_path(nodes, [("a", "b"), ("b", "a")])

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="before start"):
            critical_path([_node("x", 10, 5)], [])

    def test_plain_tuples_are_nodes_and_only_the_chain_is_built(self):
        path = critical_path([("b", 15, 25, "B"), ("a", 0, 10, "A")],
                             [("a", "b"), ("a", "b")])  # duplicate edge
        assert path.nodes == [CPNode("a", 0, 10, "A"), CPNode("b", 15, 25, "B")]
        assert all(type(n) is CPNode for n in path.nodes)


@st.composite
def interval_dags(draw):
    """Random interval DAG: nodes on an integer timeline, edges only
    where time allows them (successor starts at/after predecessor end)."""
    count = draw(st.integers(min_value=1, max_value=8))
    nodes = []
    for i in range(count):
        start = draw(st.integers(min_value=0, max_value=500))
        length = draw(st.integers(min_value=0, max_value=200))
        nodes.append(_node(f"n{i:02d}", start, start + length))
    edges = []
    for u in nodes:
        for v in nodes:
            if u.key < v.key and v.start_ns >= u.end_ns:
                if draw(st.booleans()):
                    edges.append((u.key, v.key))
    return nodes, edges


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(interval_dags())
    def test_path_bounded_by_trace_extent_and_any_span(self, dag):
        nodes, edges = dag
        path = critical_path(nodes, edges)
        # At least any single node's duration (singletons are paths).
        assert path.total_ns >= max(n.duration_ns for n in nodes)
        # At most the full trace extent: chained nodes never overlap.
        assert path.total_ns <= path.span_ns
        # The reported chain is consistent: sums match, edges respect
        # time, and slack is the literal idle gap.
        assert path.total_ns == sum(n.duration_ns for n in path.nodes)
        for u, v, edge in zip(
            path.nodes, path.nodes[1:], path.edges
        ):
            assert v.start_ns >= u.end_ns
            assert edge["slack_ns"] == v.start_ns - u.end_ns

    @settings(max_examples=40, deadline=None)
    @given(interval_dags())
    def test_deterministic_across_input_order(self, dag):
        nodes, edges = dag
        forward = critical_path(nodes, edges)
        backward = critical_path(
            list(reversed(nodes)), list(reversed(edges))
        )
        assert forward.to_dict() == backward.to_dict()
