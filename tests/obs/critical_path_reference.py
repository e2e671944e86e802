"""Critical-path extraction over span DAGs (classic CPM, integer ns).

The reference ``repro.obs.analyze.build_critical_path`` is held to: the
general engine it replaced, fed the graph that function describes.

A node is a closed interval; an edge ``u -> v`` asserts that ``v``
could not start before ``u`` finished (``v.start_ns >= u.end_ns`` —
validated, because an edge violating it would let the "longest path"
exceed physical time). The critical path is the dependency chain with
the largest summed node duration; per-edge **slack** is the idle gap
``v.start_ns - u.end_ns`` — how much the predecessor could slip without
moving its successor.

Everything is deterministic: the topological order is Kahn's
algorithm popping the smallest ready key, a tie between a node's
predecessors goes to the one popped first (not always the smaller
key), and the path ends at the first maximum in key order.

Singleton nodes are candidate paths too, which gives the two properties
the hypothesis suite checks: the reported length is at least any single
span's duration, and (since consecutive path nodes never overlap) at
most the total extent of the trace.

The DP runs on node positions in key order — integer arrays, an
integer heap — so a graph of one node per span costs no object per
node; :class:`CPNode` is built for the reported chain only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Tuple


class CPNode(NamedTuple):
    """One interval in the dependency graph."""

    key: str
    start_ns: int
    end_ns: int
    label: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class CriticalPath:
    """The longest chain and its per-edge slack."""

    total_ns: int = 0
    nodes: list = field(default_factory=list)  # CPNode, chain order
    edges: list = field(default_factory=list)  # {"from","to","slack_ns"}
    #: Full extent of the analyzed graph (max end - min start): the
    #: upper bound any valid critical path must respect.
    span_ns: int = 0

    def to_dict(self) -> dict:
        return {
            "total_ns": self.total_ns,
            "span_ns": self.span_ns,
            "nodes": [
                {
                    "key": n.key,
                    "label": n.label,
                    "start_ns": n.start_ns,
                    "end_ns": n.end_ns,
                    "duration_ns": n.duration_ns,
                }
                for n in self.nodes
            ],
            "edges": list(self.edges),
        }


def critical_path(
    nodes: Iterable[CPNode],
    edges: Iterable[Tuple[str, str]],
) -> CriticalPath:
    """Longest chain (by summed duration) through an interval DAG.

    ``nodes`` are :class:`CPNode` s or plain ``(key, start_ns, end_ns,
    label)`` tuples. ``edges`` are ``(from_key, to_key)`` pairs; every
    edge must respect time (``to.start_ns >= from.end_ns``) and
    reference known keys. Duplicate edges are collapsed. Raises
    :class:`ValueError` on violations — a malformed graph must fail
    loudly, not produce a plausible-looking wrong answer.
    """
    # Position = rank in key order, so the integer heap pops keys in
    # key order and the first maximum is the smallest key.
    rows = sorted(nodes)
    keys = [row[0] for row in rows]
    starts = [row[1] for row in rows]
    ends = [row[2] for row in rows]
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(keys):
        duplicate = next(a for a, b in zip(keys, keys[1:]) if a == b)
        raise ValueError(f"duplicate node key {duplicate!r}")
    for key, start_ns, end_ns in zip(keys, starts, ends):
        if end_ns < start_ns:
            raise ValueError(
                f"node {key!r} ends at {end_ns} before start {start_ns}"
            )
    if not keys:
        return CriticalPath()

    successors: list = [[] for _ in keys]
    indegree = [0] * len(keys)
    for u, v in set(edges):
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
        i, j = index[u], index[v]
        if starts[j] < ends[i]:
            raise ValueError(
                f"edge ({u!r}, {v!r}) violates time: successor starts at "
                f"{starts[j]} before predecessor end {ends[i]}"
            )
        successors[i].append(j)
        indegree[j] += 1

    # Kahn's algorithm with a min-heap on key: deterministic topo order.
    ready = [i for i, degree in enumerate(indegree) if degree == 0]
    total = [0] * len(keys)  # longest chain ending at each node
    incoming = [-1] * len(keys)  # best predecessor's total, -1 for none
    previous = [-1] * len(keys)  # that predecessor, -1 for none
    popped = 0
    while ready:
        i = heapq.heappop(ready)
        popped += 1
        total[i] = max(incoming[i], 0) + ends[i] - starts[i]
        for j in successors[i]:
            # Strictly-greater keeps the first winner popped on ties,
            # which makes the reported path deterministic.
            if total[i] > incoming[j]:
                incoming[j] = total[i]
                previous[j] = i
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    if popped != len(keys):
        raise ValueError("dependency graph contains a cycle")

    best = max(total)
    cursor = total.index(best)
    chain = []
    while cursor != -1:
        chain.append(CPNode._make(rows[cursor]))
        cursor = previous[cursor]
    chain.reverse()

    path_edges = [
        {
            "from": u.key,
            "to": v.key,
            "slack_ns": v.start_ns - u.end_ns,
        }
        for u, v in zip(chain, chain[1:])
    ]
    return CriticalPath(
        total_ns=best,
        nodes=chain,
        edges=path_edges,
        span_ns=max(ends) - min(starts),
    )


__all__ = ["CPNode", "CriticalPath", "critical_path"]
