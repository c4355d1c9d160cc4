"""Max-flow on small dense networks, for transportation couplings.

Edmonds-Karp (shortest augmenting paths) over an adjacency-list residual
graph.  Capacities may be floats or exact ``Fraction`` values; the float mode
treats residuals at or below ``FLOAT_CUTOFF`` as absent so rounding noise
cannot produce endless hairline augmentations.

Each search is a FIFO breadth-first scan that stops as soon as it discovers a
node with a live edge into the sink (the source is checked before the scan).
A ``live`` flag per edge (residual above the cutoff) and each node's first
live edge into the sink are kept in step with the capacities, updated only
along each augmenting path, so the scan never compares capacities.  Stopping
at discovery rather than at dequeue keeps the augmenting path: dequeue order
equals discovery order and a node's parent edge is fixed when it is
discovered, so the sink's parent is the first discovered node with a live
sink edge, through its first such edge in adjacency order, whichever of the
two times the scan stops.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field

FLOAT_CUTOFF = 1e-12


@dataclass
class FlowNetwork:
    n_nodes: int
    to: list = field(init=False, default_factory=list)
    cap: list = field(init=False, default_factory=list)
    adj: list = field(init=False)

    def __post_init__(self):
        self.adj = [[] for _ in range(self.n_nodes)]

    def _node(self, node) -> int:
        """``node`` as an index of this network; ValueError naming it otherwise."""
        try:
            index = operator.index(node)
        except TypeError:
            raise ValueError(f"node id {node!r} is not an integer") from None
        if not 0 <= index < self.n_nodes:
            raise ValueError(f"node id {node} outside 0..{self.n_nodes - 1}")
        return index

    def add_edge(self, u: int, v: int, capacity) -> int:
        """Directed edge u -> v; returns its id (reverse edge is id ^ 1)."""
        u, v = self._node(u), self._node(v)
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        eid = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, capacity * 0))  # reverse starts empty, same type
        self.adj[u].append(eid)
        self.adj[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int):
        """Flow pushed through edge ``eid`` (its reverse edge's residual)."""
        return self.cap[eid + 1]

    def max_flow(self, source: int, sink: int):
        """Total flow from source to sink; exact when capacities are exact."""
        source, sink = self._node(source), self._node(sink)
        if source == sink:
            raise ValueError(f"source and sink are both node {source}")
        to, cap, adj = self.to, self.cap, self.adj
        exact = not any(isinstance(c, float) for c in cap)
        eps = 0 if exact else FLOAT_CUTOFF
        live = [c > eps for c in cap]
        into_sink = [[eid for eid in edges if to[eid] == sink] for edges in adj]

        def first_live(u: int) -> int:
            """u's first live edge into the sink, in adjacency order, or -1."""
            return next((eid for eid in into_sink[u] if live[eid]), -1)

        sink_edge = [first_live(u) for u in range(self.n_nodes)]
        total = 0
        while True:
            parent_edge = [-1] * self.n_nodes
            parent_edge[source] = -2
            last = sink_edge[source]
            queue = deque([source])
            while last < 0 and queue:
                for eid in adj[queue.popleft()]:
                    v = to[eid]
                    if parent_edge[v] == -1 and live[eid]:
                        parent_edge[v] = eid
                        last = sink_edge[v]
                        if last >= 0:
                            break
                        queue.append(v)
            if last < 0:
                return total
            parent_edge[sink] = last
            bottleneck = None
            v = sink
            while v != source:
                eid = parent_edge[v]
                bottleneck = cap[eid] if bottleneck is None else min(bottleneck, cap[eid])
                v = to[eid ^ 1]
            v = sink
            while v != source:
                eid = parent_edge[v]
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
                live[eid] = cap[eid] > eps
                live[eid ^ 1] = cap[eid ^ 1] > eps
                v = to[eid ^ 1]
            # the path meets the sink only through its last edge
            u = to[last ^ 1]
            sink_edge[u] = first_live(u)
            total += bottleneck
