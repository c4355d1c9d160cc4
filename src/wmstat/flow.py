"""Max-flow on small dense networks, for transportation couplings.

Edmonds-Karp (shortest augmenting paths) over an adjacency-list residual
graph.  Capacities may be floats or exact ``Fraction`` values; the float mode
treats residuals at or below ``FLOAT_CUTOFF`` as absent so rounding noise
cannot produce endless hairline augmentations.
"""

from __future__ import annotations

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

    def add_edge(self, u: int, v: int, capacity) -> int:
        """Directed edge u -> v; returns its id (reverse edge is id ^ 1)."""
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
        exact = not any(isinstance(c, float) for c in self.cap)
        eps = 0 if exact else FLOAT_CUTOFF
        total = 0
        while True:
            parent_edge = [-1] * self.n_nodes
            parent_edge[source] = -2
            queue = deque([source])
            while queue and parent_edge[sink] == -1:
                u = queue.popleft()
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if parent_edge[v] == -1 and self.cap[eid] > eps:
                        parent_edge[v] = eid
                        queue.append(v)
            if parent_edge[sink] == -1:
                return total
            bottleneck = None
            v = sink
            while v != source:
                eid = parent_edge[v]
                bottleneck = self.cap[eid] if bottleneck is None else min(bottleneck, self.cap[eid])
                v = self.to[eid ^ 1]
            v = sink
            while v != source:
                eid = parent_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            total += bottleneck
