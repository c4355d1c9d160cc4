"""Max-flow on small dense networks, for transportation couplings.

Dinic's algorithm over an adjacency-list residual graph.  Capacities may be
floats or exact ``Fraction`` values; the float mode treats residuals at or
below ``FLOAT_CUTOFF`` as absent so rounding noise cannot produce endless
hairline augmentations.

Each phase labels node levels by one breadth-first scan of the live residual
edges.  A depth-first walk then augments along level-increasing live edges,
scanning each node's edges in adjacency order from a current arc that only
moves forward; a node with no way on leaves the level graph, and the walk
retreats to its parent and advances the parent's arc.

The walk augments exactly the FIFO Edmonds-Karp paths, in the same order and
with the same bottlenecks, so residuals and totals match it bit for bit: at a
given level, breadth-first order is the lexicographic order of tree paths (by
adjacency position), so the first level path found is the breadth-first tree
path, and new reverse edges point back a level, so within a phase the next
shortest path lies in the same level graph.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

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

    def _nodes(self, nodes) -> list[int]:
        """``nodes`` as indices of this network, range-checked at once; ValueError naming a bad one."""
        ids = np.asarray(nodes)
        if ids.dtype.kind in "iu" and (not ids.size or 0 <= ids.min() and ids.max() < self.n_nodes):
            return ids.tolist()
        return [self._node(node) for node in nodes]  # raises at the first bad id

    def add_edges(self, tails, heads, capacities) -> range:
        """Directed edges ``tails[i] -> heads[i]`` of capacity ``capacities[i]``, in that order.

        Returns their ids (each reverse edge is id ^ 1).  The node ids and
        capacities are all checked before the network changes.
        """
        tails, heads, capacities = self._nodes(tails), self._nodes(heads), list(capacities)
        if not len(tails) == len(heads) == len(capacities):
            raise ValueError("tails, heads and capacities must have the same length")
        if any(c < 0 for c in capacities):
            raise ValueError("capacity must be >= 0")
        first = len(self.to)
        self.to.extend(itertools.chain.from_iterable(zip(heads, tails)))
        # each reverse edge starts empty, with its forward edge's type
        self.cap.extend(itertools.chain.from_iterable((c, c * 0) for c in capacities))
        ids = range(first, len(self.to), 2)
        for eid, u, v in zip(ids, tails, heads):
            self.adj[u].append(eid)
            self.adj[v].append(eid + 1)
        return ids

    def add_edge(self, u: int, v: int, capacity) -> int:
        """Directed edge u -> v; returns its id (reverse edge is id ^ 1)."""
        return self.add_edges((u,), (v,), (capacity,))[0]

    def flow_on(self, eid: int):
        """Flow pushed through edge ``eid`` (its reverse edge's residual)."""
        return self.cap[eid + 1]

    def max_flow(self, source: int, sink: int):
        """Total flow from source to sink; exact when capacities are exact."""
        source, sink = self._node(source), self._node(sink)
        if source == sink:
            raise ValueError(f"source and sink are both node {source}")
        to, cap, adj = self.to, self.cap, self.adj
        eps = FLOAT_CUTOFF if any(isinstance(c, float) for c in cap) else 0
        total = 0
        while True:
            level = [-1] * self.n_nodes
            level[source] = 0
            queue = [source]
            for u in queue:  # grows as it is scanned
                if level[sink] >= 0:
                    break
                for eid in adj[u]:
                    v = to[eid]
                    if level[v] < 0 and cap[eid] > eps:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[sink] < 0:
                return total
            arc, path, u = [0] * self.n_nodes, [], source  # path: edge ids from the source to u
            while True:
                if u == sink:
                    # read from the sink back, as Edmonds-Karp does, so a tie keeps its type
                    bottleneck = min(cap[eid] for eid in reversed(path))
                    for eid in path:
                        cap[eid] -= bottleneck
                        cap[eid ^ 1] += bottleneck
                    total += bottleneck
                    k = next(i for i, eid in enumerate(path) if cap[eid] <= eps)
                    u = to[path[k] ^ 1]  # the first emptied edge's tail, never the sink
                    del path[k:]
                edges, i, up = adj[u], arc[u], level[u] + 1
                while i < len(edges) and (level[to[edges[i]]] != up or cap[edges[i]] <= eps):
                    i += 1
                arc[u] = i
                if i < len(edges):
                    path.append(edges[i])
                    u = to[edges[i]]
                elif u == source:
                    break
                else:
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                    arc[u] += 1
