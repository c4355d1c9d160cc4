"""Watermarking that survives adversarial output edits.

Allowed edits form a directed graph with self-loops over outcomes; the
adversary may replace an output by any successor.  A region then only counts
as detecting x if every successor of x stays inside it, which turns the
optimal-coupling problem into a small linear program over per-outcome
acceptance levels.  This module builds perturbation graphs (including the
bounded-Hamming-distance family over token strings), the LP, the optimal
robust coupling, and the exact adversarial miss probability of any coupling.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dist import DiscreteDist, ResourceLimit, _check_alpha, _check_int, parse_field, read_table
from .simplex import LpProblem, LpSolution, simplex_solve
from .ump import Coupling, Region

MAX_HAMMING_VERTICES = 10_000


@dataclass(frozen=True)
class PerturbationGraph:
    """Directed edit graph over outcomes; every vertex keeps a self-loop."""

    out_adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "out_adj", tuple(tuple(row) for row in self.out_adj))
        n = len(self.out_adj)
        for v, row in enumerate(self.out_adj):
            if list(row) != sorted(set(row)):
                raise ValueError(f"successors of {v} must be sorted and duplicate-free")
            if any(not 0 <= w < n for w in row):
                raise ValueError(f"successor out of range for vertex {v}")
            if v not in row:
                raise ValueError(f"vertex {v} is missing its self-loop")

    @property
    def n(self) -> int:
        return len(self.out_adj)

    def out(self, v: int) -> tuple[int, ...]:
        return self.out_adj[v]

    @classmethod
    def from_edges(cls, n: int, edges) -> "PerturbationGraph":
        """Graph from (u, v) edges; every vertex's self-loop is added."""
        rows: list[set[int]] = [{v} for v in range(n)]
        for u, v in edges:
            if not 0 <= u < n:
                raise ValueError(f"edge source {u} outside 0..{n - 1}")
            rows[u].add(v)
        return cls(out_adj=tuple(tuple(sorted(r)) for r in rows))

    @classmethod
    def self_loops_only(cls, n: int) -> "PerturbationGraph":
        return cls(out_adj=tuple((v,) for v in range(n)))

    @classmethod
    def complete(cls, n: int) -> "PerturbationGraph":
        full = tuple(range(n))
        return cls(out_adj=(full,) * n)


def load_graph(path: str | Path) -> PerturbationGraph:
    """Read a graph from a text file: 'vertices N' then one 'u v' per line.

    Self-loops are added with a warning when the file omits them.
    """

    def parse_edge(n: int, parts: list[str]) -> tuple[int, ...]:
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' pair, got {' '.join(parts)!r}")
        edge = tuple(parse_field(int, part) for part in parts)
        if bad := [v for v in edge if not 0 <= v < n]:
            raise ValueError(f"vertex {bad[0]} outside 0..{n - 1}")
        return edge

    n, edges = read_table(path, "graph", "vertices", 1, parse_edge)
    missing = set(range(n)) - {u for u, v in edges if u == v}
    if missing:
        warnings.warn(
            f"graph file omits self-loops on {len(missing)} vertices; adding them",
            stacklevel=2,
        )
    return PerturbationGraph.from_edges(n, edges)


def hamming_graph(k: int, n: int, c: int) -> PerturbationGraph:
    """Edits of length-n strings over k symbols changing at most c positions.

    Vertices are all strings in lexicographic order; the graph is symmetric
    and includes self-loops (distance 0).  Each set of at most c positions
    and nonzero shift of their symbols (mod k) gives each vertex one distinct
    neighbour, found from its index by place-value arithmetic.
    """
    _check_int(k=k, n=n, c=c)
    if k < 1 or n < 0 or c < 0:
        raise ValueError(f"need k >= 1, n >= 0 and c >= 0, got k={k}, n={n}, c={c}")
    n_vertices = k**n
    if n_vertices > MAX_HAMMING_VERTICES:
        raise ResourceLimit(f"{n_vertices} vertices exceed cap {MAX_HAMMING_VERTICES}")
    index = np.arange(n_vertices)
    place = k ** np.arange(n - 1, -1, -1)
    digits = index[:, None] // place % k  # [k**n, n]; n = 0 keeps one empty string
    step = lambda i, s: ((digits[:, i] + s) % k - digits[:, i]) * place[i]  # shift position i by s
    neighbours = [
        index + sum(step(i, s) for i, s in zip(positions, shift))
        for size in range(min(c, n) + 1)
        for positions in itertools.combinations(range(n), size)
        for shift in itertools.product(range(1, k), repeat=size)
    ]
    out_adj = np.sort(np.stack(neighbours, axis=1)).tolist()
    return PerturbationGraph(out_adj=tuple(map(tuple, out_adj)))


def shrinkage(graph: PerturbationGraph, region: Region) -> Region:
    """Outcomes whose every possible perturbation stays inside the region."""
    inside = set(region.members)
    return Region.of(x for x in range(graph.n) if inside.issuperset(graph.out(x)))


def robust_lp_build(
    rho: DiscreteDist,
    alpha: float,
    graph: PerturbationGraph,
    include_sum_row: bool = False,
) -> LpProblem:
    """LP over per-outcome acceptance levels x(y) in [0,1].

    Maximizes the detected mass subject to, for every outcome z, the total
    accepted mass of z's predecessors staying within alpha.  The optimal
    robust Type II error is 1 minus the optimum.  ``include_sum_row`` adds
    the extra row sum(x) <= 1; with it, self-loops-only graphs no longer
    reduce to the unperturbed optimum, so it is off by default (see the CLI,
    which reports both readings).  The rows are views of one read-only matrix.
    """
    if rho.k != graph.n:
        raise ValueError(f"distribution has {rho.k} outcomes, graph has {graph.n}")
    _check_alpha(alpha)
    probs, n = rho.as_floats(), graph.n
    # row z holds p_y in column y for every edge y -> z; the sum row is all ones
    sources = np.repeat(np.arange(n), [len(successors) for successors in graph.out_adj])
    targets = np.fromiter(itertools.chain.from_iterable(graph.out_adj), np.intp, len(sources))
    a = np.zeros((n + bool(include_sum_row), n))
    a[targets, sources] = np.array(probs)[sources]
    a[n:] = 1.0
    a.flags.writeable = False
    rhs = (alpha,) * n + (1.0,) * (len(a) - n)
    return LpProblem(probs, tuple(zip(a, rhs)), bounds=((0.0, 1.0),) * n)


def robust_optimal_type2(
    rho: DiscreteDist,
    alpha: float,
    graph: PerturbationGraph,
    include_sum_row: bool = False,
) -> tuple[float, LpSolution]:
    """Optimal robust miss probability and the LP solution achieving it."""
    solution = simplex_solve(robust_lp_build(rho, alpha, graph, include_sum_row))
    return max(1.0 - float(solution.objective), 0.0), solution  # rounding can pass 0


def robust_ump_coupling(
    rho: DiscreteDist, alpha: float, graph: PerturbationGraph
) -> Coupling:
    """Optimal robust coupling from the LP solution.

    Outcome y is paired with the region out(y) (the minimal region whose
    shrinkage contains y) with probability x*(y), and with the empty region
    otherwise.  Zero-weight atoms are omitted.
    """
    _, solution = robust_optimal_type2(rho, alpha, graph)
    probs = rho.as_floats()
    return Coupling.from_hits(
        probs,
        [p * x for p, x in zip(probs, solution.x)],
        [Region.of(graph.out(y)) for y in range(graph.n)],
    )


def robust_type2_exact(coupling: Coupling, graph: PerturbationGraph) -> float:
    """Miss probability against an adversary who may apply any allowed edit.

    An atom is missed as soon as some successor of its outcome escapes the
    region (equivalently, the outcome falls outside the region's shrinkage).
    """
    if coupling.k != graph.n:
        raise ValueError(f"coupling has {coupling.k} outcomes, graph has {graph.n}")
    return math.fsum(
        w for x, region, w in coupling.atoms if not set(region.members).issuperset(graph.out(x))
    )
