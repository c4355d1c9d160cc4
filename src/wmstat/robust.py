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

from .dist import DiscreteDist, ResourceLimit, _check_alpha, parse_field, read_records
from .simplex import LpProblem, LpSolution, simplex_solve
from .ump import EMPTY_REGION, Coupling, Region

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

    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Predecessor lists, by transposing the successor lists."""
        preds: list[list[int]] = [[] for _ in range(self.n)]
        for u, row in enumerate(self.out_adj):
            for v in row:
                preds[v].append(u)
        return tuple(tuple(sorted(p)) for p in preds)

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
    records = read_records(path)
    if not records:
        raise ValueError(f"graph file {path} is empty; expected 'vertices N' first")
    line, head = records[0]
    if len(head) != 2 or head[0] != "vertices":
        raise ValueError(f"first line must be 'vertices N', got {' '.join(head)!r}")
    n = parse_field(int, head[1], path, line)
    edges = []
    for line, parts in records[1:]:
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' pair, got {' '.join(parts)!r}")
        edges.append(tuple(parse_field(int, part, path, line) for part in parts))
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
    and includes self-loops (distance 0).
    """
    n_vertices = k**n
    if n_vertices > MAX_HAMMING_VERTICES:
        raise ResourceLimit(f"{n_vertices} vertices exceed cap {MAX_HAMMING_VERTICES}")
    strings = list(itertools.product(range(k), repeat=n))
    rows = []
    for u, su in enumerate(strings):
        row = [
            v
            for v, sv in enumerate(strings)
            if sum(a != b for a, b in zip(su, sv)) <= c
        ]
        rows.append(tuple(row))
    return PerturbationGraph(out_adj=tuple(rows))


def shrinkage(graph: PerturbationGraph, region: Region) -> Region:
    """Outcomes whose every possible perturbation stays inside the region."""
    inside = set(region.members)
    return Region.of(
        x for x in range(graph.n) if all(w in inside for w in graph.out(x))
    )


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
    which reports both readings).
    """
    if rho.k != graph.n:
        raise ValueError(f"distribution has {rho.k} outcomes, graph has {graph.n}")
    _check_alpha(alpha)
    probs = rho.as_floats()
    n = graph.n
    constraints = []
    for z, preds in enumerate(graph.in_adj()):
        row = [0.0] * n
        for y in preds:
            row[y] = probs[y]
        constraints.append((tuple(row), alpha))
    if include_sum_row:
        constraints.append(((1.0,) * n, 1.0))
    return LpProblem(
        objective=tuple(probs),
        constraints=tuple(constraints),
        bounds=((0.0, 1.0),) * n,
    )


def robust_optimal_type2(
    rho: DiscreteDist,
    alpha: float,
    graph: PerturbationGraph,
    include_sum_row: bool = False,
) -> tuple[float, LpSolution]:
    """Optimal robust miss probability and the LP solution achieving it."""
    problem = robust_lp_build(rho, alpha, graph, include_sum_row)
    solution = simplex_solve(problem)
    if solution.status != "optimal":
        raise AssertionError(f"robust LP unexpectedly {solution.status}")
    return 1.0 - float(solution.objective), solution


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
    atoms: list[tuple[int, Region, float]] = []
    for y in range(graph.n):
        hit = probs[y] * solution.x[y]
        miss = probs[y] - hit
        if hit > 0.0:
            atoms.append((y, Region.of(graph.out(y)), hit))
        if miss > 0.0:
            atoms.append((y, EMPTY_REGION, miss))
    return Coupling(atoms=tuple(atoms), k=rho.k)


def robust_type2_exact(coupling: Coupling, graph: PerturbationGraph) -> float:
    """Miss probability against an adversary who may apply any allowed edit.

    An atom is missed as soon as some successor of its outcome escapes the
    region (equivalently, the outcome falls outside the region's shrinkage).
    """
    if coupling.k != graph.n:
        raise ValueError(f"coupling has {coupling.k} outcomes, graph has {graph.n}")
    missed = []
    for x, region, w in coupling.atoms:
        inside = set(region.members)
        if any(y not in inside for y in graph.out(x)):
            missed.append(w)
    return math.fsum(missed)
