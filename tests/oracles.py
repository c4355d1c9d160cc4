"""Independent oracles the tests check library results against.

Everything here is deliberately brute force: Pascal's recurrence, exhaustive
vertex enumeration, a simplex that pivots on ``Fraction`` entries, grid
search over perturbation balls, pairwise Hamming scans, an edge-by-edge
fill of the robust LP's rows, exact-rational
re-summation, one-token-at-a-time samplers, a max-flow search that scans
until it dequeues a node next to the sink.  None of it
shares code paths with the library, except that ``max_flow_fifo`` works on a
``FlowNetwork``'s edge lists with the library's float cutoff, ``ump_oracle``
solves its exhaustive LP with the library's simplex (itself checked against
``vertex_enumeration_optimum``), ``simplex_explicit`` pivots with the
library's float tolerance, ``max_type2_loss_telescoping`` validates its
input with ``integrality_check``, ``srl_type1_exact`` takes the detector's
threshold from ``binomial_reject_threshold``, ``type2_product_mc_blocks``
reads the library's block size ``rates.MC_BLOCK``, and the per-token scheme
loops take their stream domains from the schemes.
The loops draw every keyed stream, trial keys, green masks and ITS resamples
included, from one ``substream`` per key, where the schemes draw a block's
streams through ``substreams``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction

import numpy as np

from wmstat import rates
from wmstat import schemes as sch
from wmstat.agnostic import integrality_check
from wmstat.dist import DiscreteDist, ResourceLimit
from wmstat.flow import FLOAT_CUTOFF, FlowNetwork
from wmstat.lm import ToyLM
from wmstat.simplex import FLOAT_TOL, LpProblem, LpSolution, simplex_solve
from wmstat.streams import substream
from wmstat.ump import Region

ORACLE_MAX_OUTCOMES = 4


def pascal_binom(n: int, k: int) -> int:
    """C(n, k) by Pascal's recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def vertex_enumeration_optimum(problem: LpProblem) -> float | None:
    """Optimal value over all basic feasible points, or None if infeasible.

    Every vertex of {Ax <= b, lo <= x <= hi} makes some n constraints tight;
    enumerate all n-subsets of rows (including bound rows), solve, and keep
    feasible solutions.  Only valid for bounded feasible regions.
    """
    n = problem.n_vars
    rows = [(list(coeffs), float(rhs)) for coeffs, rhs in problem.constraints]
    for j, (lo, hi) in enumerate(problem.bounds):
        unit = [0.0] * n
        unit[j] = 1.0
        rows.append((list(unit), float(hi)))
        rows.append(([-v for v in unit], -float(lo)))
    a_full = np.array([r for r, _ in rows])
    b_full = np.array([b for _, b in rows])
    best = None
    c = np.array(problem.objective, dtype=float)
    for subset in itertools.combinations(range(len(rows)), n):
        a = a_full[list(subset)]
        b = b_full[list(subset)]
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.all(a_full @ x <= b_full + 1e-9):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def simplex_rational(problem: LpProblem) -> tuple[LpSolution, int]:
    """Exact-mode simplex pivoting on ``Fraction`` entries; the solution and its tied ratio tests.

    The path ``simplex_solve(problem, exact=True)`` must take.  It uses the
    same tableau: the constraint rows, one ``x_j <= hi_j`` row per variable,
    then the objective's reduced costs; columns are the variables, one slack
    per row and the right-hand side.  It prices by devex: each column has a
    weight w_j, first 1, and the improving column with the largest
    d_j^2 / w_j enters, d_j its reduced cost as the nearest float, ties going
    to the smallest index; after a pivot whose leaving row had right-hand
    side 0, the first improving column enters instead (Bland's rule).  The
    row of minimum ratio leaves, ties going to the smallest basis index.  A
    pivot on row r with q entering raises w_k to (a_rk / a_rq)^2 w_q for each
    nonzero a_rk, the ratio as the nearest float; the leaving variable, whose
    a_rk is 1, gets that value or 1 if larger.  Each pivot divides the pivot
    row by ``Fraction`` arithmetic and clears the column from the other rows.
    The second value counts the pivots whose minimum ratio was attained by
    more than one row.
    """
    n = problem.n_vars
    rows = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in problem.constraints]
    for j, (_, hi) in enumerate(problem.bounds):
        rows.append(([Fraction(int(i == j)) for i in range(n)], Fraction(hi)))
    m = len(rows)
    table = [a + [Fraction(int(i == r)) for i in range(m)] + [b] for r, (a, b) in enumerate(rows)]
    table.append([-Fraction(c) for c in problem.objective] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    weights = [1.0] * (n + m)
    pivots = ties = 0
    zero_step = False
    while improving := [j for j in range(n + m) if table[m][j] < 0]:
        if zero_step:
            col = improving[0]
        else:
            scores = [float(table[m][j]) * float(table[m][j]) / weights[j] for j in improving]
            col = improving[scores.index(max(scores))]
        ratios = {r: table[r][-1] / table[r][col] for r in range(m) if table[r][col] > 0}
        least = min(ratios.values())
        tied = [r for r, ratio in ratios.items() if ratio == least]
        ties += len(tied) > 1
        row = min(tied, key=basis.__getitem__)
        zero_step = table[row][-1] == 0
        w_q = weights[col]
        for k in range(n + m):
            if table[row][k]:
                ratio = float(table[row][k] / table[row][col])
                weights[k] = max(1.0 if k == basis[row] else weights[k], ratio * ratio * w_q)
        table[row] = [v / table[row][col] for v in table[row]]
        for r in range(m + 1):
            f = table[r][col]
            if r != row and f:
                table[r] = [v - f * w for v, w in zip(table[r], table[row])]
        basis[row] = col
        pivots += 1
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = table[r][-1]
    objective = sum(Fraction(c) * v for c, v in zip(problem.objective, x))
    return LpSolution(x=tuple(x), objective=objective, pivots=pivots), ties


def simplex_explicit(problem: LpProblem) -> LpSolution:
    """Float ``simplex_solve`` on a tableau that holds every bound row from the start.

    The reference whose pivots and float bits ``simplex_solve`` must
    reproduce: the constraint rows, one ``x_j <= hi_j`` row per variable, then
    the objective's reduced costs, each pivot dividing the pivot row and
    clearing the column from every other row.  Devex pricing with Bland's
    rule after a zero step, as ``simplex_rational`` describes, with the
    library's tolerance.  (Exact mode's reference is ``simplex_rational``.)
    """
    n, n_rows = problem.n_vars, len(problem.constraints)
    m = n_rows + n
    cost = np.array(problem.objective, dtype=np.float64)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:n_rows, :n] = np.array([row for row, _ in problem.constraints]).reshape(n_rows, n)
    tableau[n_rows + np.arange(n), np.arange(n)] = 1.0
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[:m, -1] = [b for _, b in problem.constraints] + [h for _, h in problem.bounds]
    tableau[m, :n] = -cost
    basis = np.arange(n, n + m)
    weights = np.ones(n + m)
    pivots, zero_step = 0, False
    while len(improving := np.flatnonzero(tableau[m, :-1] < -FLOAT_TOL)):
        if zero_step:
            col = improving[0]
        else:
            d = tableau[m, improving]
            scores = d * d / weights[improving]
            col = improving[np.flatnonzero(scores == scores.max())[0]]
        rows = np.flatnonzero(tableau[:-1, col] > FLOAT_TOL)
        ratios = tableau[rows, -1] / tableau[rows, col]
        ties = rows[ratios == ratios.min()]
        row = ties[np.argmin(basis[ties])]
        zero_step = tableau[row, -1] == 0
        tableau[row] /= tableau[row, col]
        w_q, leaving = weights[col], basis[row]
        for k in np.flatnonzero(tableau[row, :-1]):
            ratio = tableau[row, k]
            weights[k] = max(1.0 if k == leaving else weights[k], ratio * ratio * w_q)
        hit = np.flatnonzero(tableau[:, col])
        hit = hit[hit != row]
        tableau[hit] -= np.outer(tableau[hit, col], tableau[row])
        basis[row] = col
        pivots += 1
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:m, -1][structural]
    return LpSolution(tuple(x.tolist()), float(sum((cost * x).tolist())), pivots=pivots)


def grid_search_distortion(probs, alpha: float, eps: float, step: float = 0.005) -> float:
    """Min clipped surplus over a gridded TV ball around ``probs``.

    Enumerates simplex grid points within TV eps (plus half a step of slack
    for the discretization) and minimizes sum((p - alpha)+) directly.
    """
    k = len(probs)
    if k > 3:
        raise ValueError("grid oracle limited to k <= 3")
    base = np.asarray(probs, dtype=float)
    ticks = int(round(1.0 / step))
    best = math.inf
    if k == 2:
        first = np.arange(ticks + 1) / ticks
        grid = np.stack([first, 1.0 - first], axis=1)
    else:
        pts = []
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                pts.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
        grid = np.array(pts)
    tv = 0.5 * np.abs(grid - base).sum(axis=1)
    ok = grid[tv <= eps + 1e-12]
    surplus = np.clip(ok - alpha, 0.0, None).sum(axis=1)
    best = float(surplus.min())
    return best


def type2_product_rational(probs, n: int, alpha: Fraction) -> Fraction:
    """Exact rational miss probability over all count-vector classes."""
    probs = [Fraction(p) for p in probs]
    alpha = Fraction(alpha)
    k = len(probs)
    total = Fraction(0)

    def visit(idx: int, remaining: int, class_prob: Fraction, mult: int) -> None:
        nonlocal total
        if idx == k - 1:
            class_prob *= probs[idx] ** remaining
            if class_prob > alpha:
                total += mult * (class_prob - alpha)
            return
        for c in range(remaining + 1):
            visit(
                idx + 1,
                remaining - c,
                class_prob * probs[idx] ** c,
                mult * math.comb(remaining, c),
            )

    visit(0, n, Fraction(1), 1)
    return total


def beta_count_vectors_full(rho: DiscreteDist, n: int, alpha: float) -> float:
    """The i.i.d. miss over every count-vector class, bit for bit as the library sums it.

    Visits all C(n+k-1, k-1) classes with the library's float steps in log
    space and sums the terms above alpha with fsum, the reference for the
    pruned walk of ``rates._beta_count_vectors``.
    """
    log_probs = [math.log(float(p)) for p in rho.probs if float(p) > 0.0]
    k = len(log_probs)
    log_alpha = math.log(alpha)
    terms: list[float] = []

    def visit(idx: int, remaining: int, log_class: float, log_mult: float) -> None:
        if idx == k - 1:
            log_class += remaining * log_probs[idx]
            if log_class > log_alpha:
                log_mult -= math.lgamma(remaining + 1)
                terms.append(
                    math.exp(log_mult + log_class) * (-math.expm1(log_alpha - log_class))
                )
            return
        for c in range(remaining + 1):
            visit(idx + 1, remaining - c, log_class + c * log_probs[idx],
                  log_mult - math.lgamma(c + 1))

    visit(0, n, 0.0, math.lgamma(n + 1))
    return math.fsum(terms)


_LOG_FACTORIALS = np.zeros(1)  # log(i!) = math.lgamma(i + 1), i = 0, 1, ...; grown on demand


def _log_factorial_table(n: int) -> np.ndarray:
    """log(i!) for i = 0..n at least, from the oracles' own ``math.lgamma`` table."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= n:
        _LOG_FACTORIALS = np.array([math.lgamma(i + 1) for i in range(2 * n + 1)])
    return _LOG_FACTORIALS


def beta_binomial_full(log_p: float, log_q: float, n: int, log_alpha: float) -> float:
    """Two-outcome specialization: classes indexed by the success count.

    Builds every success count j = 0..n and masks to the classes above
    alpha, the reference for ``rates._beta_binomial``'s cut scan.
    """
    table = _log_factorial_table(n)
    j = np.arange(n + 1)
    log_mult = table[n] - table[j] - table[n - j]
    log_class = (n - j) * log_p + j * log_q
    mask = log_class > log_alpha
    if not mask.any():
        return 0.0
    terms = np.exp(log_mult[mask] + log_class[mask]) * (-np.expm1(log_alpha - log_class[mask]))
    return float(np.sum(terms))


def sample_bisect(d: DiscreteDist, rng: np.random.Generator) -> int:
    """``dist.sample`` by ``bisect_right`` over the float CDF, last entry raised
    to at least 1: the number of entries at or below one uniform."""
    cdf = list(itertools.accumulate(float(p) for p in d.probs))
    cdf[-1] = max(cdf[-1], 1.0)
    return bisect_right(cdf, rng.random())


def sample_many_searchsorted(d: DiscreteDist, rng: np.random.Generator, size: int) -> np.ndarray:
    """``dist.sample_many`` by ``np.searchsorted`` over the float CDF, side right.

    The CDF is the running float sum of the probabilities with its last entry
    raised to at least 1, the library's rule; each uniform maps to the number
    of entries at or below it.
    """
    cdf = np.cumsum([float(p) for p in d.probs])
    cdf[-1] = max(cdf[-1], 1.0)
    return np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64, copy=False)


def type2_product_mc_blocks(
    rho0: DiscreteDist, n: int, alpha: float, samples: int, seed: int
) -> tuple[float, float]:
    """``rates.type2_product_mc`` drawing each block's ``size * n`` tokens at once.

    One ``sample_many_searchsorted`` call per block of ``rates.MC_BLOCK``
    sequences (read at call time), reshaped to ``[size, n]`` and summed by row.
    """
    log_probs = np.array(
        [math.log(float(p)) if float(p) > 0.0 else -math.inf for p in rho0.probs]
    )
    n_blocks = (samples + rates.MC_BLOCK - 1) // rates.MC_BLOCK

    def block_sums(b: int) -> tuple[float, float]:
        size = min(rates.MC_BLOCK, samples - b * rates.MC_BLOCK)
        rng = substream(seed, b)
        draws = sample_many_searchsorted(rho0, rng, size * n).reshape(size, n)
        log_rho = log_probs[draws].sum(axis=1)
        with np.errstate(divide="ignore"):
            vals = np.maximum(1.0 - alpha / np.exp(log_rho), 0.0)
        return math.fsum(vals.tolist()), math.fsum((vals * vals).tolist())

    sums = [block_sums(b) for b in range(n_blocks)]
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(s2 for _, s2 in sums)
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def worst_set_gap_brute(probs, law) -> float:
    """max over all U of rho(U) - P(region hits U), by full enumeration."""
    n = len(probs)
    best = 0.0
    for bits in range(1 << n):
        total = 0.0
        size = 0
        for x in range(n):
            if bits >> x & 1:
                total += float(probs[x])
                size += 1
        best = max(best, total - float(law.hit_probability(size)))
    return best


def worst_set_gap_brute_exact(probs, law) -> Fraction:
    """Exact-rational ``worst_set_gap_brute``: every U, summed in Fractions."""
    n = len(probs)
    hit = [law.hit_probability(u) for u in range(n + 1)]
    best = Fraction(0)
    for bits in range(1 << n):
        total = Fraction(0)
        size = 0
        for x in range(n):
            if bits >> x & 1:
                total += Fraction(probs[x])
                size += 1
        best = max(best, total - hit[size])
    return best


def max_type2_loss_telescoping(n: int, alpha: Fraction) -> Fraction:
    """Worst-case agnostic loss as a telescoping product, for exact cross-checking."""
    m = integrality_check(n, alpha)
    inv = int(1 / Fraction(alpha))
    out = Fraction(1)
    for i in range(inv):
        out *= Fraction(n - m - i, n - i)
        if out == 0:
            break
    return out


def ump_oracle(rho: DiscreteDist, alpha: float) -> float:
    """Exhaustive minimum Type II error over all level-alpha couplings.

    Solves the full LP over conditional region probabilities P(R | x) for
    every region R of a tiny sample space, including the empty region, with
    the per-outcome conditionals constrained to sum to at most 1: the empty
    region absorbs any slack without detecting or rejecting anything, so the
    optimum is that of the exact-sum LP.  Certifies the closed-form optimum
    independently of the coupling construction.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha!r}")
    k = rho.k
    if k > ORACLE_MAX_OUTCOMES:
        raise ValueError(f"oracle limited to k <= {ORACLE_MAX_OUTCOMES}, got {k}")
    probs = rho.as_floats()
    regions = [
        members
        for size in range(0, k + 1)
        for members in itertools.combinations(range(k), size)
    ]
    n_vars = k * len(regions)

    def var(x: int, r: int) -> int:
        return x * len(regions) + r

    objective = [0.0] * n_vars
    for x in range(k):
        for r, members in enumerate(regions):
            if x in members:
                objective[var(x, r)] = probs[x]

    constraints = []
    for x in range(k):  # conditional masses sum to at most 1
        row = [0.0] * n_vars
        for r in range(len(regions)):
            row[var(x, r)] = 1.0
        constraints.append((tuple(row), 1.0))
    for y in range(k):  # point-mass Type I constraint at each outcome
        row = [0.0] * n_vars
        for x in range(k):
            for r, members in enumerate(regions):
                if y in members:
                    row[var(x, r)] = probs[x]
        constraints.append((tuple(row), alpha))

    problem = LpProblem(
        objective=tuple(objective),
        constraints=tuple(constraints),
        bounds=((0.0, 1.0),) * n_vars,
    )
    return 1.0 - simplex_solve(problem).objective


def iid_lm(row: DiscreteDist) -> ToyLM:
    """A model whose initial law and every transition row are ``row``: i.i.d. tokens."""
    return ToyLM(vocab_size=row.k, initial=row, transitions=(row,) * row.k)


def srl_type1_exact(cfg: sch.SoftRedListConfig) -> float:
    """Soft red list Type I: P(Binomial(n, g/V) >= the detector's threshold).

    The key draws each position's green set as a fresh uniform g-subset, apart
    from the text, so on null text each token is green with probability g/V
    independently, whatever the model.  Summed in exact rationals.
    """
    n, g, vocab = cfg.n, cfg.green_size, cfg.vocab_size
    threshold = sch.binomial_reject_threshold(n, g, vocab, cfg.target_alpha)
    green = Fraction(g, vocab)
    return float(
        sum(math.comb(n, j) * green**j * (1 - green) ** (n - j) for j in range(threshold, n + 1))
    )


def ump_type1_iid_exact(row: DiscreteDist, n: int, alpha: float) -> float:
    """UMP-sequence Type I on n i.i.d. tokens of ``row``, in exact rationals.

    The key's sequence X is live with probability min(1, alpha/P(X)), and null
    text equals X with probability P(X), so Type I is the sum over count
    classes of mult * p * min(p, alpha), with p the class's sequence probability.
    """
    probs = [Fraction(float(p)) for p in row.probs]
    level = Fraction(alpha)
    total = Fraction(0)
    for counts in itertools.product(range(n + 1), repeat=len(probs) - 1):
        if sum(counts) > n:
            continue
        counts = (*counts, n - sum(counts))
        mult = math.factorial(n)
        p = Fraction(1)
        for c, q in zip(counts, probs):
            mult //= math.factorial(c)
            p *= q**c
        total += mult * p * min(p, level)
    return float(total)


def hamming_graph_brute(k: int, n: int, c: int) -> tuple[tuple[int, ...], ...]:
    """Successor lists of ``robust.hamming_graph`` by a pairwise string scan."""
    strings = list(itertools.product(range(k), repeat=n))
    return tuple(
        tuple(v for v, sv in enumerate(strings) if sum(a != b for a, b in zip(su, sv)) <= c)
        for su in strings
    )


def robust_lp_rows(rho: DiscreteDist, alpha, graph, include_sum_row: bool = False) -> tuple:
    """Constraint rows of ``robust.robust_lp_build`` as tuples, filled edge by edge.

    Row z holds p_y in column y for every edge y -> z and is bounded by
    alpha; the sum row, when asked for, is n ones bounded by 1.
    """
    probs, n = rho.as_floats(), graph.n
    rows = [[0.0] * n for _ in range(n)]
    for y, successors in enumerate(graph.out_adj):
        for z in successors:
            rows[z][y] = probs[y]
    constraints = [(tuple(row), alpha) for row in rows]
    if include_sum_row:
        constraints.append(((1.0,) * n, 1.0))
    return tuple(constraints)


def random_dist(rng: np.random.Generator, k: int, spread: float = 1.0):
    """Dirichlet-style random probability vector as a plain tuple."""
    w = rng.dirichlet(np.full(k, spread))
    w = w / w.sum()
    return tuple(float(v) for v in w)


def max_flow_fifo(net: FlowNetwork, source: int, sink: int):
    """Edmonds-Karp on ``net`` in place, one FIFO breadth-first search per
    augmenting path, each stopping when it dequeues a node that reaches the sink:
    the path-by-path reference for the level-graph phases of
    ``FlowNetwork.max_flow``, which must augment the same paths in the same order."""
    exact = not any(isinstance(c, float) for c in net.cap)
    eps = 0 if exact else FLOAT_CUTOFF
    total = 0
    while True:
        parent_edge = [-1] * net.n_nodes
        parent_edge[source] = -2
        queue = deque([source])
        while queue and parent_edge[sink] == -1:
            u = queue.popleft()
            for eid in net.adj[u]:
                v = net.to[eid]
                if parent_edge[v] == -1 and net.cap[eid] > eps:
                    parent_edge[v] = eid
                    queue.append(v)
        if parent_edge[sink] == -1:
            return total
        bottleneck = None
        v = sink
        while v != source:
            eid = parent_edge[v]
            bottleneck = net.cap[eid] if bottleneck is None else min(bottleneck, net.cap[eid])
            v = net.to[eid ^ 1]
        v = sink
        while v != source:
            eid = parent_edge[v]
            net.cap[eid] -= bottleneck
            net.cap[eid ^ 1] += bottleneck
            v = net.to[eid ^ 1]
        total += bottleneck


def agnostic_atoms_per_edge(rho: DiscreteDist, law) -> tuple:
    """``build_agnostic_coupling``'s atoms from a network built one ``add_edge`` call at a time.

    The reference for the library's bulk insertion: source -> outcome edges,
    then each subset's pair edges, then subset -> sink edges, one call each,
    a max-flow, and the same northwest-corner completion.
    """
    exact = rho.is_exact
    probs = list(rho.probs) if exact else list(rho.as_floats())
    quota = Fraction(1, law.n_subsets) if exact else 1.0 / law.n_subsets
    big = Fraction(2) if exact else 2.0
    subsets = list(itertools.combinations(range(law.n), law.region_size))
    net = FlowNetwork(n_nodes=2 + law.n + len(subsets))
    source_edges = [net.add_edge(0, 2 + x, probs[x]) for x in range(law.n)]
    pair_edges = {}
    for a, members in enumerate(subsets):
        for x in members:
            pair_edges[(x, a)] = net.add_edge(2 + x, 2 + law.n + a, big)
    sink_edges = [net.add_edge(2 + law.n + a, 1, quota) for a in range(len(subsets))]
    net.max_flow(0, 1)
    flows = [(x, a, f) for (x, a), eid in pair_edges.items() if (f := net.flow_on(eid)) > 0]
    spare = [(a, quota - net.flow_on(eid)) for a, eid in enumerate(sink_edges)]
    spare = [(a, s) for a, s in spare if s > 0]
    for x, eid in enumerate(source_edges):
        d = probs[x] - net.flow_on(eid)
        while d > 0 and spare:
            a, s = spare[0]
            moved = min(d, s)
            flows.append((x, a, moved))
            d, s = d - moved, s - moved
            if s <= 0:
                spare.pop(0)
            else:
                spare[0] = (a, s)
    return tuple((x, Region.of(subsets[a]), m) for x, a, m in sorted(flows))


# ---------------------------------------------------------------------------
# per-token references for the batched sampler: one key, one token at a time


def sample_sequence_loop(lm, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    tokens = []
    prev = None
    for _ in range(n):
        prev = sample_bisect(lm.next_dist(prev), rng)
        tokens.append(prev)
    return tuple(tokens)


def enumerate_sequences(lm, n: int) -> list[tuple[tuple[int, ...], float]]:
    """All (tokens, probability) pairs of length n, extended one token at a time."""
    if lm.vocab_size**n > 1_000_000:
        raise ResourceLimit("sequence space too large to enumerate")
    frontier: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    for _ in range(n):
        nxt = []
        for tokens, prob in frontier:
            row = lm.next_dist(tokens[-1] if tokens else None)
            for tok in range(lm.vocab_size):
                p = float(row.probs[tok])
                if p > 0.0:
                    nxt.append((tokens + (tok,), prob * p))
        frontier = nxt
    return frontier


def sequence_logprob_loop(lm, tokens) -> float:
    log_p = 0.0
    prev = None
    for tok in tokens:
        p = float(lm.next_dist(prev).probs[tok])
        if p <= 0.0:
            return -math.inf
        log_p += math.log(p)
        prev = tok
    return log_p


def its_token(mu, u: float, perm: np.ndarray) -> int:
    """Inverse transform through the CDF taken in permuted rank order."""
    cum = np.cumsum(np.asarray(mu, dtype=float)[perm])
    idx = int(np.searchsorted(cum, u, side="left"))
    return int(perm[min(idx, len(perm) - 1)])


def green_masks(scheme, key, n: int) -> np.ndarray:
    """``[n, V]``: position i marks the first g tokens of the key's i-th partition shuffle."""
    cfg = scheme.cfg
    tiled = np.tile(np.arange(cfg.vocab_size), (n, 1))
    perms = substream(key.seed, sch._D_PARTITION).permuted(tiled, axis=1)
    masks = np.zeros((n, cfg.vocab_size), dtype=bool)
    for i in range(n):
        masks[i, perms[i, : cfg.green_size]] = True
    return masks


def srl_generate_loop(scheme, lm, key) -> tuple[tuple[int, ...], None]:
    cfg = scheme.cfg
    masks = green_masks(scheme, key, cfg.n)
    boost = math.exp(cfg.delta)
    rng = substream(key.seed, sch._D_PROVIDER)
    tokens = []
    prev = None
    for i in range(cfg.n):
        row = np.asarray(lm.next_dist(prev).as_floats())
        cdf = np.cumsum(np.where(masks[i], row * boost, row))
        r = rng.random() * cdf[-1]
        prev = min(int(np.searchsorted(cdf, r, side="right")), lm.vocab_size - 1)
        tokens.append(prev)
    return tuple(tokens), None


def srl_detect_loop(scheme, lm, key, tokens, meta=None) -> tuple[float, bool]:
    cfg = scheme.cfg
    n = len(tokens)
    green = 0
    if n:
        masks = green_masks(scheme, key, n)
        green = int(masks[np.arange(n), np.asarray(tokens)].sum())
    threshold = sch.binomial_reject_threshold(n, cfg.green_size, cfg.vocab_size, cfg.target_alpha)
    return float(green), green >= threshold


def christ_generate_loop(scheme, lm, key) -> tuple[tuple[int, ...], int]:
    cfg = scheme.cfg
    rng_prefix = substream(key.seed, sch._D_PROVIDER)
    rng_u = substream(key.seed, sch._D_CHRIST_U)
    tokens = []
    prev = None
    accrued = 0.0
    start = cfg.n
    for j in range(cfg.n):
        row = lm.next_dist(prev)
        if accrued >= cfg.entropy_threshold:
            start = min(start, j)
            tok = 1 if rng_u.random() <= float(row.probs[1]) else 0
        else:
            tok = sample_bisect(row, rng_prefix)
            accrued += -math.log(float(row.probs[tok]))
        tokens.append(tok)
        prev = tok
    return tuple(tokens), start


def christ_detect_loop(scheme, lm, key, tokens, meta) -> tuple[float, bool]:
    m = len(tokens) - meta
    if m == 0:
        return 0.0, False
    us = substream(key.seed, sch._D_CHRIST_U).random(m)
    vals = np.where(np.asarray(tokens[meta:]) == 1, us, 1.0 - us)
    with np.errstate(divide="ignore"):
        statistic = float(np.sum(-np.log(vals)))
    return statistic, statistic >= sch.erlang_upper_quantile(m, scheme.cfg.target_alpha)


def its_xi(scheme, key, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The key's n ITS uniforms and its one permutation ``[V]`` (rank -> token)."""
    us = substream(key.seed, sch._D_ITS_U).random(n)
    return us, substream(key.seed, sch._D_ITS_PI).permutation(scheme.cfg.vocab_size)


def its_alignment_inputs(scheme, key, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The key's n ITS uniforms then its resamples, ``[R+1, n]``, and each token's rank in [0, 1]."""
    vocab = scheme.cfg.vocab_size
    us, perm = its_xi(scheme, key, n)
    resampled = substream(key.seed, sch._D_ITS_RESAMPLE).random((scheme.cfg.resamples, n))
    rank = np.empty(vocab)
    for r, tok in enumerate(perm):
        rank[tok] = r / max(vocab - 1, 1)
    return np.vstack([us, resampled]), rank


def its_generate_loop(scheme, lm, key) -> tuple[tuple[int, ...], None]:
    us, perm = its_xi(scheme, key, scheme.cfg.n)
    tokens = []
    prev = None
    for j in range(scheme.cfg.n):
        prev = its_token(lm.next_dist(prev).as_floats(), us[j], perm)
        tokens.append(prev)
    return tuple(tokens), None


def alignment_phi_tensor(u_all, rank_norm, tokens, window) -> np.ndarray:
    """The alignment minimum through the whole [batch, L, L] cost tensor."""
    length = u_all.shape[1]
    u_pad = np.concatenate([u_all, u_all[:, :-1]], axis=1).astype(np.float32)
    u_diag = np.lib.stride_tricks.sliding_window_view(u_pad, length, axis=1)
    diag = np.abs(u_diag - rank_norm[tokens].astype(np.float32)[None, None, :])
    summed = np.cumsum(diag, axis=2, dtype=np.float32)
    window_sums = summed[:, :, window - 1 :].copy()
    window_sums[:, :, 1:] -= summed[:, :, :-window]
    return window_sums.min(axis=(1, 2))


def its_detect_loop(scheme, lm, key, tokens, meta=None) -> tuple[float, bool]:
    cfg = scheme.cfg
    tokens = np.asarray(tuple(tokens))
    length = len(tokens)
    u_all, rank_all = its_alignment_inputs(scheme, key, length)
    phi = alignment_phi_tensor(u_all, rank_all, tokens, cfg.block_k - 1)
    p_value = (1.0 + float(np.sum(phi[1:] <= phi[0]))) / (cfg.resamples + 1.0)
    return p_value, p_value <= cfg.target_alpha


def ump_region_loop(scheme, lm, key) -> tuple[tuple[int, ...], bool]:
    cfg = scheme.cfg
    x = sample_sequence_loop(lm, cfg.n, substream(key.seed, sch._D_UMP_X))
    log_accept = math.log(cfg.target_alpha) - sequence_logprob_loop(lm, x)
    accept_p = 1.0 if log_accept >= 0.0 else math.exp(log_accept)
    return x, substream(key.seed, sch._D_UMP_COIN).random() <= accept_p


def ump_generate_loop(scheme, lm, key):
    return ump_region_loop(scheme, lm, key)[0], None


def ump_detect_loop(scheme, lm, key, tokens, meta=None) -> tuple[float, bool]:
    x, live = ump_region_loop(scheme, lm, key)
    reject = live and tuple(tokens) == x
    return (1.0 if reject else 0.0), reject


SCHEME_LOOPS = {
    sch.SoftRedList: (srl_generate_loop, srl_detect_loop),
    sch.ChristBinary: (christ_generate_loop, christ_detect_loop),
    sch.InverseTransform: (its_generate_loop, its_detect_loop),
    sch.UmpSequence: (ump_generate_loop, ump_detect_loop),
}


def trial_key(seed: int, domain: int, trial: int) -> sch.WatermarkKey:
    return sch.WatermarkKey(seed=int(substream(seed, domain, trial).integers(1 << 62)))


def estimate_loop(scheme, lm, trials: int, seed: int, null_text: bool) -> float:
    """Type I (``null_text``) or Type II rate, one trial and one token at a time."""
    generate, detect = SCHEME_LOOPS[type(scheme)]
    domain = sch._D_NULL_KEY if null_text else sch._D_WM_KEY
    hits = []
    for t in range(trials):
        key = trial_key(seed, domain, t)
        tokens, meta = generate(scheme, lm, key)
        if null_text:
            tokens = sample_sequence_loop(lm, scheme.cfg.n, substream(seed, sch._D_NULL_TEXT, t))
        reject = detect(scheme, lm, key, tokens, meta)[1]
        hits.append(1.0 if reject == null_text else 0.0)
    return math.fsum(hits) / trials
