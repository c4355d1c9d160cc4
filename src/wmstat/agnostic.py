"""Model-agnostic watermarking: fixed region law, minimax Type II loss.

When the detector must fix the rejection-region law without seeing the model,
the minimax-optimal choice is uniform over the fixed-size subsets whose size
matches the Type I budget.  Its worst-case excess Type II error over the
per-model optimum has an exact binomial-ratio form; this module computes that
value in exact rationals and samples the region law.  One model's least loss
is its worst-set gap max_U rho(U) - P(region hits U) (Strassen), computed
exactly in one sorted-prefix pass: ``worst_set_gap`` rounds it once,
``strassen_condition_holds`` compares it with a budget, and
``build_agnostic_coupling`` returns it with a coupling built by max-flow over
at most ``MAX_ENUM_SUBSETS`` enumerated subsets, an ordinary ``ump.Coupling``
over (outcome, subset) atoms, so ``ump.type2_exact`` gives its loss and
``ump.type1_exact`` its level.  Only the coupling needs the subsets: the gap
has no size cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .dist import DiscreteDist, ResourceLimit, _check_int, _integer_row, binom_exact
from .flow import FlowNetwork
from .ump import Coupling, Region

# C(16, 8): n=16, m=8 builds in 0.47 s with a float Dirichlet(1) rho and 1.0 s with the exact
# uniform rho on a 2-core Xeon VM (n=39, m=3: 9139 subsets in 0.16 s and 0.42 s)
MAX_ENUM_SUBSETS = 12870


@dataclass(frozen=True)
class UniformRegionLaw:
    """Uniform law over the size-``region_size`` subsets of n outcomes.

    Requires the integrality the minimax result is stated under: the region
    size is the Type I budget times n, and its reciprocal level divides n.
    """

    n: int
    region_size: int

    def __post_init__(self):
        _check_int(n=self.n, region_size=self.region_size)
        if not 1 <= self.region_size <= self.n:
            raise ValueError(f"region size {self.region_size} outside 1..{self.n}")
        if self.n % self.region_size != 0:
            raise ValueError(
                f"1/alpha = {self.n}/{self.region_size} must be an integer"
            )

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.region_size, self.n)

    @property
    def n_subsets(self) -> int:
        return math.comb(self.n, self.region_size)

    def hit_probability(self, u_size: int) -> Fraction:
        """P(a sampled region intersects a fixed set of ``u_size`` outcomes)."""
        _check_int(u_size=u_size)
        if not 0 <= u_size <= self.n:
            raise ValueError(f"set size {u_size} outside 0..{self.n}")
        return self.hit_probabilities[u_size]

    @cached_property
    def hit_probabilities(self) -> tuple[Fraction, ...]:
        """``hit_probability(u)`` for u = 0..n, computed once per law."""
        n, m = self.n, self.region_size
        return tuple(1 - binom_exact(n - u, m) / binom_exact(n, m) for u in range(n + 1))


def integrality_check(n: int, alpha: Fraction) -> int:
    """Validate alpha*n and 1/alpha are integers; returns m = alpha*n."""
    _check_int(n=n)
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    m = alpha * n
    inv = 1 / alpha
    if m.denominator != 1 or inv.denominator != 1:
        raise ValueError(f"need alpha*n and 1/alpha integral, got alpha={alpha}, n={n}")
    if n < inv:
        raise ValueError(f"need n >= 1/alpha, got n={n}, 1/alpha={inv}")
    return int(m)


def max_type2_loss(n: int, alpha: Fraction) -> Fraction:
    """Worst-case Type II excess of the uniform fixed-size region law."""
    m = integrality_check(n, alpha)
    inv = int(1 / Fraction(alpha))
    return binom_exact(n - inv, m) / binom_exact(n, m)


def loss_limit_gap(alpha: Fraction, n: int) -> float:
    """Distance of the exact worst-case loss from its small-alpha limit 1/e."""
    return abs(float(max_type2_loss(n, alpha)) - math.exp(-1.0))


def sample_region(law: UniformRegionLaw, rng: np.random.Generator) -> Region:
    """Uniformly random size-m subset via a partial Fisher-Yates shuffle."""
    pool = list(range(law.n))
    m = law.region_size
    for i in range(m):
        j = i + int(rng.integers(law.n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return Region.of(pool[:m])


def build_agnostic_coupling(rho: DiscreteDist, law: UniformRegionLaw) -> tuple[Coupling, float]:
    """Couple ``rho`` with the uniform region law; returns (coupling, loss).

    Solves the transportation problem source -> outcomes -> covering subsets
    -> sink by max-flow, then completes the leftover mass (necessarily on
    non-covering pairs at a maximum flow) so both marginals are met exactly.
    The atoms are (x, subset, mass) in (x, subset index) order, with Fraction
    masses when ``rho`` is exact.  ``loss``, the probability the outcome falls
    outside its region, is ``worst_set_gap``: the flow only builds the atoms.
    """
    loss = worst_set_gap(rho, law)  # also checks that rho has law.n outcomes
    n_subsets = law.n_subsets
    if n_subsets > MAX_ENUM_SUBSETS:
        raise ResourceLimit(f"{n_subsets} subsets exceed enumeration cap {MAX_ENUM_SUBSETS}")
    exact = rho.is_exact
    probs = list(rho.probs) if exact else list(rho.as_floats())
    subset_quota = Fraction(1, n_subsets) if exact else 1.0 / n_subsets
    big = Fraction(2) if exact else 2.0

    subsets = [Region.of(c) for c in itertools.combinations(range(law.n), law.region_size)]
    # nodes: source 0, sink 1, outcome x at 2 + x, subset a at 2 + n + a
    source, sink, outcomes = 0, 1, range(2, 2 + law.n)
    subset_nodes = range(2 + law.n, 2 + law.n + n_subsets)
    pairs = [(x, a) for a, region in enumerate(subsets) for x in region.members]
    net = FlowNetwork(n_nodes=2 + law.n + n_subsets)
    source_edges = net.add_edges([source] * law.n, outcomes, probs)
    pair_edges = net.add_edges([outcomes[x] for x, _ in pairs], [subset_nodes[a] for _, a in pairs],
                               [big] * len(pairs))
    sink_edges = net.add_edges(subset_nodes, [sink] * n_subsets, [subset_quota] * n_subsets)

    net.max_flow(source, sink)
    flows = [(x, a, f) for (x, a), eid in zip(pairs, pair_edges) if (f := net.flow_on(eid)) > 0]
    # Complete the coupling: pair leftover outcome mass with leftover subset
    # quota (northwest-corner).  No leftover pair can cover its outcome, or
    # the flow would admit one more augmenting path.
    deficits = [(x, probs[x] - net.flow_on(eid)) for x, eid in enumerate(source_edges)]
    spare = [(a, subset_quota - net.flow_on(eid)) for a, eid in enumerate(sink_edges)]
    spare = [(a, s) for a, s in spare if s > 0]
    ai = 0
    for x, d in deficits:
        while d > 0 and ai < len(spare):
            a, s = spare[ai]
            moved = min(d, s)
            flows.append((x, a, moved))
            d, s = d - moved, s - moved
            if s <= 0:
                ai += 1
            else:
                spare[ai] = (a, s)

    flows.sort()
    return Coupling(atoms=tuple((x, subsets[a], m) for x, a, m in flows), k=law.n), loss


def _worst_gap(rho: DiscreteDist, law: UniformRegionLaw) -> Fraction:
    """max over U of rho(U) - P(region hits U), exactly: rho is read as Python ints
    over one common denominator (numpy integers through ``int``, or large
    denominators overflow int64); the hit probability depends on |U| only, so the
    worst set of each size u is the u most likely outcomes, one sorted-prefix pass."""
    if rho.k != law.n:
        raise ValueError(f"distribution has {rho.k} outcomes, law expects {law.n}")
    ints, scale = _integer_row(rho.probs)
    best, acc, hit = Fraction(0), 0, law.hit_probabilities
    for u, p in enumerate(sorted(ints, reverse=True), start=1):
        acc += p
        best = max(best, Fraction(acc, scale) - hit[u])
    return best


def strassen_condition_holds(rho: DiscreteDist, law: UniformRegionLaw, budget) -> bool:
    """Marginal-domination check: rho(U) - P(region hits U) <= budget for all U.

    One exact comparison of the worst-set gap with ``budget`` (float, int or
    ``Fraction``), whatever the types of rho's probabilities.
    """
    return _worst_gap(rho, law) <= budget


def worst_set_gap(rho: DiscreteDist, law: UniformRegionLaw) -> float:
    """The exact worst-set gap rounded once: the least loss of any coupling (Strassen)."""
    return float(_worst_gap(rho, law))
