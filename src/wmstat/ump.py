"""Uniformly most powerful watermark couplings.

A watermarking scheme is a coupling of an output X with a random rejection
region R.  The optimal (UMP) scheme of level alpha pairs each outcome with its
own singleton region, clipped so no single outcome is rejected with
probability above alpha; allowing the output marginal to move by epsilon in
total variation first "water-fills" mass from above-alpha outcomes to
below-alpha ones.  This module builds that coupling and evaluates exact
Type I and Type II errors of any ``Coupling``, the one coupling type, which
the robust and model-agnostic constructions build too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .dist import DiscreteDist, _check_alpha

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Region:
    """A rejection region: sorted, duplicate-free outcome ids."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("region members must be sorted and duplicate-free")
        if self.members and self.members[0] < 0:
            raise ValueError("region members must be non-negative outcome ids")

    @classmethod
    def of(cls, ids: Iterable[int]) -> "Region":
        return cls(members=tuple(sorted(set(int(i) for i in ids))))

    def __contains__(self, outcome: int) -> bool:
        return outcome in self.members

    def __len__(self) -> int:
        return len(self.members)


EMPTY_REGION = Region(members=())


@dataclass(frozen=True)
class Coupling:
    """Joint law of (output, region) as weighted atoms over k outcomes."""

    atoms: tuple[tuple[int, Region, float], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        total = math.fsum(w for _, _, w in self.atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        for x, region, w in self.atoms:
            if w < 0:
                raise ValueError("atom weights must be non-negative")
            if not 0 <= x < self.k:
                raise ValueError(f"outcome {x} outside 0..{self.k - 1}")
            if region.members and region.members[-1] >= self.k:
                raise ValueError("region member outside outcome range")

    @classmethod
    def from_hits(cls, probs, hits, regions) -> "Coupling":
        """Pair outcome x with ``regions[x]`` at mass ``hits[x]`` and with the
        empty region at the rest of ``probs[x]``; zero-weight atoms are omitted."""
        atoms: list[tuple[int, Region, float]] = []
        for x, (p, hit, region) in enumerate(zip(probs, hits, regions)):
            miss = p - hit
            if hit > 0.0:
                atoms.append((x, region, hit))
            if miss > 0.0:
                atoms.append((x, EMPTY_REGION, miss))
        return cls(atoms=tuple(atoms), k=len(probs))

    def x_marginal(self) -> DiscreteDist:
        mass = [0.0] * self.k
        for x, _, w in self.atoms:
            mass[x] += w
        return DiscreteDist(probs=tuple(mass))


def clipped_surplus(probs: Iterable[float], alpha: float) -> float:
    """Total mass above the level alpha: sum of (p - alpha)+ over outcomes."""
    return math.fsum(max(float(p) - alpha, 0.0) for p in probs)


def optimal_distortion(rho: DiscreteDist, alpha: float, eps: float = 0.0) -> DiscreteDist:
    """Distribution within TV-eps of ``rho`` minimizing the clipped surplus.

    Water-filling: move mass (at most eps in total) from outcomes above alpha
    to outcomes below alpha, largest surplus to largest remaining capacity
    first.  The achieved objective is (S - min(eps, S, C))+ with S the donor
    surplus and C the receiver capacity; the returned minimizer is one
    representative of a generally non-unique argmin.
    """
    _check_alpha(alpha)
    if not eps >= 0:  # inf is legal: an unlimited distortion budget
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    probs = list(rho.as_floats())
    donors = sorted(
        (j for j in range(len(probs)) if probs[j] > alpha),
        key=lambda j: (-(probs[j] - alpha), j),
    )
    receivers = sorted(
        (j for j in range(len(probs)) if probs[j] < alpha),
        key=lambda j: (-(alpha - probs[j]), j),
    )
    budget = float(eps)
    r = 0
    for j in donors:
        surplus = probs[j] - alpha
        taken = 0.0
        while surplus > 0.0 and budget > 0.0 and r < len(receivers):
            dst = receivers[r]
            room = alpha - probs[dst]
            if room <= 0.0:
                r += 1
                continue
            moved = min(surplus, room, budget)
            probs[dst] += moved
            taken += moved
            surplus -= moved
            budget -= moved
            if moved >= room:
                r += 1
        if taken > 0.0:
            probs[j] -= taken
    return DiscreteDist(probs=tuple(probs))


def optimal_type2(rho: DiscreteDist, alpha: float, eps: float = 0.0) -> float:
    """Minimum Type II error of any eps-distorted level-alpha coupling."""
    _check_alpha(alpha)
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    surplus = clipped_surplus(rho.probs, alpha)
    capacity = math.fsum(max(alpha - float(p), 0.0) for p in rho.probs)
    return max(surplus - min(eps, surplus, capacity), 0.0)


def ump_coupling(rho: DiscreteDist, alpha: float, eps: float = 0.0) -> Coupling:
    """Build the optimal coupling: singleton regions with alpha-clipping.

    Each outcome x of the (possibly distorted) marginal gets the region {x}
    with probability min(1, alpha/p(x)); leftover mass pairs with the empty
    region and is never detected.  Zero-weight atoms are omitted.
    """
    _check_alpha(alpha)
    probs = optimal_distortion(rho, alpha, eps).as_floats()
    return Coupling.from_hits(
        probs,
        [min(p, alpha) for p in probs],  # = p * min(1, alpha/p), without the round-trip
        [Region(members=(x,)) for x in range(len(probs))],
    )


def type1_exact(coupling: Coupling) -> float:
    """Worst-case false-detection probability over independent outputs.

    The supremum over independent laws is attained at a point mass, so this
    is the largest total weight of atoms whose region covers a single
    outcome.
    """
    per_outcome = [0.0] * coupling.k
    for _, region, w in coupling.atoms:
        for y in region.members:
            per_outcome[y] += w
    return max(per_outcome) if per_outcome else 0.0


def type2_exact(coupling: Coupling) -> float:
    """Probability the coupled output misses its own region."""
    return math.fsum(w for x, region, w in coupling.atoms if x not in region)
