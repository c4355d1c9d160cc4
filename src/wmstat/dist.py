"""Finite discrete probability primitives.

Distributions are plain tuples of outcome probabilities indexed by outcome id
0..k-1.  Everything downstream (couplings, rate bounds, schemes) builds on the
handful of functions here: entropy and its binary inverse, total-variation
distance, exact binomial coefficients, and seeded sampling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

LN2 = math.log(2.0)

PROB_SUM_TOL = 1e-12
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


class ResourceLimit(ValueError):
    """A computation would exceed one of the package's size caps."""


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha!r}")


def read_records(path: str | Path) -> list[tuple[int, list[str]]]:
    """(1-based line number, fields) of each non-blank, non-comment line.

    Shared by the model and graph file readers.
    """
    lines = enumerate(Path(path).read_text().splitlines(), start=1)
    return [(no, ln.split()) for no, ln in lines if ln.strip() and not ln.strip().startswith("#")]


def parse_field(kind: Callable[[str], object], text: str, path, line: int):
    """``kind(text)``, or a ValueError naming the file and the line."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{path}, line {line}: expected {kind.__name__}, got {text!r}") from None


@dataclass(frozen=True)
class DiscreteDist:
    """Probability distribution over outcome ids 0..k-1.

    Entries may be floats or exact ``Fraction`` values; exact entries keep
    downstream combinatorial computations exact.  Entries must be
    non-negative, finite, and sum to 1 within ``PROB_SUM_TOL``.
    """

    probs: tuple
    labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.probs) < 1:
            raise ValueError("distribution needs at least one outcome")
        for p in self.probs:
            if not math.isfinite(p):
                raise ValueError(f"non-finite probability {p!r}")
            if p < 0:
                raise ValueError(f"negative probability {p!r}")
        total = sum(self.probs)
        if abs(total - 1) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if self.labels is not None and len(self.labels) != len(self.probs):
            raise ValueError("labels length must match probs length")

    @property
    def k(self) -> int:
        return len(self.probs)

    @property
    def is_exact(self) -> bool:
        """True when every entry is an exact rational (Fraction or int)."""
        return all(isinstance(p, (Fraction, int)) for p in self.probs)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)

    @classmethod
    def uniform(cls, k: int) -> "DiscreteDist":
        return cls(probs=(Fraction(1, k),) * k)

    @classmethod
    def point_mass(cls, k: int, outcome: int) -> "DiscreteDist":
        if not 0 <= outcome < k:
            raise ValueError(f"outcome {outcome} outside 0..{k - 1}")
        return cls(probs=tuple(1 if j == outcome else 0 for j in range(k)))

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "DiscreteDist":
        """Normalize non-negative weights into a distribution."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls(probs=tuple(float(w) / total for w in weights))


def entropy(d: DiscreteDist) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    acc = []
    for p in d.probs:
        p = float(p)
        if p > 0.0:
            acc.append(-p * math.log(p))
    return math.fsum(acc)


def binary_entropy(x: float) -> float:
    """Entropy in nats of a Bernoulli(x) outcome; 0 at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0,1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def inv_binary_entropy(h: float, branch: str = "high") -> float:
    """Invert ``binary_entropy`` by monotone bisection.

    ``branch="high"`` returns the root >= 1/2, ``"low"`` the root <= 1/2.
    The argument is located to within ``BISECT_TOL``.
    """
    if h < 0.0 or h > LN2 + BISECT_TOL:
        raise ValueError(f"entropy value {h!r} outside [0, ln 2]")
    h = min(h, LN2)
    if branch == "high":
        lo, hi = 0.5, 1.0  # binary_entropy decreasing on [1/2, 1]
        decreasing = True
    elif branch == "low":
        lo, hi = 0.0, 0.5  # increasing on [0, 1/2]
        decreasing = False
    else:
        raise ValueError(f"branch must be 'low' or 'high', got {branch!r}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_TOL:
            break
        if (binary_entropy(mid) > h) == decreasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tv_distance(a: DiscreteDist, b: DiscreteDist) -> float:
    """Total variation distance, sup-over-sets convention (= half L1)."""
    if a.k != b.k:
        raise ValueError(f"support sizes differ: {a.k} vs {b.k}")
    return 0.5 * math.fsum(abs(float(p) - float(q)) for p, q in zip(a.probs, b.probs))


def binom_exact(n: int, k: int) -> Fraction:
    """C(n, k) as an exact rational; 0 when k is out of range."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


@lru_cache(maxsize=4096)
def _cdf_of(probs: tuple) -> tuple[float, ...]:
    cum, acc = [], 0.0
    for p in probs:
        acc += float(p)
        cum.append(acc)
    cum[-1] = max(cum[-1], 1.0)  # guard against float undershoot
    return tuple(cum)


def _cdf(d: DiscreteDist) -> tuple[float, ...]:
    return _cdf_of(d.probs)


def sample(d: DiscreteDist, rng: np.random.Generator) -> int:
    """Draw one outcome id; deterministic given the generator state."""
    return int(bisect_right(_cdf(d), rng.random()))


def sample_many(d: DiscreteDist, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized i.i.d. draws from ``d`` as an int array."""
    cdf = np.asarray(_cdf(d))
    return np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64)
