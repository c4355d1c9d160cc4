"""Finite discrete probability primitives.

Distributions are plain tuples of outcome probabilities indexed by outcome id
0..k-1.  Everything downstream (couplings, rate bounds, schemes) builds on the
handful of functions here: entropy and its binary inverse, total-variation
distance, exact binomial coefficients, exact rationals read as integers over
one denominator, and the rules that make uniforms tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

LN2 = math.log(2.0)

PROB_SUM_TOL = 1e-12
BISECT_TOL = 1e-12


class ResourceLimit(ValueError):
    """A computation would exceed one of the package's size caps."""


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha!r}")


def _check_int(**counts) -> None:
    """Reject each count that is not an int or numpy integer (bool included)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def read_lines(path: str | Path) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) of each non-blank line not opening with '#'.

    The one line reader of config, model and graph files: ``cli.load_config_file``
    calls it directly, ``lm.load_lm`` and ``robust.load_graph`` through ``read_table``.
    """
    lines = enumerate(Path(path).read_text().splitlines(), start=1)
    return [(no, text) for no, ln in lines if (text := ln.strip()) and not text.startswith("#")]


def read_table(path, kind: str, word: str, minimum: int, parse_row: Callable) -> tuple[int, list]:
    """N from a first line ``'<word> N'`` with N >= ``minimum``, and ``parse_row(N, fields)``
    of each later line; ``kind`` names the file in the empty-file error.

    The one parser of model (``lm.load_lm``: 'vocab N') and graph (``robust.load_graph``:
    'vertices N') files: a ValueError on a line is raised again as '<path>, line <k>: ...'.
    """
    records = [(no, text.split()) for no, text in read_lines(path)]
    if not records:
        raise ValueError(f"{kind} file {path} is empty; expected '{word} N' first")
    n, rows = None, []
    for line, fields in records:
        try:
            if n is not None:
                rows.append(parse_row(n, fields))
            elif len(fields) != 2 or fields[0] != word:
                raise ValueError(f"first line must be '{word} N', got {' '.join(fields)!r}")
            elif (n := parse_field(int, fields[1])) < minimum:
                raise ValueError(f"{word} must be >= {minimum}, got {n}")
        except ValueError as err:
            raise ValueError(f"{path}, line {line}: {err}") from None
    return n, rows


def parse_field(kind: Callable[[str], object], text: str):
    """``kind(text)``, or a ValueError naming ``kind`` and quoting ``text``."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"expected {kind.__name__}, got {text!r}") from None


@dataclass(frozen=True)
class DiscreteDist:
    """Probability distribution over outcome ids 0..k-1.

    Entries may be floats or exact ``Fraction`` values; exact entries keep
    downstream combinatorial computations exact.  Entries must be
    non-negative, finite, and sum to 1 within ``PROB_SUM_TOL``.
    """

    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))
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
        _check_int(k=k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return cls(probs=(Fraction(1, k),) * k)

    @classmethod
    def point_mass(cls, k: int, outcome: int) -> "DiscreteDist":
        _check_int(k=k, outcome=outcome)
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


def inv_binary_entropy(h: float) -> float:
    """The root >= 1/2 of ``binary_entropy(x) = h``, by monotone bisection.

    The other root is 1 minus this one.  The argument is located to within
    ``BISECT_TOL``.
    """
    if h < 0.0 or h > LN2 + BISECT_TOL:
        raise ValueError(f"entropy value {h!r} outside [0, ln 2]")
    h = min(h, LN2)
    lo, hi = 0.5, 1.0  # binary_entropy decreasing on [1/2, 1]
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) > h:
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


def _integer_row(values) -> tuple[list[int], int]:
    """``values`` times ``s``, the LCM of their denominators, as Python ints; and ``s``."""
    # an int or Fraction is read as it is, anything else (floats, numpy
    # scalars) through Fraction; int() since a Fraction of numpy integers
    # keeps numpy parts
    ratios = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    s = math.lcm(*(f.denominator for f in ratios))
    return [int(f.numerator) * (s // int(f.denominator)) for f in ratios], s


def _cdf_of(probs: tuple) -> tuple[float, ...]:
    cum, acc = [], 0.0
    for p in probs:
        acc += float(p)
        cum.append(acc)
    cum[-1] = max(cum[-1], 1.0)  # guard against float undershoot
    return tuple(cum)


def padded(values) -> np.ndarray:
    """Sorted ``values``, read-only, padded with inf to 2**len(values).bit_length() - 1 entries."""
    table = np.full((1 << len(values).bit_length()) - 1, np.inf)
    table[: len(values)] = values
    table.flags.writeable = False
    return table


def search(table: np.ndarray, u) -> np.ndarray:
    """The count of ``table`` entries at or below each uniform of ``u``, as int64.

    The token rule for laws tabled once: ``sample`` searches a CDF's interior
    entries, ``ToyLM.sample_paths`` a model's distinct CDF values.  ``table``
    is sorted and ``padded`` to 2**m - 1 entries, so a branchless binary search
    finds every count in m whole-array compare passes: the first compares with
    one scalar, each later one gathers the entry halfway through the bracket
    each uniform has narrowed to.  Memory is a few arrays the shape of ``u``.
    """
    draws = np.zeros(np.shape(u), np.int64)
    step = (len(table) + 1) >> 1
    if step:
        np.multiply(u >= table[step - 1], step, out=draws)
        step >>= 1
    while step:
        draws += (table[draws + (step - 1)] <= u) * step
        step >>= 1
    return draws


def inverse_cdf(cdf: np.ndarray, u: np.ndarray, side: str) -> np.ndarray:
    """The token rule for CDF rows computed at each step: per row i, the count of the
    k - 1 interior entries of ``cdf[i]`` at or below ``u[i]`` (side right) or below it (left)."""
    below = cdf[:, :-1] <= u[:, None] if side == "right" else cdf[:, :-1] < u[:, None]
    return below.sum(axis=1)


@lru_cache(maxsize=4096)
def _search_table(probs: tuple) -> np.ndarray:
    """The k - 1 interior CDF values, ``padded``: the last is at least 1, above any uniform."""
    return padded(_cdf_of(probs)[:-1])


def sample(d: DiscreteDist, rng: np.random.Generator) -> int:
    """Draw one outcome id; deterministic given the generator state."""
    return int(search(_search_table(d.probs), rng.random()))


def sample_many(d: DiscreteDist, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws as ``sample`` makes them, as int64; callers bound the memory by ``size``
    (``rates.type2_product_mc`` ``search``es only the rows that can lie above alpha)."""
    return search(_search_table(d.probs), rng.random(size))
