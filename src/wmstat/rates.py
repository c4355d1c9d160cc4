"""Type II error of the optimal coupling on i.i.d. token sequences.

For a per-token distribution repeated n times, the optimal miss probability
is the mass of sequence-probability classes exceeding the level alpha; fewer
than 1/alpha classes can.  This module computes it exactly (a log-space walk
that visits only those count vectors, or a binomial specialization for two
outcomes), estimates it by Monte Carlo, provides the two-point minimum-entropy
instance behind the rate lower bound, evaluates the closed-form lower/upper
bounds on the tokens needed for target error levels, and searches for the
empirical crossing point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import LN2, DiscreteDist, ResourceLimit, _check_alpha, inv_binary_entropy, sample_many
from .streams import substream

MAX_COUNT_CLASSES = 2_000_000
MC_BLOCK = 1 << 14


@dataclass(frozen=True)
class RateBounds:
    """Lower and upper bounds on the required number of tokens."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0 < self.lower <= self.upper:
            raise ValueError(f"need 0 < lower <= upper, got {self.lower!r}, {self.upper!r}")


@dataclass(frozen=True)
class RateCurve:
    """Miss probability as a function of sequence length n.

    Entries are (n, beta, stderr) with stderr 0 for exact evaluations.
    """

    entries: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        last_n = 0
        for n, beta, stderr in self.entries:
            if n <= last_n:
                raise ValueError("curve n values must be strictly increasing")
            if not 0.0 <= beta <= 1.0:
                raise ValueError(f"beta {beta!r} outside [0,1]")
            if stderr < 0.0:
                raise ValueError("stderr must be >= 0")
            last_n = n

    def beta_at(self, n: int) -> float:
        for entry_n, beta, _ in self.entries:
            if entry_n == n:
                return beta
        raise KeyError(f"n={n} not in curve")


_LOGFACT = np.zeros(1)


def _logfact(n: int) -> np.ndarray:
    """Table of log(i!) for i = 0..n, each entry accurate to rounding."""
    global _LOGFACT
    if len(_LOGFACT) <= n:
        old = len(_LOGFACT)
        grown = np.empty(n + 1)
        grown[:old] = _LOGFACT
        for i in range(old, n + 1):
            grown[i] = math.lgamma(i + 1)
        _LOGFACT = grown
    return _LOGFACT


def _support(rho0: DiscreteDist) -> list[float]:
    return [float(p) for p in rho0.probs if float(p) > 0.0]


def _beta_binomial(log_p: float, log_q: float, n: int, log_alpha: float) -> float:
    """Two-outcome specialization: classes indexed by the success count."""
    table = _logfact(n)
    j = np.arange(n + 1)
    log_mult = table[n] - table[j] - table[n - j]
    log_class = (n - j) * log_p + j * log_q
    mask = log_class > log_alpha
    if not mask.any():
        return 0.0
    terms = np.exp(log_mult[mask] + log_class[mask]) * (-np.expm1(log_alpha - log_class[mask]))
    return float(np.sum(terms))


def _beta_count_vectors(probs: list[float], n: int, alpha: float) -> float:
    """Sum over the count-vector classes above alpha, in log space, by fsum.

    Walks the outcomes level by level, keeping a frontier of prefixes (tokens
    left, log class probability, log multinomial).  A prefix at
    log-probability lc with r tokens left completes to at most
    lc + r*max(log_probs[idx:]), linear in each count; runs of children under
    log(alpha)*(1 + 1e-9), a margin far above rounding, are cut.  Kept classes
    take the full walk's float steps and fsum rounds exactly: bit-identical."""
    k = len(probs)
    n_classes = math.comb(n + k - 1, k - 1)
    if n_classes > MAX_COUNT_CLASSES:
        raise ResourceLimit(
            f"{n_classes} count-vector classes exceed the exact-path cap "
            f"{MAX_COUNT_CLASSES}; too large, use the Monte Carlo estimator"
        )
    log_probs = [math.log(p) for p in probs]
    best = np.maximum.accumulate(log_probs[::-1])[::-1].tolist()  # suffix maxima
    log_alpha = math.log(alpha)
    cut = log_alpha * (1.0 + 1e-9)
    lgam = math.lgamma
    frontier = [(n, 0.0, lgam(n + 1))]
    for lp, rest in zip(log_probs[:-1], best[1:]):
        kept = []
        for remaining, log_class, log_mult in frontier:
            for c in range(remaining, -1, -1) if lp >= rest else range(remaining + 1):
                child = log_class + c * lp
                if child + (remaining - c) * rest < cut:
                    break  # the bound only falls from here on
                kept.append((remaining - c, child, log_mult - lgam(c + 1)))
        frontier = kept
    terms = []
    for remaining, log_class, log_mult in frontier:
        log_class += remaining * log_probs[-1]
        if log_class > log_alpha:
            log_mult -= lgam(remaining + 1)
            terms.append(math.exp(log_mult + log_class) * (-math.expm1(log_alpha - log_class)))
    return math.fsum(terms)


def type2_product_exact(
    rho0: DiscreteDist, n: int, alpha: float, method: str = "auto"
) -> float:
    """Exact miss probability of the optimal coupling on n i.i.d. tokens.

    ``method="binomial"`` forces the two-outcome specialization,
    ``"count-vectors"`` the generic class enumeration; ``"auto"`` picks the
    binomial path whenever the support has at most two outcomes.
    """
    _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    probs = _support(rho0)
    if method not in ("auto", "binomial", "count-vectors"):
        raise ValueError(f"unknown method {method!r}")
    if len(probs) == 1:
        return 1.0 - alpha  # the single sequence has probability 1 > alpha
    if method == "binomial" or (method == "auto" and len(probs) == 2):
        if len(probs) != 2:
            raise ValueError("binomial method needs a two-outcome support")
        return _beta_binomial(math.log(probs[0]), math.log(probs[1]), n, math.log(alpha))
    return _beta_count_vectors(probs, n, alpha)


def type2_product_mc(
    rho0: DiscreteDist, n: int, alpha: float, samples: int, seed: int
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of the optimal miss probability.

    Averages (1 - alpha/P(sequence))+ over i.i.d. sequences, accumulating
    sequence probabilities in log space.  Sampling is split into fixed-size
    blocks with substreams keyed by (seed, block index) and reduced in block
    order.
    """
    _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    log_probs = np.array(
        [math.log(float(p)) if float(p) > 0.0 else -math.inf for p in rho0.probs]
    )
    n_blocks = (samples + MC_BLOCK - 1) // MC_BLOCK

    def block_sums(b: int) -> tuple[float, float]:
        size = min(MC_BLOCK, samples - b * MC_BLOCK)
        rng = substream(seed, b)
        draws = sample_many(rho0, rng, size * n).reshape(size, n)
        log_rho = log_probs[draws].sum(axis=1)
        with np.errstate(divide="ignore"):
            vals = np.maximum(1.0 - alpha / np.exp(log_rho), 0.0)
        # fsum keeps constant-integrand cases bit-exact (point mass -> 1-alpha)
        return math.fsum(vals.tolist()), math.fsum((vals * vals).tolist())

    from .streams import map_trials

    sums = map_trials(block_sums, n_blocks)
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(s2 for _, s2 in sums)
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def hard_instance(h: float) -> DiscreteDist:
    """Two-outcome distribution with entropy h and majority mass >= 1/2.

    This is the instance on which watermark detection is hardest at a given
    entropy level; it drives the token-rate lower bound.
    """
    if not 0.0 < h <= LN2:
        raise ValueError(f"entropy must be in (0, ln 2], got {h!r}")
    q0 = inv_binary_entropy(h, branch="high")
    return DiscreteDist(probs=(1.0 - q0, q0))


def min_tokens_lower_bound(h: float, alpha: float, beta: float) -> float:
    """Tokens below which no distortion-free coupling meets both error levels."""
    _check_rate_domain(h, alpha, beta)
    first = math.log(LN2 / h) / (2.0 * h) * min(
        math.log(1.0 / (2.0 * alpha)), math.log(1.0 / (2.0 * beta))
    )
    second = math.log(1.0 / (2.0 * alpha)) / h
    return max(first, second)


def min_tokens_upper_bound(h: float, alpha: float, beta: float, k: int) -> float:
    """Tokens beyond which the optimal coupling meets both error levels."""
    _check_rate_domain(h, alpha, beta)
    if k < 2:
        raise ValueError(f"token alphabet size must be >= 2, got {k}")
    first = 200.0 * (2.0 * math.log(9.0 * k / h) / h) * min(
        math.log(1.0 / alpha), math.log(1.0 / beta)
    )
    second = (18.0 + 4.0 * math.log(9.0 * k)) * math.log(1.0 / alpha) / h
    return max(first, second)


def rate_bounds(h: float, alpha: float, beta: float, k: int) -> RateBounds:
    return RateBounds(
        lower=min_tokens_lower_bound(h, alpha, beta),
        upper=min_tokens_upper_bound(h, alpha, beta, k),
    )


def _check_rate_domain(h: float, alpha: float, beta: float) -> None:
    if not 0.0 < h < 0.25:
        raise ValueError(f"entropy must be in (0, 1/4), got {h!r}")
    if not 0.0 < alpha < 0.1 or not 0.0 < beta < 0.1:
        raise ValueError(f"alpha and beta must be in (0, 0.1), got {alpha!r}, {beta!r}")


def n_required_empirical(
    rho0: DiscreteDist, alpha: float, beta: float, n_max: int
) -> tuple[int | None, RateCurve]:
    """First n at which the exact miss probability drops to beta, by scan.

    The miss probability is not proven monotone in n, so the first crossing
    is returned together with the whole scanned curve; None when no crossing
    occurs by ``n_max``.
    """
    _check_alpha(alpha)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > 100_000:
        raise ResourceLimit(f"n_max capped at 100000 for the exact scan, got {n_max}")
    entries = []
    n_star = None
    for n in range(1, n_max + 1):
        value = type2_product_exact(rho0, n, alpha)
        entries.append((n, value, 0.0))
        if value <= beta:
            n_star = n
            break
    return n_star, RateCurve(entries=tuple(entries))
