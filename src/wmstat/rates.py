"""Type II error of the optimal coupling on i.i.d. token sequences.

For a per-token distribution repeated n times, the optimal miss probability
is the mass of sequence-probability classes exceeding the level alpha; fewer
than 1/alpha classes can.  This module computes it exactly (a log-space walk
that visits only those count vectors, or a binomial specialization for two
outcomes), estimates it by Monte Carlo, provides the two-point minimum-entropy
instance behind the rate lower bound, evaluates the closed-form lower/upper
bounds on the tokens needed for target error levels, and searches for the
empirical crossing point.  The walk's frontier is three arrays, about 24 B a
prefix; it refuses before it builds a level past ``MAX_WALK_PREFIXES`` prefixes.
Log-factorials are ``math.lgamma`` of the counts read; no table outlives a call.

The first-crossing scan evaluates two-outcome supports a chunk of
consecutive lengths at a time, over only the classes above alpha,
bit-identical to one length at a time; a chunk holds at most ``SCAN_CELLS``
cells, so memory does not grow with ``n_max``.

The Monte Carlo estimator draws each block of ``MC_BLOCK`` sequences from
one keyed generator, ``MC_CHUNK`` uniforms (or one sequence) at a time, and
sums only the sequences that can lie above alpha.  Lengths, sample counts and
``n_max`` must be ints or numpy integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import LN2, DiscreteDist, ResourceLimit, _check_alpha, _check_int, _search_table, inv_binary_entropy, search
from .dist import sample_many  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.rates.sample_many
from .streams import substream

MAX_WALK_PREFIXES = 2_000_000
MC_BLOCK = 1 << 14
MC_CHUNK = 1 << 16  # uniforms per chunk: one reused buffer of about 0.5 MB
SCAN_FIRST = 16  # lengths in the binomial scan's first chunk; each next one doubles
SCAN_CELLS = 1 << 16  # (length, success count) cells per chunk


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


def _log_factorials(*counts: np.ndarray) -> list[np.ndarray]:
    """log(c!) for each array of counts: ``math.lgamma(c + 1)`` once for each count
    in the union of the arrays' min..max spans, not for every count up to the largest."""
    values, starts, end = [], [0] * len(counts), -1  # count c of array i is values[c - starts[i]]
    for lo, top, i in sorted((int(c.min()), int(c.max()) + 1, i) for i, c in enumerate(counts) if c.size):
        if lo > end:  # a gap: a new run of counts from lo
            start, end = lo - len(values), lo
        values.extend(map(math.lgamma, range(end + 1, top + 1)))
        end, starts[i] = max(end, top), start
    table = np.array(values)
    return [table[c - s] for c, s in zip(counts, starts)]


def _support(rho0: DiscreteDist) -> list[float]:
    return [float(p) for p in rho0.probs if float(p) > 0.0]


def _kept_range(slope: float, low: np.ndarray, top: np.ndarray) -> tuple:
    """The counts c in 0..top with c*slope > low, one run: (first, how many), in floats."""
    if slope > 0.0:
        lo = np.minimum(np.maximum(np.floor(low / slope) + 1.0, 0.0), top + 1.0)
        return lo, top + 1.0 - lo
    if slope < 0.0:
        return 0.0, np.minimum(np.maximum(np.ceil(low / slope), 0.0), top + 1.0)
    return 0.0, np.where(low < 0.0, top + 1.0, 0.0)


def _beta_binomial(
    log_p: float, log_q: float, n_lo: int, n_hi: int, log_alpha: float
) -> np.ndarray:
    """Two-outcome miss at the lengths n_lo, n_lo + 1, ... below n_hi.

    A class is a success count j, with log-probability (n-j)*log_p + j*log_q,
    linear in j.  Only the counts where that line lies above log(alpha) less
    1e-9*(|log alpha| + n*|log p_min|), a margin far above rounding, are
    evaluated; the float mask then picks the classes above alpha.  Kept terms
    take the float steps of a sweep over every j, and each length's terms are
    summed in ``np.sum``'s order, so each miss is bit-identical to that
    sweep's.  Lengths are taken while their cells stay within ``SCAN_CELLS``
    (one length at least); returns their misses.
    """
    ns = np.arange(n_lo, n_hi)
    # j*slope > low keeps j; slope is 0 or at least about 1e-16 in size
    # (p + q = 1), so low / slope stays finite
    low = (log_alpha - 1e-9 * abs(log_alpha)) - ns * (log_p + 1e-9 * max(-log_p, -log_q))
    lo, width = _kept_range(log_q - log_p, low, ns)
    cells = width.cumsum()
    taken = max(1, int(cells.searchsorted(SCAN_CELLS, "right")))
    shift = (cells - width - lo)[:taken].astype(np.int64)  # cell index - j
    width = width[:taken].astype(np.int64)
    n = np.repeat(ns[:taken], width)
    j = np.arange(len(n)) - np.repeat(shift, width)
    log_n, log_j, log_rest = _log_factorials(ns[:taken], j, n - j)
    log_mult = np.repeat(log_n, width) - log_j - log_rest
    log_class = (n - j) * log_p + j * log_q
    mask = log_class > log_alpha
    terms = np.exp(log_mult[mask] + log_class[mask]) * (-np.expm1(log_alpha - log_class[mask]))
    row = n[mask] - n_lo
    # np.sum adds fewer than 8 values left to right, as add.at does in index
    # order; longer runs take np.sum on their own slice
    betas = np.zeros(taken)
    np.add.at(betas, row, terms)
    counts = np.bincount(row, minlength=taken)
    starts = counts.cumsum() - counts
    for r in np.nonzero(counts >= 8)[0]:
        betas[r] = np.sum(terms[starts[r] : starts[r] + counts[r]])
    return betas


def _classes(log_probs: list[float], n: int, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(log P, log count) of the count-vector classes of n tokens that can reach cut.

    The frontier of prefixes after each outcome is three arrays (tokens left,
    log class probability, log multinomial).  A prefix at lc with r tokens left
    completes to at most lc + r*(largest log-probability to come), linear in the
    next count, so ``_kept_range`` gives the counts kept.  Classes take the float
    steps of a walk over every class."""
    best = np.maximum.accumulate(log_probs[::-1])[::-1].tolist()  # suffix maxima
    left, log_class, log_mult = np.array([n]), np.zeros(1), np.array([math.lgamma(n + 1)])
    budget = MAX_WALK_PREFIXES  # prefixes the walk may still keep
    for lp, rest in zip(log_probs[:-1], best[1:]):
        lo, width = _kept_range(lp - rest, cut - (log_class + left * rest), left)
        kept = int(width.sum())
        if kept > budget:
            raise ResourceLimit(
                f"the exact count-vector walk kept more than {MAX_WALK_PREFIXES} "
                "prefixes; too large, use the Monte Carlo estimator"
            )
        budget -= kept
        parent = np.repeat(np.arange(len(width)), width.astype(np.int64))
        c = np.arange(kept) - (width.cumsum() - width - lo).astype(np.int64)[parent]
        left, log_class = left[parent] - c, log_class[parent] + c * lp
        log_mult = log_mult[parent] - _log_factorials(c)[0]
    return log_class + left * log_probs[-1], log_mult - _log_factorials(left)[0]


def _beta_count_vectors(probs: list[float], n: int, alpha: float) -> float:
    """The UMP miss: fsum over the classes above alpha; the cut's 1e-9 margin dwarfs rounding."""
    log_alpha = math.log(alpha)
    log_class, log_count = _classes([math.log(p) for p in probs], n, log_alpha * (1.0 + 1e-9))
    above = log_class > log_alpha
    a, b = (log_count + log_class)[above].tolist(), (log_alpha - log_class[above]).tolist()
    return math.fsum(math.exp(x) * -math.expm1(y) for x, y in zip(a, b))


def type2_product_exact(
    rho0: DiscreteDist, n: int, alpha: float, method: str = "auto"
) -> float:
    """Exact miss probability of the optimal coupling on n i.i.d. tokens.

    ``method="auto"`` takes the binomial specialization on a two-outcome
    support and the generic class enumeration otherwise;
    ``"count-vectors"`` forces the class enumeration.
    """
    _check_alpha(alpha)
    _check_int(n=n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    probs = _support(rho0)
    if method not in ("auto", "count-vectors"):
        raise ValueError(f"unknown method {method!r}")
    if len(probs) == 1:
        return 1.0 - alpha  # the single sequence has probability 1 > alpha
    if method == "auto" and len(probs) == 2:
        log_p, log_q = math.log(probs[0]), math.log(probs[1])
        beta = float(_beta_binomial(log_p, log_q, int(n), int(n) + 1, math.log(alpha))[0])
    else:
        beta = _beta_count_vectors(probs, n, alpha)
    return min(beta, 1.0)  # rounding can pass 1 at tiny alpha


def type2_product_mc(
    rho0: DiscreteDist, n: int, alpha: float, samples: int, seed: int
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of the optimal miss probability.

    Averages (1 - alpha/P(sequence))+ over i.i.d. sequences, accumulating
    sequence probabilities in log space.  Sampling is split into blocks of
    ``MC_BLOCK`` sequences with substreams keyed by (seed, block index) and
    reduced in block order.  A block's generator fills one buffer with whole
    sequences, about ``MC_CHUNK`` uniforms (one sequence when n is longer), so
    the uniforms are those of one ``size * n`` call and memory is bounded by
    the chunk, not by ``MC_BLOCK * n``.  A row with c draws outside the CDF interval
    of the likeliest outcome t has log P <= n*log p_t + c*(log p_2 - log p_t), p_2 the
    next likeliest; rows ``_kept_range`` (exact paths' margin) puts below alpha add +0.0 unsummed.
    """
    _check_alpha(alpha)
    _check_int(n=n, samples=samples)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    n = int(n)
    log_probs = np.array(
        [math.log(float(p)) if float(p) > 0.0 else -math.inf for p in rho0.probs]
    )
    t = int(np.argmax(log_probs))
    support = np.sort(log_probs[log_probs > -math.inf])  # p_2 is p_t when t is alone
    low = math.log(alpha) * (1.0 + 1e-9) + n * (1e-9 * support[0] - support[-1])
    kept = int(_kept_range(support[-2:][0] - support[-1], low, n)[1])  # summed: fewer outside draws
    table = _search_table(rho0.probs)
    lo, hi = (0.0, *table[: rho0.k - 1], math.inf)[t : t + 2]
    n_blocks = (samples + MC_BLOCK - 1) // MC_BLOCK
    rows = max(1, MC_CHUNK // n)  # sequences per chunk
    uniforms = np.empty(rows * n)

    def block_sums(b: int) -> tuple[float, float]:
        size = min(MC_BLOCK, samples - b * MC_BLOCK)
        rng = substream(seed, b)
        terms = []
        for start in range(0, size, rows):
            u = rng.random(out=uniforms[: min(rows, size - start) * n]).reshape(-1, n)
            if kept <= n:
                u = u[((u < lo) | (u >= hi)).sum(axis=1) < kept]
            log_rho = log_probs[search(table, u)].sum(axis=1)
            with np.errstate(divide="ignore"):
                vals = np.maximum(1.0 - alpha / np.exp(log_rho), 0.0)
            terms.extend(vals[vals > 0.0].tolist())
        # fsum keeps constant-integrand cases bit-exact (point mass -> 1-alpha)
        return math.fsum(terms), math.fsum(v * v for v in terms)

    # read at call time, not bound at import: a wrapper on streams.map_trials (perfbench's
    # tracer) sees these blocks only this way
    from .streams import map_trials

    sums = map_trials(block_sums, n_blocks)
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(s2 for _, s2 in sums)
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def hard_instance(h: float) -> DiscreteDist:
    """Two-outcome distribution with entropy h and majority mass >= 1/2.

    This is the instance on which the token-rate lower bound is tight, not
    the hardest one at a given entropy: spreading the minority mass over m
    outcomes needs more tokens (at h = 0.1, alpha = beta = 0.01, n* grows
    from 189 at m = 1 to 557 at m = 4096), as the alphabet term of the
    upper bound allows.
    """
    if not 0.0 < h <= LN2:
        raise ValueError(f"entropy must be in (0, ln 2], got {h!r}")
    q0 = inv_binary_entropy(h)
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
    occurs by ``n_max``.  Two-outcome supports are scanned a chunk of
    consecutive lengths at a time, over only the classes above alpha,
    bit-identical to ``type2_product_exact`` one length at a time.
    """
    _check_alpha(alpha)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta!r}")
    _check_int(n_max=n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > 100_000:
        raise ResourceLimit(f"n_max capped at 100000 for the exact scan, got {n_max}")
    n_max = int(n_max)
    probs = _support(rho0)
    entries = []
    n, size = 1, SCAN_FIRST
    while n <= n_max:
        if len(probs) == 2:
            log_p, log_q = math.log(probs[0]), math.log(probs[1])
            values = _beta_binomial(log_p, log_q, n, min(n + size, n_max + 1), math.log(alpha))
            values, size = np.minimum(values, 1.0).tolist(), min(2 * size, SCAN_CELLS)
        else:
            values = [type2_product_exact(rho0, n, alpha)]
        for value in values:
            entries.append((n, value, 0.0))
            if value <= beta:
                return n, RateCurve(entries=tuple(entries))
            n += 1
    return None, RateCurve(entries=tuple(entries))
