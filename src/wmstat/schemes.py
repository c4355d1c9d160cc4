"""Reference watermarking schemes as keyed (generate, detect) pairs.

Three published scheme families are implemented over the toy Markov model:

- soft red list: per-position keyed vocabulary partition with a boost on the
  green half at generation, detection by counting green tokens against an
  exact binomial null quantile;
- keyed binary sampling: an unkeyed prefix accrues an empirical-entropy
  budget, after which tokens are drawn by inverse transform from keyed
  uniforms, detection by a surprisal sum against an exact Erlang null
  quantile (distortion-free);
- inverse transform sampling: tokens drawn through the CDF taken in the order
  of one keyed vocabulary permutation, detection by a block-alignment cost
  ranked among keyed resamples, i.e. a permutation-test p-value (distortion-free).

A fourth scheme wraps the optimal coupling itself at sequence level: the key
regenerates the model output, and the rejection region is that single
sequence, accepted with probability capped by the level.  All schemes share
one protocol so their empirical Type I/II errors are directly comparable.

Every scheme works on a batch of keys in three steps: ``keyed`` derives the
draws a detector recomputes from each key, ``sample`` generates one token path
per key through the model's one Markov sampler (``ToyLM.paths``), and ``test``
detects, each for the keys ``seeds`` names: an int64 array in the estimates,
``[key.seed]`` per key.  Soft red list and ITS draw from rows computed at each
step (``dist.inverse_cdf``); from its start index on, keyed binary draws 1 iff
its keyed uniform is <= p1.  A detector recomputes everything from the key
except keyed binary's start index, the only region description (``meta``) a
generation hands on, and Type I trials compute only that.  Per-key
``generate``/``detect`` are the batch of one and the error estimates run
fixed-size blocks of trials.  A batch draws each stream domain's uniforms, and
the estimates their trial keys and null text, for all its paths at once
(``streams.substream_uniforms``/``substream_keys``), and soft red list
partitions and ITS permutations and resamples come from the block's generators
(``streams.substreams``).  Every result is bit-identical to running one key
and one token at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import _check_alpha, _check_int, inverse_cdf
from .dist import sample  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.schemes.sample
from .lm import ToyLM
from .streams import map_trials, substream_keys, substream_uniforms, substreams
from .streams import substream  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.schemes.substream

# stream domains hanging off a watermark key
_D_PROVIDER = 0  # generation-side draws a detector never recomputes
_D_PARTITION = 1
_D_CHRIST_U = 2
_D_ITS_U = 3
_D_ITS_PI = 4
_D_ITS_RESAMPLE = 5
_D_UMP_X = 6
_D_UMP_COIN = 7

# harness domains hanging off an experiment seed
_D_NULL_TEXT = 100
_D_NULL_KEY = 101
_D_WM_KEY = 102

TRIAL_BLOCK = 128  # trials per batch in the error estimates: bounds memory at any trial count


@dataclass(frozen=True)
class WatermarkKey:
    """The shared secret: a seed naming all keyed streams of one run."""

    seed: int


@dataclass(frozen=True)
class GenRun:
    tokens: tuple[int, ...]
    meta: object = None


@dataclass(frozen=True)
class Detection:
    statistic: float
    reject: bool


@dataclass(frozen=True)
class _SchemeConfig:
    """Text length and level, the first two fields of every scheme's config."""

    n: int
    target_alpha: float

    def __post_init__(self):
        _check_int(n=self.n)
        if self.n < 0:
            raise ValueError(f"length must be >= 0, got {self.n}")
        _check_alpha(self.target_alpha)


@lru_cache(maxsize=4096)
def binomial_reject_threshold(n: int, g: int, vocab: int, alpha: float) -> int:
    """Smallest C with P(Binomial(n, g/vocab) >= C) <= alpha."""
    if n == 0:
        return 1
    log_p = math.log(g) - math.log(vocab)
    log_q = math.log(vocab - g) - math.log(vocab) if g < vocab else -math.inf
    tail = 0.0
    for j in range(n, -1, -1):
        log_pmf = (
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * log_p
            + (n - j) * (log_q if n - j else 0.0)
        )
        tail += math.exp(log_pmf)
        if tail > alpha:
            return j + 1
    return 0


def _erlang_log_sf(shape: int, x: float) -> float:
    """log P(Gamma(shape, 1) > x) for integer shape, via the Erlang series."""
    if x <= 0.0:
        return 0.0
    terms = [-x + t * math.log(x) - math.lgamma(t + 1) for t in range(shape)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


@lru_cache(maxsize=4096)
def erlang_upper_quantile(shape: int, alpha: float) -> float:
    """Smallest x with P(Gamma(shape, 1) > x) <= alpha, by bisection."""
    if shape < 1:
        raise ValueError(f"shape must be >= 1, got {shape}")
    log_alpha = math.log(alpha)
    lo, hi = 0.0, shape + 20.0 * math.sqrt(shape) + 50.0
    while _erlang_log_sf(shape, hi) > log_alpha:  # far tails lie past the first bracket
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _erlang_log_sf(shape, mid) > log_alpha:
            lo = mid
        else:
            hi = mid
    return hi


class _Scheme:
    """Per-key ``generate``/``detect`` as the batch of one.

    Subclasses supply, for the keys named by ``seeds`` (an int array or list):
    ``keyed(lm, seeds, n)``, the draws a detector recomputes from each key for
    text of length n; ``sample(lm, seeds, keyed)``, the token paths
    ``[len(seeds), cfg.n]`` and one meta per key (keyed binary's start index,
    None for the other schemes); and ``test(lm, seeds, keyed, tokens, meta)``,
    the statistic and the reject flag per key for the token array ``tokens``.
    ``meta(lm, seeds, keyed)`` is ``sample``'s meta alone.  ``detect``
    rejects any token that is not an integer in 0..V-1.
    """

    def __init__(self, cfg):
        self.cfg = cfg

    def meta(self, lm: ToyLM, seeds, keyed) -> list:
        return [None] * len(seeds)

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        seeds = [key.seed]
        tokens, meta = self.sample(lm, seeds, self.keyed(lm, seeds, self.cfg.n))
        return GenRun(tokens=tuple(tokens[0].tolist()), meta=meta[0])

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta=None) -> Detection:
        seeds = [key.seed]
        tokens = tuple(tokens)
        for tok in tokens:
            if not (isinstance(tok, (int, np.integer)) and 0 <= tok < lm.vocab_size):
                raise ValueError(f"token {tok!r} is not an integer in 0..{lm.vocab_size - 1}")
        tokens = np.array([tokens], dtype=np.int64)
        keyed = self.keyed(lm, seeds, tokens.shape[1])
        statistic, reject = self.test(lm, seeds, keyed, tokens, [meta])
        return Detection(statistic=float(statistic[0]), reject=bool(reject[0]))


# ---------------------------------------------------------------------------
# soft red list


@dataclass(frozen=True)
class SoftRedListConfig(_SchemeConfig):
    gamma: float = 0.5
    delta: float = 2.0
    vocab_size: int = 2

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"green fraction must be in (0,1), got {self.gamma!r}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"boost must be finite and >= 0, got {self.delta!r}")
        g = self.green_size
        if not 1 <= g <= self.vocab_size - 1:
            raise ValueError(f"green list size {g} degenerate for vocab {self.vocab_size}")

    @property
    def green_size(self) -> int:
        return int(round(self.gamma * self.vocab_size))


class SoftRedList(_Scheme):
    """Keyed green/red partition per position; boosted generation."""

    name = "soft-red-list"

    def keyed(self, lm: ToyLM, seeds, n: int) -> np.ndarray:
        """Each key's green masks ``[n, V]``: the first g entries of a keyed shuffle per position."""
        if lm.vocab_size != self.cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        tiled = np.tile(np.arange(self.cfg.vocab_size), (n, 1))
        gens = substreams(seeds, (_D_PARTITION,))
        perms = np.array([rng.permuted(tiled, axis=1) for rng in gens])
        masks = np.zeros(perms.shape, dtype=bool)
        np.put_along_axis(masks, perms[..., : self.cfg.green_size], True, axis=2)
        return masks

    def sample(self, lm: ToyLM, seeds, masks: np.ndarray):
        cfg = self.cfg
        probs = lm.tables.probs
        boost = math.exp(cfg.delta)
        us = substream_uniforms(seeds, (_D_PROVIDER,), cfg.n)

        def boosted(j: int, prev: np.ndarray) -> np.ndarray:
            rows = probs[prev]
            cdf = np.cumsum(np.where(masks[:, j], rows * boost, rows), axis=1)
            return inverse_cdf(cdf, us[:, j] * cdf[:, -1], "right")

        return lm.paths(len(seeds), cfg.n, boosted), self.meta(lm, seeds, masks)

    def test(self, lm: ToyLM, seeds, masks: np.ndarray, tokens: np.ndarray, meta):
        cfg = self.cfg
        count, n = tokens.shape
        green = masks[np.arange(count)[:, None], np.arange(n), tokens].sum(axis=1)
        threshold = binomial_reject_threshold(
            n, cfg.green_size, cfg.vocab_size, cfg.target_alpha
        )
        return green.astype(float), green >= threshold


# ---------------------------------------------------------------------------
# keyed binary sampling after an entropy budget


@dataclass(frozen=True)
class ChristBinaryConfig(_SchemeConfig):
    entropy_threshold: float = 3.0  # nats accrued before the keyed phase

    def __post_init__(self):
        super().__post_init__()
        if not self.entropy_threshold >= 0.0:  # inf is legal: the keyed phase never starts
            raise ValueError(f"entropy threshold must be >= 0, got {self.entropy_threshold!r}")


class ChristBinary(_Scheme):
    """Unkeyed entropy-accruing prefix, then keyed inverse-transform bits.

    The watermark start index is part of the transmitted region description.
    If the entropy budget is never met the whole sequence is unkeyed and
    detection fails closed (never rejects).
    """

    name = "keyed-binary"

    def keyed(self, lm: ToyLM, seeds, n: int) -> np.ndarray:
        """Keyed uniforms; the keyed token at position j uses draw j - start."""
        return substream_uniforms(seeds, (_D_CHRIST_U,), n)

    def _unkeyed(self, lm: ToyLM, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Each key's unkeyed model path and its start index: surprisal accrued in
        position order never falls, so the keyed positions are a suffix."""
        if lm.vocab_size != 2:
            raise ValueError("this scheme needs a binary model")
        walk = lm.sample_paths(substream_uniforms(seeds, (_D_PROVIDER,), self.cfg.n))
        accrued = np.subtract.accumulate(lm.step_logprobs(walk), axis=1)
        return walk, np.count_nonzero(accrued[:, :-1] < self.cfg.entropy_threshold, axis=1)

    def meta(self, lm: ToyLM, seeds, us: np.ndarray) -> list:
        return self._unkeyed(lm, seeds)[1].tolist()

    def sample(self, lm: ToyLM, seeds, us: np.ndarray):
        """The unkeyed path before the start, then tokens ``u <= p1[prev]``."""
        walk, starts = self._unkeyed(lm, seeds)
        probs = lm.tables.probs
        since = np.arange(self.cfg.n) - starts[:, None]  # keyed draws used before position j
        keyed_u = np.take_along_axis(us, np.maximum(since, 0), axis=1)
        return lm.paths(len(seeds), self.cfg.n, lambda j, prev: np.where(
            since[:, j] >= 0, keyed_u[:, j] <= probs[prev, 1], walk[:, j])), starts.tolist()

    def test(self, lm: ToyLM, seeds, us: np.ndarray, tokens: np.ndarray, meta):
        cfg = self.cfg
        length = tokens.shape[1]
        if None in meta:
            raise ValueError("keyed binary detection needs the watermark start index (meta)")
        starts = np.array([int(start) for start in meta], dtype=np.int64)
        for start in starts:
            if not 0 <= start <= length:
                raise ValueError(f"start index {start} outside 0..{length}")
        statistic = np.zeros(len(tokens))
        reject = np.zeros(len(tokens), dtype=bool)
        # trials sharing a start sum rows of equal length: one row-wise np.sum
        for start in np.unique(starts[starts < length]).tolist():
            rows = np.flatnonzero(starts == start)
            m = length - start
            keyed_u = us[rows, :m]
            vals = np.where(tokens[rows, start:] == 1, keyed_u, 1.0 - keyed_u)
            with np.errstate(divide="ignore"):
                statistic[rows] = np.sum(-np.log(vals), axis=1)
            reject[rows] = statistic[rows] >= erlang_upper_quantile(m, cfg.target_alpha)
        return statistic, reject


# ---------------------------------------------------------------------------
# inverse transform sampling with a permutation-test detector


@dataclass(frozen=True)
class ItsConfig(_SchemeConfig):
    resamples: int = 99
    block_k: int = 10
    vocab_size: int = 2

    def __post_init__(self):
        super().__post_init__()
        _check_int(resamples=self.resamples, block_k=self.block_k)
        if self.resamples < 1:
            raise ValueError(f"resamples must be >= 1, got {self.resamples}")
        if self.block_k < 2:
            raise ValueError(f"block size must be >= 2, got {self.block_k}")
        if self.n < self.block_k:
            raise ValueError(f"length {self.n} shorter than block size {self.block_k}")
        if (self.resamples + 1) * self.target_alpha < 1.0:
            warnings.warn(
                f"p-value floor 1/{self.resamples + 1} exceeds the level "
                f"{self.target_alpha}; this detector can never reject",
                stacklevel=2,
            )


def _alignment_workspace(batch: int, length: int, window: int, vocab: int) -> tuple:
    """Float32 buffers of ``_alignment_phi`` at one shape: the padded draws, a cost row per
    token a text can hold (min(V, L)), ``window + 1`` prefix planes, the difference and minimum."""
    padded = 2 * length - 1
    shapes = ((padded, batch), (min(vocab, length), padded, batch),
              (window + 1, length, batch), (2, length, batch))
    return tuple(np.empty(shape, dtype=np.float32) for shape in shapes)


def _alignment_phi(u_all: np.ndarray, rank_norm: np.ndarray, tokens: np.ndarray, window: int,
                   work: tuple) -> np.ndarray:
    """Minimum block alignment cost for each keyed draw in the batch.

    cost[t, j, i] = sum over the window of |u[t, (j+l) % L] - rank_norm[token
    at i+l]|, the token's rank under the key's one permutation scaled to [0, 1].
    Grouping (j, i) pairs by their cyclic offset delta = j - i, text position b
    adds the ``[t, delta]`` slice ``b : b+L`` of one row of per-token costs
    over the cyclically padded positions to a running prefix sum, and a window
    sum is that prefix sum minus the one ``window`` positions back.  One
    streaming O(L^2) pass per batch row with a ring of ``window + 1`` prefix
    sums, in float32: ties are broken conservatively by the <= rank comparison.
    Every buffer is ``work``'s, an ``_alignment_workspace``.
    """
    length = u_all.shape[1]
    u_pad, costs, ring, (diff, best) = work
    # [padded position i, t]: positions run along the first axis, so each
    # slice b : b+L below is one contiguous [delta, t] block
    u_pad[:length] = u_all.T
    u_pad[length:] = u_all[:, :-1].T
    seen, token_row = np.unique(tokens, return_inverse=True)
    # [token row, i, t]: |u at i - rank of that token|
    costs = np.subtract(u_pad, rank_norm[seen].astype(np.float32)[:, None, None], out=costs[: len(seen)])
    np.abs(costs, out=costs)
    ring[-1] = 0.0  # the prefix sum before position 0
    best.fill(np.inf)
    for b in range(length):
        prefix = ring[b % (window + 1)]
        np.add(ring[(b - 1) % (window + 1)], costs[token_row[b], b : b + length], out=prefix)
        if b >= window - 1:  # at b = window - 1 the slot read is the zero prefix
            np.subtract(prefix, ring[(b - window) % (window + 1)], out=diff)
            np.minimum(best, diff, out=best)
    return best.min(axis=0)


class InverseTransform(_Scheme):
    """Keyed permuted-CDF sampling; alignment-rank permutation test."""

    name = "inverse-transform"

    def keyed(self, lm: ToyLM, seeds, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Each key's n uniforms and its one permutation ``[V]`` (rank -> token)."""
        if lm.vocab_size != self.cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        perms = [rng.permutation(self.cfg.vocab_size) for rng in substreams(seeds, (_D_ITS_PI,))]
        return substream_uniforms(seeds, (_D_ITS_U,), n), np.array(perms)

    def sample(self, lm: ToyLM, seeds, xi: tuple[np.ndarray, np.ndarray]):
        cfg = self.cfg
        us, perms = xi
        probs = lm.tables.probs
        paths = np.arange(len(seeds))

        def permuted(j: int, prev: np.ndarray) -> np.ndarray:
            """Inverse transform through the CDF taken in permuted rank order."""
            cum = np.cumsum(probs[prev[:, None], perms], axis=1)
            return perms[paths, inverse_cdf(cum, us[:, j], "left")]

        return lm.paths(len(seeds), cfg.n, permuted), self.meta(lm, seeds, xi)

    def test(self, lm: ToyLM, seeds, xi: tuple[np.ndarray, np.ndarray], tokens: np.ndarray, meta):
        """Each key's p-value, its draw's alignment cost ranked among its resamples.  All keys
        share one draw matrix (the draws, then ``rng.random((R, L))``'s stream) and workspace."""
        cfg = self.cfg
        length = tokens.shape[1]
        if length < cfg.block_k:
            raise ValueError(f"need at least {cfg.block_k} tokens, got {length}")
        p_values = np.empty(len(seeds))
        rank_norm = np.argsort(xi[1], axis=1) / max(cfg.vocab_size - 1, 1)  # each token's rank
        u_all = np.empty((cfg.resamples + 1, xi[0].shape[1]))
        work = _alignment_workspace(*u_all.shape, cfg.block_k - 1, cfg.vocab_size)
        for i, (rng, us) in enumerate(zip(substreams(seeds, (_D_ITS_RESAMPLE,)), xi[0])):
            u_all[0] = us
            rng.random(out=u_all[1:])
            phi = _alignment_phi(u_all, rank_norm[i], tokens[i], cfg.block_k - 1, work)
            p_values[i] = (1.0 + float(np.sum(phi[1:] <= phi[0]))) / (cfg.resamples + 1.0)
        return p_values, p_values <= cfg.target_alpha


# ---------------------------------------------------------------------------
# the optimal coupling at sequence level


@dataclass(frozen=True)
class UmpSequenceConfig(_SchemeConfig):
    """Length and level alone: the region needs no other parameter."""


class UmpSequence(_Scheme):
    """Key regenerates the model output; region is that sequence, clipped.

    The region is the singleton {X} with probability min(1, alpha / P(X)),
    empty otherwise, which attains the optimal Type II error among all
    level-alpha schemes.  Detection needs model access to recompute X.
    """

    name = "ump-sequence"

    def keyed(self, lm: ToyLM, seeds, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Each key's region: its sequence X of the configured length, whatever
        the text length n, and whether the region is live."""
        cfg = self.cfg
        x = lm.sample_paths(substream_uniforms(seeds, (_D_UMP_X,), cfg.n))
        log_accept = (math.log(cfg.target_alpha) - lm.logprobs(x)).tolist()
        accept = [1.0 if la >= 0.0 else math.exp(la) for la in log_accept]
        return x, substream_uniforms(seeds, (_D_UMP_COIN,), 1)[:, 0] <= np.array(accept)

    def sample(self, lm: ToyLM, seeds, region: tuple[np.ndarray, np.ndarray]):
        return region[0], self.meta(lm, seeds, region)

    def test(self, lm: ToyLM, seeds, region: tuple[np.ndarray, np.ndarray], tokens, meta):
        x, live = region
        same = (tokens == x).all(axis=1) if tokens.shape == x.shape else False
        reject = live & same
        return reject.astype(float), reject


# ---------------------------------------------------------------------------
# empirical error rates


def _rejections(scheme, lm: ToyLM, trials: int, seed: int, null_text: bool) -> int:
    """Rejections over ``trials`` keyed trials, run in blocks of TRIAL_BLOCK.

    Each trial realizes a region with a fresh keyed run and tests either that
    run's text or, with ``null_text``, model text the key never saw.
    """
    _check_int(trials=trials, seed=seed)
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    n = scheme.cfg.n
    domain = _D_NULL_KEY if null_text else _D_WM_KEY

    def block(b: int) -> int:
        ts = np.arange(b * TRIAL_BLOCK, min((b + 1) * TRIAL_BLOCK, trials))
        seeds = substream_keys(seed, (domain, ts))
        keyed = scheme.keyed(lm, seeds, n)
        if null_text:  # the key's own text would go unread
            tokens = lm.sample_paths(substream_uniforms(seed, (_D_NULL_TEXT, ts), n))
            meta = scheme.meta(lm, seeds, keyed)
        else:
            tokens, meta = scheme.sample(lm, seeds, keyed)
        return int(np.count_nonzero(scheme.test(lm, seeds, keyed, tokens, meta)[1]))

    return sum(map_trials(block, -(-trials // TRIAL_BLOCK)))


def estimate_type1(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Rejection rate on independent model text, with binomial stderr."""
    rate = _rejections(scheme, lm, trials, seed, null_text=True) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def estimate_type2(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Miss rate on watermarked text, with binomial stderr."""
    rate = (trials - _rejections(scheme, lm, trials, seed, null_text=False)) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)

