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
draws a detector recomputes from each key, ``sample`` generates one token
path per key through the model's one Markov sampler (``ToyLM.paths``), the
scheme supplying only its per-position rule, and ``test`` detects.  A
detector recomputes everything from the key except keyed binary's start index,
the only region description (``meta``) a generation hands on.  Per-key
``generate``/``detect`` are the batch of one and the error estimates run
fixed-size blocks of trials.  A batch draws each stream domain's uniforms,
and the estimates their trial keys and null text, for all its paths at once
(``streams.substream_uniforms``/``substream_keys``), and soft red list
partitions and ITS permutations and resamples come from the block's
generators (``streams.substreams``).  Every result is bit-identical to
running one key and one token at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import _check_alpha
from .dist import sample  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.schemes.sample
from .lm import ToyLM, inverse_cdf
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
class ErrorEstimates:
    type1: float
    type1_stderr: float
    type2: float
    type2_stderr: float
    trials: int


def _check_common(n: int, target_alpha: float) -> None:
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    _check_alpha(target_alpha)


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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _erlang_log_sf(shape, mid) > log_alpha:
            lo = mid
        else:
            hi = mid
    return hi


class _Scheme:
    """Per-key ``generate``/``detect`` as the batch of one.

    Subclasses supply, for a list of keys:
    ``keyed(lm, keys, n)``, the draws a detector recomputes from each key for
    text of length n; ``sample(lm, keys, keyed)``, the token paths
    ``[len(keys), cfg.n]`` and one meta per key (keyed binary's start index,
    None for the other schemes); and ``test(lm, keys, keyed, tokens, meta)``,
    the statistic and the reject flag per key for the token array ``tokens``.
    ``detect`` rejects any token that is not an integer in 0..V-1.
    """

    def __init__(self, cfg):
        self.cfg = cfg

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        keys = [key]
        tokens, meta = self.sample(lm, keys, self.keyed(lm, keys, self.cfg.n))
        return GenRun(tokens=tuple(tokens[0].tolist()), meta=meta[0])

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta=None) -> Detection:
        keys = [key]
        tokens = tuple(tokens)
        for tok in tokens:
            if not (isinstance(tok, (int, np.integer)) and 0 <= tok < lm.vocab_size):
                raise ValueError(f"token {tok!r} is not an integer in 0..{lm.vocab_size - 1}")
        tokens = np.array([tokens], dtype=np.int64)
        keyed = self.keyed(lm, keys, tokens.shape[1])
        statistic, reject = self.test(lm, keys, keyed, tokens, [meta])
        return Detection(statistic=float(statistic[0]), reject=bool(reject[0]))


# ---------------------------------------------------------------------------
# soft red list


@dataclass(frozen=True)
class SoftRedListConfig:
    n: int
    target_alpha: float
    gamma: float = 0.5
    delta: float = 2.0
    vocab_size: int = 2

    def __post_init__(self):
        _check_common(self.n, self.target_alpha)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"green fraction must be in (0,1), got {self.gamma!r}")
        if self.delta < 0.0:
            raise ValueError(f"boost must be >= 0, got {self.delta!r}")
        g = self.green_size
        if not 1 <= g <= self.vocab_size - 1:
            raise ValueError(f"green list size {g} degenerate for vocab {self.vocab_size}")

    @property
    def green_size(self) -> int:
        return int(round(self.gamma * self.vocab_size))


class SoftRedList(_Scheme):
    """Keyed green/red partition per position; boosted generation."""

    name = "soft-red-list"

    def keyed(self, lm: ToyLM, keys, n: int) -> np.ndarray:
        """Each key's green masks ``[n, V]``: the first g entries of a keyed shuffle per position."""
        tiled = np.tile(np.arange(self.cfg.vocab_size), (n, 1))
        gens = substreams([key.seed for key in keys], (_D_PARTITION,))
        perms = np.array([rng.permuted(tiled, axis=1) for rng in gens])
        masks = np.zeros(perms.shape, dtype=bool)
        np.put_along_axis(masks, perms[..., : self.cfg.green_size], True, axis=2)
        return masks

    def sample(self, lm: ToyLM, keys, masks: np.ndarray):
        cfg = self.cfg
        if lm.vocab_size != cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        probs = lm.tables.probs
        boost = math.exp(cfg.delta)
        us = substream_uniforms([key.seed for key in keys], (_D_PROVIDER,), cfg.n)

        def boosted(j: int, prev: np.ndarray) -> np.ndarray:
            rows = probs[prev]
            cdf = np.cumsum(np.where(masks[:, j], rows * boost, rows), axis=1)
            return np.minimum(inverse_cdf(cdf, us[:, j] * cdf[:, -1], "right"), cfg.vocab_size - 1)

        return lm.paths(len(keys), cfg.n, boosted), [None] * len(keys)

    def test(self, lm: ToyLM, keys, masks: np.ndarray, tokens: np.ndarray, meta):
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
class ChristBinaryConfig:
    n: int
    target_alpha: float
    entropy_threshold: float = 3.0  # nats accrued before the keyed phase

    def __post_init__(self):
        _check_common(self.n, self.target_alpha)
        if self.entropy_threshold < 0.0:
            raise ValueError(f"entropy threshold must be >= 0, got {self.entropy_threshold!r}")


class ChristBinary(_Scheme):
    """Unkeyed entropy-accruing prefix, then keyed inverse-transform bits.

    The watermark start index is part of the transmitted region description.
    If the entropy budget is never met the whole sequence is unkeyed and
    detection fails closed (never rejects).
    """

    name = "keyed-binary"

    def keyed(self, lm: ToyLM, keys, n: int) -> np.ndarray:
        """Keyed uniforms; the keyed token at position j uses draw j - start."""
        return substream_uniforms([key.seed for key in keys], (_D_CHRIST_U,), n)

    def sample(self, lm: ToyLM, keys, us: np.ndarray):
        if lm.vocab_size != 2:
            raise ValueError("this scheme needs a binary model")
        cfg = self.cfg
        tables = lm.tables
        # the unkeyed prefix is positions 0..start-1, so it uses draws 0..start-1
        prefix_us = substream_uniforms([key.seed for key in keys], (_D_PROVIDER,), cfg.n)
        paths = np.arange(len(keys))
        accrued = np.zeros(len(keys))
        drawn = np.zeros(len(keys), dtype=np.int64)  # keyed draws used: j - start once keyed

        def budgeted(j: int, prev: np.ndarray) -> np.ndarray:
            keyed = accrued >= cfg.entropy_threshold
            tok = np.where(
                keyed,
                us[paths, drawn] <= tables.probs[prev, 1],
                inverse_cdf(tables.cdf[prev], prefix_us[:, j], "right"),
            )
            # keyed paths subtract 0.0, which leaves every float as it is
            np.subtract(accrued, np.where(keyed, 0.0, tables.logp[prev, tok]), out=accrued)
            np.add(drawn, keyed, out=drawn)
            return tok

        tokens = lm.paths(len(keys), cfg.n, budgeted)
        return tokens, (cfg.n - drawn).tolist()  # the keyed positions are a suffix

    def test(self, lm: ToyLM, keys, us: np.ndarray, tokens: np.ndarray, meta):
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
class ItsConfig:
    n: int
    target_alpha: float
    resamples: int = 99
    block_k: int = 10
    vocab_size: int = 2

    def __post_init__(self):
        _check_common(self.n, self.target_alpha)
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


def _alignment_phi(u_all: np.ndarray, rank_norm: np.ndarray, tokens: np.ndarray, window: int) -> np.ndarray:
    """Minimum block alignment cost for each keyed draw in the batch.

    cost[t, j, i] = sum over the window of |u[t, (j+l) % L] - rank_norm[token
    at i+l]|, the token's rank under the key's one permutation scaled to [0, 1].
    Grouping (j, i) pairs by their cyclic offset delta = j - i, text position b
    adds the ``[t, delta]`` slice ``b : b+L`` of one row of per-token costs
    over the cyclically padded positions to a running prefix sum, and a window
    sum is that prefix sum minus the one ``window`` positions back.  One
    streaming O(L^2) pass per batch row with a ring of ``window + 1`` prefix
    sums, in float32: ties are broken conservatively by the <= rank comparison.
    """
    batch, length = u_all.shape
    # [padded position i, t]: positions run along the first axis, so each
    # slice b : b+L below is one contiguous [delta, t] block
    u_pad = np.concatenate([u_all, u_all[:, :-1]], axis=1).T.astype(np.float32)
    seen, token_row = np.unique(tokens, return_inverse=True)
    # [token row, i, t]: |u at i - rank of that token|
    costs = np.abs(u_pad - rank_norm[seen].astype(np.float32)[:, None, None])
    ring = np.empty((window + 1, length, batch), dtype=np.float32)
    ring[-1] = 0.0  # the prefix sum before position 0
    diff = np.empty((length, batch), dtype=np.float32)
    best = np.full((length, batch), np.inf, dtype=np.float32)
    for b in range(length):
        prefix = ring[b % (window + 1)]
        np.add(ring[(b - 1) % (window + 1)], costs[token_row[b], b : b + length], out=prefix)
        if b >= window:
            np.subtract(prefix, ring[(b - window) % (window + 1)], out=diff)
            np.minimum(best, diff, out=best)
        elif b == window - 1:
            np.minimum(best, prefix, out=best)
    return best.min(axis=0)


class InverseTransform(_Scheme):
    """Keyed permuted-CDF sampling; alignment-rank permutation test."""

    name = "inverse-transform"

    def _with_resamples(self, rng: np.random.Generator, us: np.ndarray, perm: np.ndarray):
        """Uniforms ``[R+1, L]`` (the keyed draw, then its resamples from the
        key's resample stream ``rng``) and each token's rank."""
        cfg = self.cfg
        resampled = rng.random((cfg.resamples, len(us)))
        u_all = np.concatenate([us[None, :], resampled], axis=0)
        return u_all, np.argsort(perm) / max(cfg.vocab_size - 1, 1)

    def keyed(self, lm: ToyLM, keys, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Each key's n uniforms and its one permutation ``[V]`` (rank -> token)."""
        seeds = [key.seed for key in keys]
        perms = [rng.permutation(self.cfg.vocab_size) for rng in substreams(seeds, (_D_ITS_PI,))]
        return substream_uniforms(seeds, (_D_ITS_U,), n), np.array(perms)

    def sample(self, lm: ToyLM, keys, xi: tuple[np.ndarray, np.ndarray]):
        cfg = self.cfg
        if lm.vocab_size != cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        us, perms = xi
        probs = lm.tables.probs
        paths = np.arange(len(keys))

        def permuted(j: int, prev: np.ndarray) -> np.ndarray:
            """Inverse transform through the CDF taken in permuted rank order."""
            cum = np.cumsum(probs[prev[:, None], perms], axis=1)
            return perms[paths, np.minimum(inverse_cdf(cum, us[:, j], "left"), cfg.vocab_size - 1)]

        return lm.paths(len(keys), cfg.n, permuted), [None] * len(keys)

    def test(self, lm: ToyLM, keys, xi: tuple[np.ndarray, np.ndarray], tokens: np.ndarray, meta):
        cfg = self.cfg
        length = tokens.shape[1]
        if length < cfg.block_k:
            raise ValueError(f"need at least {cfg.block_k} tokens, got {length}")
        p_values = np.empty(len(keys))
        resample_gens = substreams([key.seed for key in keys], (_D_ITS_RESAMPLE,))
        for i, (rng, us, perm) in enumerate(zip(resample_gens, *xi)):
            phi = _alignment_phi(*self._with_resamples(rng, us, perm), tokens[i], cfg.block_k - 1)
            p_values[i] = (1.0 + float(np.sum(phi[1:] <= phi[0]))) / (cfg.resamples + 1.0)
        return p_values, p_values <= cfg.target_alpha


# ---------------------------------------------------------------------------
# the optimal coupling at sequence level


@dataclass(frozen=True)
class UmpSequenceConfig:
    n: int
    target_alpha: float

    def __post_init__(self):
        _check_common(self.n, self.target_alpha)


class UmpSequence(_Scheme):
    """Key regenerates the model output; region is that sequence, clipped.

    The region is the singleton {X} with probability min(1, alpha / P(X)),
    empty otherwise, which attains the optimal Type II error among all
    level-alpha schemes.  Detection needs model access to recompute X.
    """

    name = "ump-sequence"

    def keyed(self, lm: ToyLM, keys, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Each key's region: its sequence X of the configured length, whatever
        the text length n, and whether the region is live."""
        cfg = self.cfg
        seeds = [key.seed for key in keys]
        x = lm.sample_paths(substream_uniforms(seeds, (_D_UMP_X,), cfg.n))
        log_accept = (math.log(cfg.target_alpha) - lm.logprobs(x)).tolist()
        accept = [1.0 if la >= 0.0 else math.exp(la) for la in log_accept]
        return x, substream_uniforms(seeds, (_D_UMP_COIN,), 1)[:, 0] <= np.array(accept)

    def sample(self, lm: ToyLM, keys, region: tuple[np.ndarray, np.ndarray]):
        return region[0], [None] * len(keys)

    def test(self, lm: ToyLM, keys, region: tuple[np.ndarray, np.ndarray], tokens, meta):
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
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    n = scheme.cfg.n
    domain = _D_NULL_KEY if null_text else _D_WM_KEY

    def block(b: int) -> int:
        ts = np.arange(b * TRIAL_BLOCK, min((b + 1) * TRIAL_BLOCK, trials))
        keys = [WatermarkKey(seed=k) for k in substream_keys(seed, (domain, ts)).tolist()]
        keyed = scheme.keyed(lm, keys, n)
        tokens, meta = scheme.sample(lm, keys, keyed)
        if null_text:
            tokens = lm.sample_paths(substream_uniforms(seed, (_D_NULL_TEXT, ts), n))
        return int(np.count_nonzero(scheme.test(lm, keys, keyed, tokens, meta)[1]))

    return sum(map_trials(block, -(-trials // TRIAL_BLOCK)))


def estimate_type1(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Rejection rate on independent model text, with binomial stderr."""
    rate = _rejections(scheme, lm, trials, seed, null_text=True) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def estimate_type2(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Miss rate on watermarked text, with binomial stderr."""
    rate = (trials - _rejections(scheme, lm, trials, seed, null_text=False)) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def estimate_errors(scheme, lm: ToyLM, trials: int, seed: int) -> ErrorEstimates:
    """Monte Carlo Type I/II errors of a scheme over fresh keys."""
    type1, type1_stderr = estimate_type1(scheme, lm, trials, seed)
    type2, type2_stderr = estimate_type2(scheme, lm, trials, seed)
    return ErrorEstimates(
        type1=type1,
        type1_stderr=type1_stderr,
        type2=type2,
        type2_stderr=type2_stderr,
        trials=trials,
    )
