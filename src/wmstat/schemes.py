"""Reference watermarking schemes as keyed (generate, detect) pairs.

Three published scheme families are implemented over the toy Markov model:

- soft red list: per-position keyed vocabulary partition with a boost on the
  green half at generation, detection by counting green tokens against an
  exact binomial null quantile;
- keyed binary sampling: an unkeyed prefix accrues an empirical-entropy
  budget, after which tokens are drawn by inverse transform from keyed
  uniforms, detection by a surprisal sum against an exact Erlang null
  quantile (distortion-free);
- inverse transform sampling: tokens drawn through a keyed permuted CDF,
  detection by a block-alignment cost ranked among keyed resamples, i.e. a
  permutation-test p-value (distortion-free).

A fourth scheme wraps the optimal coupling itself at sequence level: the key
regenerates the model output, and the rejection region is that single
sequence, accepted with probability capped by the level.  All schemes share
one protocol so their empirical Type I/II errors are directly comparable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import sample
from .lm import ToyLM
from .streams import map_trials, substream

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
    if not 0.0 < target_alpha < 1.0:
        raise ValueError(f"target alpha must be in (0,1), got {target_alpha!r}")


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


class SoftRedList:
    """Keyed green/red partition per position; boosted generation."""

    name = "soft-red-list"

    def __init__(self, cfg: SoftRedListConfig):
        self.cfg = cfg

    def _green_masks(self, key: WatermarkKey, n: int) -> np.ndarray:
        vocab, g = self.cfg.vocab_size, self.cfg.green_size
        rng = substream(key.seed, _D_PARTITION)
        perms = rng.permuted(np.tile(np.arange(vocab), (n, 1)), axis=1)
        masks = np.zeros((n, vocab), dtype=bool)
        np.put_along_axis(masks, perms[:, :g], True, axis=1)
        return masks

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        cfg = self.cfg
        if lm.vocab_size != cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        masks = self._green_masks(key, cfg.n)
        boost = math.exp(cfg.delta)
        rng = substream(key.seed, _D_PROVIDER)
        tokens: list[int] = []
        prev: int | None = None
        for i in range(cfg.n):
            row = np.asarray(lm.next_dist(prev).as_floats())
            weights = np.where(masks[i], row * boost, row)
            cdf = np.cumsum(weights)
            r = rng.random() * cdf[-1]
            prev = int(np.searchsorted(cdf, r, side="right"))
            prev = min(prev, lm.vocab_size - 1)
            tokens.append(prev)
        return GenRun(tokens=tuple(tokens))

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta=None) -> Detection:
        cfg = self.cfg
        tokens = tuple(tokens)
        n = len(tokens)
        green = 0
        if n:
            masks = self._green_masks(key, n)
            green = int(masks[np.arange(n), np.asarray(tokens)].sum())
        threshold = binomial_reject_threshold(
            n, cfg.green_size, cfg.vocab_size, cfg.target_alpha
        )
        return Detection(statistic=float(green), reject=green >= threshold)


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


class ChristBinary:
    """Unkeyed entropy-accruing prefix, then keyed inverse-transform bits.

    The watermark start index is part of the transmitted region description.
    If the entropy budget is never met the whole sequence is unkeyed and
    detection fails closed (never rejects).
    """

    name = "keyed-binary"

    def __init__(self, cfg: ChristBinaryConfig):
        self.cfg = cfg

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        if lm.vocab_size != 2:
            raise ValueError("this scheme needs a binary model")
        cfg = self.cfg
        rng_prefix = substream(key.seed, _D_PROVIDER)
        rng_u = substream(key.seed, _D_CHRIST_U)
        tokens: list[int] = []
        prev: int | None = None
        accrued = 0.0
        start = cfg.n
        for j in range(cfg.n):
            row = lm.next_dist(prev)
            if accrued >= cfg.entropy_threshold:
                if start > j:
                    start = j
                u = rng_u.random()
                tok = 1 if u <= float(row.probs[1]) else 0
            else:
                tok = sample(row, rng_prefix)
                accrued += -math.log(float(row.probs[tok]))
            tokens.append(tok)
            prev = tok
        return GenRun(tokens=tuple(tokens), meta=start)

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta) -> Detection:
        cfg = self.cfg
        tokens = tuple(tokens)
        start = int(meta)
        if not 0 <= start <= len(tokens):
            raise ValueError(f"start index {start} outside 0..{len(tokens)}")
        m = len(tokens) - start
        if m == 0:
            return Detection(statistic=0.0, reject=False)
        us = substream(key.seed, _D_CHRIST_U).random(m)
        bits = np.asarray(tokens[start:])
        vals = np.where(bits == 1, us, 1.0 - us)
        with np.errstate(divide="ignore"):
            statistic = float(np.sum(-np.log(vals)))
        threshold = erlang_upper_quantile(m, cfg.target_alpha)
        return Detection(statistic=statistic, reject=statistic >= threshold)


# ---------------------------------------------------------------------------
# inverse transform sampling with a permutation-test detector


@dataclass(frozen=True)
class ItsConfig:
    n: int
    target_alpha: float
    resamples: int = 99
    block_k: int = 10
    vocab_size: int = 2
    shared_permutation: bool = True

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


def _its_token(mu, u: float, perm: np.ndarray) -> int:
    """Inverse transform through the CDF taken in permuted rank order."""
    cum = np.cumsum(np.asarray(mu, dtype=float)[perm])
    idx = int(np.searchsorted(cum, u, side="left"))
    return int(perm[min(idx, len(perm) - 1)])


def _alignment_phi(u_all: np.ndarray, rank_norm: np.ndarray, tokens: np.ndarray, window: int) -> np.ndarray:
    """Minimum block alignment cost for each keyed draw in the batch.

    cost[t, j, i] = sum over the window of |u[t, (j+l) % L] - rank of the
    token at i+l under position (j+l)'s permutation|.  Grouping (j, i) pairs
    by their cyclic offset delta = j - i turns the cost tensor into sliding
    diagonal views of the cyclically padded inputs (no gather) and the window
    sums into cumulative-sum differences: one O(L^2) pass per batch row.
    """
    batch, length = u_all.shape
    u_pad = np.concatenate([u_all, u_all[:, :-1]], axis=1).astype(np.float32)
    # [t, delta, b] = u[t, (delta + b) % L]
    u_diag = np.lib.stride_tricks.sliding_window_view(u_pad, length, axis=1)
    if rank_norm.ndim == 1:
        # one permutation everywhere: the rank only depends on the token
        r_tok = rank_norm[tokens].astype(np.float32)
        diag = np.abs(u_diag - r_tok[None, None, :])
    else:
        per_token = rank_norm[
            np.arange(batch)[:, None, None],
            np.arange(length)[None, :, None],
            tokens[None, None, :],
        ].astype(np.float32)  # [t, xi position, y position]
        pad = np.concatenate([per_token, per_token[:, : length - 1, :]], axis=1)
        s0, s1, s2 = pad.strides
        rank_diag = np.lib.stride_tricks.as_strided(
            pad, shape=(batch, length, length), strides=(s0, s1, s1 + s2), writeable=False
        )  # [t, delta, b] = rank under pi_{(delta+b) % L} of token at b
        diag = np.abs(u_diag - rank_diag)
    # float32 costs: ties broken conservatively by the <= rank comparison
    summed = np.cumsum(diag, axis=2, dtype=np.float32)
    window_sums = summed[:, :, window - 1 :].copy()
    window_sums[:, :, 1:] -= summed[:, :, :-window]
    return window_sums.min(axis=(1, 2))


class InverseTransform:
    """Keyed permuted-CDF sampling; alignment-rank permutation test."""

    name = "inverse-transform"

    def __init__(self, cfg: ItsConfig):
        self.cfg = cfg

    def _xi(self, key: WatermarkKey, n: int) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.cfg
        us = substream(key.seed, _D_ITS_U).random(n)
        rng_pi = substream(key.seed, _D_ITS_PI)
        if cfg.shared_permutation:
            perms = np.tile(rng_pi.permutation(cfg.vocab_size), (n, 1))
        else:
            perms = np.stack([rng_pi.permutation(cfg.vocab_size) for _ in range(n)])
        return us, perms

    def _resampled_xi(self, key: WatermarkKey, n: int, perms: np.ndarray):
        cfg = self.cfg
        t = cfg.resamples
        rng = substream(key.seed, _D_ITS_RESAMPLE)
        u_res = rng.random((t, n))
        if cfg.shared_permutation:
            perm_res = np.broadcast_to(perms[0], (t, n, cfg.vocab_size))
        else:
            perm_res = np.stack(
                [np.stack([rng.permutation(cfg.vocab_size) for _ in range(n)]) for _ in range(t)]
            )
        return u_res, perm_res

    @staticmethod
    def _ranks(perms: np.ndarray, vocab: int) -> np.ndarray:
        """rank[.., token] from permutations given as rank -> token arrays."""
        ranks = np.empty_like(perms)
        np.put_along_axis(ranks, perms, np.broadcast_to(np.arange(vocab), perms.shape), axis=-1)
        return ranks / max(vocab - 1, 1)

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        cfg = self.cfg
        if lm.vocab_size != cfg.vocab_size:
            raise ValueError("config vocab size must match the model")
        us, perms = self._xi(key, cfg.n)
        tokens: list[int] = []
        prev: int | None = None
        for j in range(cfg.n):
            prev = _its_token(lm.next_dist(prev).as_floats(), us[j], perms[j])
            tokens.append(prev)
        return GenRun(tokens=tuple(tokens), meta=(us, perms))

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta=None) -> Detection:
        cfg = self.cfg
        tokens = np.asarray(tuple(tokens))
        length = len(tokens)
        if length < cfg.block_k:
            raise ValueError(f"need at least {cfg.block_k} tokens, got {length}")
        us, perms = self._xi(key, length)
        u_res, perm_res = self._resampled_xi(key, length, perms)
        u_all = np.concatenate([us[None, :], u_res], axis=0)
        if cfg.shared_permutation:
            rank_all = self._ranks(perms[0], cfg.vocab_size)
        else:
            rank_all = np.concatenate(
                [self._ranks(perms, cfg.vocab_size)[None], self._ranks(perm_res, cfg.vocab_size)],
                axis=0,
            )
        phi = _alignment_phi(u_all, rank_all, tokens, cfg.block_k - 1)
        p_value = (1.0 + float(np.sum(phi[1:] <= phi[0]))) / (cfg.resamples + 1.0)
        return Detection(statistic=p_value, reject=p_value <= cfg.target_alpha)


# ---------------------------------------------------------------------------
# the optimal coupling at sequence level


@dataclass(frozen=True)
class UmpSequenceConfig:
    n: int
    target_alpha: float

    def __post_init__(self):
        _check_common(self.n, self.target_alpha)


class UmpSequence:
    """Key regenerates the model output; region is that sequence, clipped.

    The region is the singleton {X} with probability min(1, alpha / P(X)),
    empty otherwise, which attains the optimal Type II error among all
    level-alpha schemes.  Detection needs model access to recompute X.
    """

    name = "ump-sequence"

    def __init__(self, cfg: UmpSequenceConfig):
        self.cfg = cfg

    def _region(self, lm: ToyLM, key: WatermarkKey) -> tuple[tuple[int, ...], bool]:
        x = lm.sample_sequence(self.cfg.n, substream(key.seed, _D_UMP_X))
        log_accept = math.log(self.cfg.target_alpha) - lm.sequence_logprob(x)
        accept_p = 1.0 if log_accept >= 0.0 else math.exp(log_accept)
        coin = substream(key.seed, _D_UMP_COIN).random()
        return x, coin <= accept_p

    def generate(self, lm: ToyLM, key: WatermarkKey) -> GenRun:
        x, _ = self._region(lm, key)
        return GenRun(tokens=x)

    def detect(self, lm: ToyLM, key: WatermarkKey, tokens, meta=None) -> Detection:
        x, live = self._region(lm, key)
        reject = live and tuple(tokens) == x
        return Detection(statistic=1.0 if reject else 0.0, reject=reject)


# ---------------------------------------------------------------------------
# empirical error rates


def _trial_key(seed: int, domain: int, trial: int) -> WatermarkKey:
    return WatermarkKey(seed=int(substream(seed, domain, trial).integers(1 << 62)))


def estimate_type1(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Rejection rate on independent model text, with binomial stderr.

    Each trial realizes a region with a fresh keyed run and tests text the
    key never saw.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    n = scheme.cfg.n

    def null_trial(t: int) -> float:
        key = _trial_key(seed, _D_NULL_KEY, t)
        run = scheme.generate(lm, key)
        text = lm.sample_sequence(n, substream(seed, _D_NULL_TEXT, t))
        return 1.0 if scheme.detect(lm, key, text, run.meta).reject else 0.0

    rate = math.fsum(map_trials(null_trial, trials)) / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def estimate_type2(scheme, lm: ToyLM, trials: int, seed: int) -> tuple[float, float]:
    """Miss rate on watermarked text, with binomial stderr."""
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")

    def wm_trial(t: int) -> float:
        key = _trial_key(seed, _D_WM_KEY, t)
        run = scheme.generate(lm, key)
        return 0.0 if scheme.detect(lm, key, run.tokens, run.meta).reject else 1.0

    rate = math.fsum(map_trials(wm_trial, trials)) / trials
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
