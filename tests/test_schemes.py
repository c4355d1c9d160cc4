import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import oracles
from oracles import its_token
from wmstat import schemes
from wmstat.dist import DiscreteDist
from wmstat.lm import (ToyLM, biased_binary_lm, deterministic_lm, drifting_lm,
                       fair_coin_lm, load_lm, save_lm)
from wmstat.agnostic import UniformRegionLaw
from wmstat.rates import (hard_instance, min_tokens_upper_bound, type2_product_exact,
                          type2_product_mc)
from wmstat.streams import substream, substream_uniforms
from wmstat.schemes import (
    ChristBinary,
    ChristBinaryConfig,
    InverseTransform,
    ItsConfig,
    SoftRedList,
    SoftRedListConfig,
    UmpSequence,
    UmpSequenceConfig,
    TRIAL_BLOCK,
    WatermarkKey,
    _alignment_phi,
    _alignment_workspace,
    _erlang_log_sf,
    binomial_reject_threshold,
    erlang_upper_quantile,
    estimate_type1,
    estimate_type2,
)

LN2 = math.log(2)


def tv_keys(count: int) -> list[WatermarkKey]:
    return [WatermarkKey(seed=900_000 + t) for t in range(count)]


def sequence_tv(lm: ToyLM, tokens: np.ndarray) -> float:
    """TV between the empirical law of the token rows and the model law."""
    keys, n = tokens.shape
    counts = Counter(map(tuple, tokens.tolist()))
    exact = {tuple(seq): p for seq, p in oracles.enumerate_sequences(lm, n)}
    support = set(exact) | set(counts)
    return 0.5 * sum(
        abs(counts.get(s, 0) / keys - exact.get(s, 0.0)) for s in support
    )


def empirical_sequence_tv(lm: ToyLM, scheme, n: int, keys: int) -> float:
    """TV between the law of generated sequences over keys and the model law.

    All keys go through one batched generation call.
    """
    seeds = [key.seed for key in tv_keys(keys)]
    tokens, _ = scheme.sample(lm, seeds, scheme.keyed(lm, seeds, n))
    return sequence_tv(lm, tokens)


def tv_tolerance(outcomes: int, keys: int) -> float:
    """Three times the expected TV of an empirical law (Cauchy-Schwarz bound)."""
    return 3 * 0.5 * math.sqrt(2 * outcomes / (math.pi * keys))


class TestNullQuantiles:
    def test_binomial_threshold_is_exact_quantile(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, g, vocab, alpha in ((50, 1, 2, 0.05), (200, 1, 2, 0.01), (64, 3, 8, 0.05)):
            c = binomial_reject_threshold(n, g, vocab, alpha)
            p = g / vocab
            assert scipy_stats.binom.sf(c - 1, n, p) <= alpha + 1e-12
            assert scipy_stats.binom.sf(c - 2, n, p) > alpha

    def test_erlang_quantile_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for m, alpha in ((1, 0.05), (10, 0.01), (100, 0.05), (45, 0.001)):
            got = erlang_upper_quantile(m, alpha)
            want = scipy_stats.gamma.isf(alpha, m)
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("shape, alpha", [(1, 1e-40), (5, 1e-60), (50, 1e-100)])
    def test_erlang_quantile_beyond_first_bracket(self, shape, alpha):
        # the smallest float whose tail is at most alpha, far past shape + 20 sqrt(shape) + 50
        q = erlang_upper_quantile(shape, alpha)
        assert _erlang_log_sf(shape, q) <= math.log(alpha) < _erlang_log_sf(shape, math.nextafter(q, 0.0))

    def test_zero_length(self):
        assert binomial_reject_threshold(0, 1, 2, 0.05) == 1


class TestSoftRedList:
    def cfg(self, **kw):
        base = dict(n=50, target_alpha=0.05, gamma=0.5, delta=2.0, vocab_size=2)
        base.update(kw)
        return SoftRedListConfig(**base)

    def test_determinism(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg())
        key = WatermarkKey(1234)
        assert scheme.generate(lm, key).tokens == scheme.generate(lm, key).tokens

    def test_zero_boost_distortion_free(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg(n=4, delta=0.0))
        tv = empirical_sequence_tv(lm, scheme, 4, 40_000)
        assert tv <= tv_tolerance(16, 40_000)

    def test_boost_raises_green_frequency(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg(n=50, delta=2.0))
        greens = total = 0
        for t in range(400):
            key = WatermarkKey(700 + t)
            run = scheme.generate(lm, key)
            masks = oracles.green_masks(scheme, key, 50)
            greens += int(masks[np.arange(50), np.asarray(run.tokens)].sum())
            total += 50
        freq = greens / total
        # fair unigram: boosted green probability is e^2/(1+e^2) ~ 0.881
        assert freq > 0.5 + 0.05
        assert freq == pytest.approx(math.exp(2) / (1 + math.exp(2)), abs=0.02)

    def test_distortion_grows_with_boost(self):
        # an asymmetric model: the keyed partition averages away any boost on
        # a fair coin, so distortion only shows on non-uniform rows
        lm = biased_binary_lm(0.7, 0.6)
        # common random numbers: the same keys for every delta, and the green
        # masks, which do not depend on the boost, derived once
        seeds = [key.seed for key in tv_keys(30_000)]
        masks = SoftRedList(self.cfg(n=3)).keyed(lm, seeds, 3)
        tvs = []
        for delta in (0.0, 0.5, 1.0, 2.0, 4.0):
            tokens, _ = SoftRedList(self.cfg(n=3, delta=delta)).sample(lm, seeds, masks)
            tvs.append(sequence_tv(lm, tokens))
        assert all(b > a for a, b in zip(tvs, tvs[1:]))

    def test_null_calibration(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg(n=100, target_alpha=0.05))
        rate, stderr = estimate_type1(scheme, lm, trials=2000, seed=31)
        assert rate <= 0.05 + 4 * max(stderr, 1e-9)

    def test_watermark_power_regression(self):
        # recorded baseline: rejection rate 1.0 at this config and seed
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg(n=200, target_alpha=0.01, delta=5.0))
        miss, _ = estimate_type2(scheme, lm, trials=400, seed=3)
        assert 1.0 - miss >= 0.9

    def test_empty_text(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(self.cfg(n=0))
        det = scheme.detect(lm, WatermarkKey(5), ())
        assert det.statistic == 0.0 and det.reject is False

    def test_degenerate_green_size_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            SoftRedListConfig(n=10, target_alpha=0.05, gamma=0.01, delta=1.0, vocab_size=2)


class TestChristBinary:
    def test_entropy_budget_start(self):
        lm = fair_coin_lm()
        scheme = ChristBinary(ChristBinaryConfig(n=30, target_alpha=0.01, entropy_threshold=10 * LN2))
        for s in (1, 2, 3):
            assert scheme.generate(lm, WatermarkKey(s)).meta == 10

    @pytest.mark.parametrize("k", [0, 1, 7, 30, 40])
    def test_start_at_exact_budget(self, k):
        # fair-coin surprisal is log 2 a token, so the budget, k copies of it
        # added in order, is met exactly after k tokens (k = n: never keyed)
        threshold = 0.0
        for _ in range(k):
            threshold += LN2
        lm = fair_coin_lm()
        scheme = ChristBinary(ChristBinaryConfig(n=40, target_alpha=0.05, entropy_threshold=threshold))
        keys = [WatermarkKey(seed=300 + t) for t in range(20)]
        seeds = [key.seed for key in keys]
        keyed = scheme.keyed(lm, seeds, 40)
        tokens, starts = scheme.sample(lm, seeds, keyed)
        assert starts == scheme.meta(lm, seeds, keyed) == [k] * len(keys)
        for key, row in zip(keys, tokens):
            assert oracles.christ_generate_loop(scheme, lm, key) == (tuple(row.tolist()), k)

    def test_deterministic_lm_fails_closed(self):
        lm = deterministic_lm(2)
        scheme = ChristBinary(ChristBinaryConfig(n=20, target_alpha=0.05, entropy_threshold=1.0))
        run = scheme.generate(lm, WatermarkKey(7))
        assert run.meta == 20  # budget never met: fully unkeyed
        det = scheme.detect(lm, WatermarkKey(7), run.tokens, run.meta)
        assert det.statistic == 0.0 and det.reject is False

    def test_distortion_free_marginal(self):
        lm = fair_coin_lm()
        scheme = ChristBinary(ChristBinaryConfig(n=8, target_alpha=0.05, entropy_threshold=3.0))
        tv = empirical_sequence_tv(lm, scheme, 8, 100_000)
        assert tv <= tv_tolerance(256, 100_000)

    def test_null_calibration(self):
        lm = fair_coin_lm()
        scheme = ChristBinary(ChristBinaryConfig(n=100, target_alpha=0.05, entropy_threshold=3.0))
        rate, stderr = estimate_type1(scheme, lm, trials=2000, seed=33)
        assert rate <= 0.05 + 4 * max(stderr, 1e-9)

    def test_watermark_power_regression(self):
        # watermarked segment of length 100: recorded rejection rate 1.0
        lm = fair_coin_lm()
        scheme = ChristBinary(
            ChristBinaryConfig(n=110, target_alpha=0.01, entropy_threshold=10 * LN2)
        )
        miss, _ = estimate_type2(scheme, lm, trials=400, seed=3)
        assert 1.0 - miss >= 0.95

    def test_needs_binary_model(self):
        scheme = ChristBinary(ChristBinaryConfig(n=10, target_alpha=0.05))
        with pytest.raises(ValueError, match="binary"):
            scheme.generate(drifting_lm(4), WatermarkKey(1))


class TestInverseTransform:
    def test_token_example(self):
        # u beyond the first rank's mass picks the last token in CDF order
        assert its_token((0.5, 0.5), 0.999, np.array([0, 1])) == 1
        assert its_token((0.5, 0.5), 0.3, np.array([0, 1])) == 0
        assert its_token((0.5, 0.5), 0.999, np.array([1, 0])) == 0

    def test_determinism(self):
        lm = drifting_lm(4)
        scheme = InverseTransform(
            ItsConfig(n=40, target_alpha=0.05, resamples=39, block_k=8, vocab_size=4)
        )
        key = WatermarkKey(88)
        run = scheme.generate(lm, key)
        assert run.tokens == scheme.generate(lm, key).tokens
        assert scheme.detect(lm, key, run.tokens) == scheme.detect(lm, key, run.tokens)

    def test_distortion_free_marginal(self):
        lm = fair_coin_lm()
        scheme = InverseTransform(
            ItsConfig(n=4, target_alpha=0.05, resamples=19, block_k=3, vocab_size=2)
        )
        tv = empirical_sequence_tv(lm, scheme, 4, 100_000)
        assert tv <= tv_tolerance(16, 100_000)

    def test_null_calibration(self):
        lm = drifting_lm(6)
        scheme = InverseTransform(
            ItsConfig(n=50, target_alpha=0.05, resamples=19, block_k=10, vocab_size=6)
        )
        rate, stderr = estimate_type1(scheme, lm, trials=1000, seed=35)
        assert rate <= 0.05 + 4 * max(stderr, 1e-9)

    def test_watermark_power_regression(self):
        # recorded baseline: rejection rate 0.84 at this config and seed
        lm = drifting_lm(6)
        scheme = InverseTransform(
            ItsConfig(n=100, target_alpha=0.01, resamples=99, block_k=10, vocab_size=6)
        )
        miss, _ = estimate_type2(scheme, lm, trials=300, seed=21)
        assert 1.0 - miss >= 0.8

    def test_floor_warning(self):
        with pytest.warns(UserWarning, match="never reject"):
            ItsConfig(n=20, target_alpha=0.01, resamples=9, block_k=5, vocab_size=2)

    def test_too_short_text(self):
        scheme = InverseTransform(
            ItsConfig(n=20, target_alpha=0.05, resamples=19, block_k=10, vocab_size=2)
        )
        with pytest.raises(ValueError, match="tokens"):
            scheme.detect(fair_coin_lm(), WatermarkKey(1), (0, 1, 0))

    @pytest.mark.parametrize(
        "lm, n, resamples, block_k, rejects_null, misses",
        [
            (drifting_lm(6), 50, 99, 10, 20, 0),
            (fair_coin_lm(), 30, 19, 6, 11, 281),
            (drifting_lm(4), 100, 39, 10, 12, 97),
        ],
        ids=["drifting6", "fair-coin", "drifting4"],
    )
    def test_pinned_error_counts(self, lm, n, resamples, block_k, rejects_null, misses):
        # recorded counts out of 300 trials: the oracles take the keyed draws
        # from the library, so only fixed numbers catch a change in the draws
        scheme = InverseTransform(
            ItsConfig(n=n, target_alpha=0.05, resamples=resamples, block_k=block_k,
                      vocab_size=lm.vocab_size)
        )
        assert estimate_type1(scheme, lm, 300, 11)[0] == rejects_null / 300
        assert estimate_type2(scheme, lm, 300, 12)[0] == misses / 300


class TestDetectInput:
    SCHEMES = {
        "srl": SoftRedList(SoftRedListConfig(n=20, target_alpha=0.05, vocab_size=2)),
        "christ": ChristBinary(ChristBinaryConfig(n=20, target_alpha=0.05)),
        "its": InverseTransform(
            ItsConfig(n=20, target_alpha=0.05, resamples=19, block_k=5, vocab_size=2)
        ),
        "ump": UmpSequence(UmpSequenceConfig(n=20, target_alpha=0.05)),
    }

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_token_outside_vocabulary_rejected(self, name):
        lm = fair_coin_lm()
        scheme = self.SCHEMES[name]
        run = scheme.generate(lm, WatermarkKey(3))
        for bad in (-1, 2, 1.0, "1"):
            tokens = (*run.tokens[:-1], bad)
            with pytest.raises(ValueError, match=f"token {bad!r} is not an integer in 0..1"):
                scheme.detect(lm, WatermarkKey(3), tokens, run.meta)
        assert scheme.detect(lm, WatermarkKey(3), np.array(run.tokens), run.meta) == (
            scheme.detect(lm, WatermarkKey(3), run.tokens, run.meta)
        )

    def test_keyed_binary_needs_start_index(self):
        lm = fair_coin_lm()
        scheme = self.SCHEMES["christ"]
        run = scheme.generate(lm, WatermarkKey(3))
        with pytest.raises(ValueError, match="start index"):
            scheme.detect(lm, WatermarkKey(3), run.tokens)


class TestUmpSequence:
    def test_detects_own_output_often(self):
        lm = fair_coin_lm()
        scheme = UmpSequence(UmpSequenceConfig(n=50, target_alpha=0.05))
        miss, _ = estimate_type2(scheme, lm, trials=400, seed=41)
        assert miss <= 0.01

    def test_deterministic_lm_reduces_to_one_minus_alpha(self):
        lm = deterministic_lm(2)
        scheme = UmpSequence(UmpSequenceConfig(n=50, target_alpha=0.05))
        miss, stderr = estimate_type2(scheme, lm, trials=2000, seed=5)
        assert abs(miss - 0.95) <= 4 * stderr

    def test_null_rarely_matches(self):
        lm = fair_coin_lm()
        scheme = UmpSequence(UmpSequenceConfig(n=50, target_alpha=0.05))
        rate, stderr = estimate_type1(scheme, lm, trials=1000, seed=42)
        assert rate <= 0.05 + 4 * max(stderr, 1e-9)


class TestErrorEstimation:
    def test_trial_floor(self):
        lm = fair_coin_lm()
        scheme = SoftRedList(SoftRedListConfig(n=30, target_alpha=0.05, vocab_size=2))
        with pytest.raises(ValueError):
            estimate_type1(scheme, lm, trials=10, seed=1)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [(100.0, 1, "trials must be an integer"), (100, 1.5, "seed must be an integer")],
    )
    @pytest.mark.parametrize("estimate", [estimate_type1, estimate_type2])
    def test_counts_must_be_integers(self, estimate, trials, seed, message):
        scheme = SoftRedList(SoftRedListConfig(n=30, target_alpha=0.05, vocab_size=2))
        with pytest.raises(ValueError, match=message):
            estimate(scheme, fair_coin_lm(), trials=trials, seed=seed)

    def test_deterministic_lm_no_scheme_beats_one_minus_alpha(self):
        lm = deterministic_lm(2)
        alpha, n = 0.05, 30
        candidates = [
            SoftRedList(SoftRedListConfig(n=n, target_alpha=alpha, vocab_size=2)),
            ChristBinary(ChristBinaryConfig(n=n, target_alpha=alpha, entropy_threshold=1.0)),
            InverseTransform(
                ItsConfig(n=n, target_alpha=alpha, resamples=39, block_k=6, vocab_size=2)
            ),
            UmpSequence(UmpSequenceConfig(n=n, target_alpha=alpha)),
        ]
        for scheme in candidates:
            miss, stderr = estimate_type2(scheme, lm, trials=600, seed=52)
            assert miss >= 1 - alpha - 4 * max(stderr, 1e-9), scheme.name

    def test_ump_dominates_on_fair_coin(self):
        lm = fair_coin_lm()
        alpha, n, trials = 0.05, 60, 300
        ump = UmpSequence(UmpSequenceConfig(n=n, target_alpha=alpha))
        ump_miss, ump_se = estimate_type2(ump, lm, trials=trials, seed=53)
        others = [
            SoftRedList(SoftRedListConfig(n=n, target_alpha=alpha, vocab_size=2)),
            ChristBinary(ChristBinaryConfig(n=n, target_alpha=alpha, entropy_threshold=3.0)),
            InverseTransform(
                ItsConfig(n=n, target_alpha=alpha, resamples=19, block_k=10, vocab_size=2)
            ),
        ]
        for scheme in others:
            miss, se = estimate_type2(scheme, lm, trials=trials, seed=53)
            assert ump_miss <= miss + 4 * math.hypot(ump_se, se), scheme.name


class TestExactIidReferences:
    """Monte Carlo estimates against exact values, within 4 sigma of the exact rate."""

    @staticmethod
    def assert_within_4_sigma(estimate: float, exact: float, trials: int) -> None:
        assert abs(estimate - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    @pytest.mark.parametrize("model", ["fair-coin", "drifting6"])
    def test_soft_red_list_type1(self, model):
        lm = MODELS[model]
        cfg = SoftRedListConfig(n=100, target_alpha=0.05, vocab_size=lm.vocab_size)
        type1, _ = estimate_type1(SoftRedList(cfg), lm, trials=2000, seed=71)
        self.assert_within_4_sigma(type1, oracles.srl_type1_exact(cfg), 2000)

    @pytest.mark.parametrize("n", [40, 80])
    def test_ump_sequence_type2(self, n):
        row = hard_instance(0.1)
        cfg = UmpSequenceConfig(n=n, target_alpha=0.01)
        miss, _ = estimate_type2(UmpSequence(cfg), oracles.iid_lm(row), trials=4000, seed=72)
        self.assert_within_4_sigma(miss, type2_product_exact(row, n, 0.01), 4000)

    @pytest.mark.parametrize("n", [40, 80])
    def test_ump_sequence_type1(self, n):
        row = hard_instance(0.1)
        cfg = UmpSequenceConfig(n=n, target_alpha=0.01)
        type1, _ = estimate_type1(UmpSequence(cfg), oracles.iid_lm(row), trials=4000, seed=73)
        self.assert_within_4_sigma(type1, oracles.ump_type1_iid_exact(row, n, 0.01), 4000)


class TestSoftRedListDistortionOracle:
    """``oracles.srl_distortion_iid_binary``, the exact ε the dominance row below uses."""

    @pytest.mark.parametrize("delta", [0.434, 2.0])
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_soft_red_list_distortion_sums_every_sequence(self, n, delta):
        row = hard_instance(0.1)
        # the output law of one token: each partition (token 0 or token 1 green)
        # with probability 1/2, the green token's weight multiplied by e^delta
        boosted = []
        for green in (0, 1):
            weights = [p * math.exp(delta) if x == green else p for x, p in enumerate(row.probs)]
            boosted.append([w / sum(weights) for w in weights])
        per_token = [0.5 * (a + b) for a, b in zip(*boosted)]
        brute = 0.5 * math.fsum(
            abs(math.prod(row.probs[x] for x in seq) - math.prod(per_token[x] for x in seq))
            for seq in itertools.product((0, 1), repeat=n)
        )
        assert abs(oracles.srl_distortion_iid_binary(row, n, delta) - brute) <= 1e-15

    @pytest.mark.parametrize("delta", [0.434, 2.0])
    def test_soft_red_list_emits_the_averaged_boosted_law(self, delta):
        # 400 000 tokens: the unboosted row lies 9.6 sigma off at delta = 0.434
        row, n, keys = hard_instance(0.1), 100, 4000
        srl = SoftRedList(SoftRedListConfig(n=n, target_alpha=0.01, delta=delta))
        seeds = [key.seed for key in tv_keys(keys)]
        lm = oracles.iid_lm(row)
        tokens, _ = srl.sample(lm, seeds, srl.keyed(lm, seeds, n))
        majority = int(np.argmax(row.probs))
        want = oracles.srl_boosted_row(row, delta).probs[majority]
        share = float(np.mean(tokens == majority))
        assert abs(share - want) <= 4 * math.sqrt(want * (1 - want) / tokens.size)


class TestDominanceOnTheHardInstance:
    """No scheme misses less than the optimum β₀, at lengths where β₀ is far from 0 and 1.

    The model repeats ``rates.hard_instance(h)`` i.i.d. and α = 0.01, so
    β₀(n) = ``type2_product_exact`` is 0.43, 0.18 and 0.035 at h = 0.1 and
    n = 40, 80 and 150; 0.52, 0.12 and 0.0095 at h = 0.2 and n = 20, 40 and
    76; 0.41 and 0.10 at h = 0.05 and n = 100 and 250: a scheme that beat the
    optimum would show.  UMP-sequence attains β₀; keyed binary and ITS at
    ``block_k = n`` are distortion-free and cannot beat it.  Soft red list
    distorts the text by its exact ε, so its bound is the optimum at that
    budget, max(β₀ − ε, 0): binary sequences leave room C ≥ α·2ⁿ − 2 below α.
    """

    TRIALS = 2000
    CASES = ((0.1, 40), (0.1, 80), (0.1, 150), (0.2, 20), (0.2, 40), (0.2, 76), (0.05, 100),
             (0.05, 250))

    @pytest.mark.parametrize("h, n", CASES,
                             ids=[str(n) if h == 0.1 else f"h{h}-{n}" for h, n in CASES])
    def test_misses_against_the_exact_optimum(self, h, n):
        row, alpha = hard_instance(h), 0.01
        lm = oracles.iid_lm(row)
        beta0 = type2_product_exact(row, n, alpha)
        sigma = math.sqrt(beta0 * (1 - beta0) / self.TRIALS)
        ump = UmpSequence(UmpSequenceConfig(n=n, target_alpha=alpha))
        ump_miss, _ = estimate_type2(ump, lm, trials=self.TRIALS, seed=74)
        assert abs(ump_miss - beta0) <= 4 * sigma
        christ = ChristBinary(ChristBinaryConfig(n=n, target_alpha=alpha))
        christ_miss, _ = estimate_type2(christ, lm, trials=self.TRIALS, seed=74)
        assert christ_miss >= beta0 - 4 * sigma

    def test_soft_red_list_against_the_optimum_at_its_distortion(self):
        # at the default delta = 2 the distortion exceeds beta0 (0.77 at n = 100) and
        # the bound is 0; delta = 0.434 gives eps = 0.050 against beta0 = 0.116
        row, n, alpha, delta = hard_instance(0.1), 100, 0.01, 0.434
        eps = oracles.srl_distortion_iid_binary(row, n, delta)
        bound = max(type2_product_exact(row, n, alpha) - eps, 0.0)
        assert bound > 0.05
        srl = SoftRedList(SoftRedListConfig(n=n, target_alpha=alpha, delta=delta))
        miss, _ = estimate_type2(srl, oracles.iid_lm(row), trials=self.TRIALS, seed=74)
        assert miss >= bound - 4 * math.sqrt(bound * (1 - bound) / self.TRIALS)

    @pytest.mark.parametrize("h, n", [(0.2, 20), (0.1, 40)])
    def test_its_at_whole_text_block(self, h, n):
        # one trial costs about n^2 (R + 1) cells, so only the two shortest cases run
        row, alpha = hard_instance(h), 0.01
        beta0 = type2_product_exact(row, n, alpha)
        assert beta0 > 0.4
        its = InverseTransform(ItsConfig(n=n, target_alpha=alpha, block_k=n))
        miss, _ = estimate_type2(its, oracles.iid_lm(row), trials=self.TRIALS, seed=74)
        assert miss >= beta0 - 4 * math.sqrt(beta0 * (1 - beta0) / self.TRIALS)


class TestItsPowerAtWholeTextBlock:
    """With the whole text as its block (``block_k = n``), ITS's miss falls as n grows.

    At the default ``block_k = 10`` it rises instead: the resamples get about
    L² windows against the key's L aligned ones.  On ``hard_instance(0.3)``
    at α = 0.05 the miss is 0.905, 0.710 and 0.125 at n = 20, 60 and 200.
    """

    TRIALS, ALPHA = 200, 0.05

    def test_miss_falls_with_length(self):
        lm = oracles.iid_lm(hard_instance(0.3))
        misses = []
        for n in (20, 60, 200):
            its = InverseTransform(ItsConfig(n=n, target_alpha=self.ALPHA, block_k=n))
            misses.append(estimate_type2(its, lm, trials=self.TRIALS, seed=1)[0])
            level = estimate_type1(its, lm, trials=self.TRIALS, seed=1)[0]
            assert level <= self.ALPHA + 4 * math.sqrt(self.ALPHA * (1 - self.ALPHA) / self.TRIALS)
        assert misses[0] > misses[1] > misses[2]
        assert misses[2] <= 0.2


class TestToyLmIo:
    def test_roundtrip(self, tmp_path):
        lm = drifting_lm(4)
        path = tmp_path / "lm.txt"
        save_lm(lm, path)
        loaded = load_lm(path)
        assert loaded.vocab_size == 4
        assert loaded.initial.as_floats() == lm.initial.as_floats()
        for a, b in zip(loaded.transitions, lm.transitions):
            assert a.as_floats() == b.as_floats()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("tokens 2\n0.5 0.5\n")
        with pytest.raises(ValueError, match="vocab"):
            load_lm(path)

    def test_sequence_logprob(self):
        lm = fair_coin_lm()
        assert lm.sequence_logprob((0, 1, 1)) == pytest.approx(3 * math.log(0.5))
        probs = dict()
        for seq, p in oracles.enumerate_sequences(lm, 3):
            probs[seq] = p
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[(0, 1, 1)] == pytest.approx(0.125)


MODELS = {
    "fair-coin": fair_coin_lm(),
    "biased-binary": biased_binary_lm(),
    "drifting6": drifting_lm(6),
    "deterministic2": deterministic_lm(2),
    "deterministic6": deterministic_lm(6),
}
BLOCK_K = 10


def engine_schemes(lm: ToyLM, n: int, alpha: float = 0.05):
    """Every scheme the model and length allow, with small ITS resample counts."""
    vocab = lm.vocab_size
    out = [
        SoftRedList(SoftRedListConfig(n=n, target_alpha=alpha, vocab_size=vocab)),
        UmpSequence(UmpSequenceConfig(n=n, target_alpha=alpha)),
    ]
    if vocab == 2:
        out.append(ChristBinary(ChristBinaryConfig(n=n, target_alpha=alpha)))
    if n >= BLOCK_K:
        cfg = ItsConfig(n=n, target_alpha=alpha, resamples=19, block_k=BLOCK_K, vocab_size=vocab)
        out.append(InverseTransform(cfg))
    return out


def same_meta(a, b) -> bool:
    return a == b and type(a) is type(b)


class TestBatchedEngine:
    """The batched sampler and detectors against the per-token loops in oracles.py."""

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n", [0, 1, BLOCK_K, 100])
    def test_sample_sequence_and_logprob_match_loops(self, model, n):
        lm = MODELS[model]
        for t in range(20):
            tokens = lm.sample_sequence(n, substream(17, t))
            assert tokens == oracles.sample_sequence_loop(lm, n, substream(17, t))
            assert lm.sequence_logprob(tokens) == oracles.sequence_logprob_loop(lm, tokens)
        # off-model paths: zero-probability steps give -inf on both sides
        for t in range(20):
            tokens = tuple(substream(18, t).integers(lm.vocab_size, size=n).tolist())
            assert lm.sequence_logprob(tokens) == oracles.sequence_logprob_loop(lm, tokens)

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n", [0, 1, BLOCK_K, 100])
    def test_generation_matches_loops(self, model, n):
        lm = MODELS[model]
        keys = [WatermarkKey(seed=5000 + t) for t in range(37)]
        seeds = [key.seed for key in keys]
        for scheme in engine_schemes(lm, n):
            loop = oracles.SCHEME_LOOPS[type(scheme)][0]
            want = [loop(scheme, lm, key) for key in keys]
            tokens, meta = scheme.sample(lm, seeds, scheme.keyed(lm, seeds, n))
            assert tokens.shape == (len(keys), n)
            for key, row, m, (want_tokens, want_meta) in zip(keys, tokens, meta, want):
                assert tuple(row.tolist()) == want_tokens, scheme.name
                assert same_meta(m, want_meta), scheme.name
                run = scheme.generate(lm, key)
                assert run.tokens == want_tokens and same_meta(run.meta, want_meta), scheme.name

    def test_ties_break_as_the_loops_do(self):
        # a uniform equal to a CDF value: model draws go right, ITS draws go left
        lm = fair_coin_lm()
        assert lm.sample_paths(np.full((1, 3), 0.5)).tolist() == [[1, 1, 1]]
        scheme = InverseTransform(ItsConfig(n=3, target_alpha=0.1, resamples=19, block_k=2))
        perms = np.array([[0, 1], [1, 0]])
        us = np.full((2, 3), 0.5)
        tokens, _ = scheme.sample(lm, [1, 2], (us, perms))
        want = [[its_token((0.5, 0.5), 0.5, perm)] * 3 for perm in perms]
        assert tokens.tolist() == want == [[0, 0, 0], [1, 1, 1]]
        # keyed binary draws token 1 on a keyed uniform equal to p1
        christ = ChristBinary(ChristBinaryConfig(n=3, target_alpha=0.1, entropy_threshold=0.0))
        tokens, starts = christ.sample(lm, [1], np.full((1, 3), 0.5))
        assert (tokens.tolist(), starts) == ([[1, 1, 1]], [0])
        # a uniform past the CDF of a row whose float sum falls short of 1 draws
        # the last token in rank order
        short = DiscreteDist(probs=(0.5, 0.5 - 1e-13))
        lm = ToyLM(vocab_size=2, initial=short, transitions=(short, short))
        us = np.full((2, 3), np.nextafter(1.0, 0.0))
        tokens, _ = scheme.sample(lm, [1, 2], (us, perms))
        want = [[its_token(short.probs, us[0, 0], perm)] * 3 for perm in perms]
        assert tokens.tolist() == want == [[1, 1, 1], [0, 0, 0]]

    def test_keyed_binary_never_leaves_prefix_on_point_masses(self):
        lm = MODELS["deterministic2"]
        scheme = ChristBinary(ChristBinaryConfig(n=100, target_alpha=0.05))
        keys = [WatermarkKey(seed=t) for t in range(5)]
        seeds = [key.seed for key in keys]
        tokens, starts = scheme.sample(lm, seeds, scheme.keyed(lm, seeds, 100))
        assert starts == [100] * 5
        assert all(oracles.christ_generate_loop(scheme, lm, key)[1] == 100 for key in keys)
        assert (tokens == np.arange(100) % 2).all()

    @pytest.mark.parametrize("model", list(MODELS))
    def test_detection_matches_loops(self, model):
        # texts of a length other than the configured one go through the batch of one too
        lm = MODELS[model]
        for scheme in engine_schemes(lm, 40):
            generate, detect = oracles.SCHEME_LOOPS[type(scheme)]
            for t in range(6):
                key = WatermarkKey(seed=7000 + t)
                tokens, meta = generate(scheme, lm, key)
                other = oracles.sample_sequence_loop(lm, 25 + t, substream(19, t))
                if isinstance(scheme, ChristBinary):
                    cases = [(tokens, meta), (tokens, 0), (other, min(meta, len(other)))]
                else:
                    cases = [(tokens, meta), (other, meta)]
                for text, region in cases:
                    want = detect(scheme, lm, key, text, region)
                    got = scheme.detect(lm, key, text, region)
                    assert (got.statistic, got.reject) == want, scheme.name

    @pytest.mark.parametrize("model", ["fair-coin", "drifting6", "deterministic6"])
    @pytest.mark.parametrize("batched", [True, False])
    def test_streaming_alignment_bits(self, model, batched):
        # unbatched, each row is aligned as a batch of its own: no row's
        # minimum, the keyed draw's included, depends on the other rows
        lm = MODELS[model]
        vocab = lm.vocab_size
        for n, window in ((BLOCK_K, BLOCK_K - 1), (37, 1), (37, 9), (100, 9), (12, 12)):
            cfg = ItsConfig(n=n, target_alpha=0.05, resamples=19, block_k=min(BLOCK_K, n),
                            vocab_size=vocab)
            scheme = InverseTransform(cfg)
            key = WatermarkKey(seed=n * 31 + window)
            tokens = np.array(lm.sample_sequence(n, substream(23, n)))
            u_all, rank_all = oracles.its_alignment_inputs(scheme, key, n)
            assert rank_all.shape == (vocab,)
            if batched:
                work = _alignment_workspace(len(u_all), n, window, vocab)
                got = _alignment_phi(u_all, rank_all, tokens, window, work)
            else:
                work = _alignment_workspace(1, n, window, vocab)
                got = np.concatenate([_alignment_phi(u[None], rank_all, tokens, window, work)
                                      for u in u_all])
            want = oracles.alignment_phi_tensor(u_all, rank_all, tokens, window)
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (n, window)

    @pytest.mark.parametrize("window", [9, 1])
    def test_workspace_reused_across_texts_bits(self, window):
        # one workspace through texts with 6, 1 and 3 distinct tokens, each
        # under its own ranks: a cost row, ring slot or minimum left from the
        # call before would move some bit
        n, batch, vocab = 37, 20, 6
        rng = np.random.default_rng(window)
        work = _alignment_workspace(batch, n, window, vocab)
        texts = (np.arange(n) % 6, np.full(n, 4), rng.choice([0, 2, 5], n))
        for tokens, distinct in zip(texts, (6, 1, 3)):
            assert len(np.unique(tokens)) == distinct
            u_all = rng.random((batch, n))
            rank_all = rng.permutation(vocab) / (vocab - 1)
            got = _alignment_phi(u_all, rank_all, tokens, window, work)
            want = oracles.alignment_phi_tensor(u_all, rank_all, tokens, window)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (window, distinct)

    def test_workspace_call_allocates_no_plane(self):
        n, batch, window, vocab = 100, 100, 9, 6
        rng = np.random.default_rng(3)
        u_all, rank_all = rng.random((batch, n)), rng.permutation(vocab) / (vocab - 1)
        tokens = rng.integers(vocab, size=n)
        work = _alignment_workspace(batch, n, window, vocab)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _alignment_phi(u_all, rank_all, tokens, window, work)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak  # one [2L-1, batch] float32 plane is 78 KiB

    def test_vocab_larger_than_text(self, monkeypatch):
        # V = 32 > L = 12: the cost table holds a row per distinct token a
        # text can have, and one workspace serves every trial of the block
        lm = drifting_lm(32)
        scheme = InverseTransform(ItsConfig(n=12, target_alpha=0.05, resamples=19,
                                            block_k=BLOCK_K, vocab_size=32))
        works = []

        def spy(u_all, rank_norm, tokens, window, work):
            works.append(work)
            return _alignment_phi(u_all, rank_norm, tokens, window, work)

        monkeypatch.setattr(schemes, "_alignment_phi", spy)
        for estimate, null_text, seed in ((estimate_type1, True, 64), (estimate_type2, False, 65)):
            works.clear()
            assert estimate(scheme, lm, 101, seed)[0] == oracles.estimate_loop(
                scheme, lm, 101, seed, null_text
            )
            assert len(works) == 101 and all(work is works[0] for work in works)
            assert works[0][1].shape == (12, 2 * 12 - 1, 20)

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n", [0, 1, BLOCK_K])
    def test_estimates_match_loops(self, model, n):
        lm = MODELS[model]
        trials = TRIAL_BLOCK + 22  # one full block and one partial block
        for scheme in engine_schemes(lm, n):
            assert estimate_type1(scheme, lm, trials, 61)[0] == oracles.estimate_loop(
                scheme, lm, trials, 61, null_text=True
            ), scheme.name
            assert estimate_type2(scheme, lm, trials, 62)[0] == oracles.estimate_loop(
                scheme, lm, trials, 62, null_text=False
            ), scheme.name

    @pytest.mark.parametrize("model", ["fair-coin", "biased-binary", "drifting6"])
    def test_estimates_match_loops_at_length_100(self, model):
        lm = MODELS[model]
        for scheme in engine_schemes(lm, 100):
            for estimate, null_text in ((estimate_type1, True), (estimate_type2, False)):
                assert estimate(scheme, lm, 101, 63)[0] == oracles.estimate_loop(
                    scheme, lm, 101, 63, null_text
                ), scheme.name

    @pytest.mark.parametrize("model", ["fair-coin", "biased-binary", "drifting6"])
    def test_seed_array_and_int_list_agree(self, model):
        # the estimates pass an int64 array, per-key calls a list of ints;
        # both are read modulo 2**64, negative entries included
        lm = MODELS[model]
        array = np.array([0, 1, -5, 2**63 - 1, -(2**63), 2**40 + 7], dtype=np.int64)
        ints = array.tolist()
        text = lm.sample_paths(substream_uniforms(29, (1, np.arange(len(ints))), BLOCK_K))
        for scheme in engine_schemes(lm, BLOCK_K):
            keyed = [scheme.keyed(lm, seeds, BLOCK_K) for seeds in (array, ints)]
            assert same_bits(*keyed), scheme.name
            sampled = [scheme.sample(lm, seeds, keyed[0]) for seeds in (array, ints)]
            assert same_bits(sampled[0][0], sampled[1][0]), scheme.name
            metas = [scheme.meta(lm, seeds, keyed[0]) for seeds in (array, ints)]
            assert sampled[0][1] == sampled[1][1] == metas[0] == metas[1], scheme.name
            for tokens, meta in (sampled[0], (text, metas[0])):
                assert same_bits(*(scheme.test(lm, seeds, keyed[0], tokens, meta)
                                   for seeds in (array, ints))), scheme.name

    @pytest.mark.parametrize("model", ["fair-coin", "biased-binary", "drifting6"])
    def test_per_key_seeds_read_modulo_2_64(self, model):
        # seeds past int64 either way: an int64 cast of [key.seed] would overflow
        lm = MODELS[model]
        for scheme in engine_schemes(lm, BLOCK_K):
            for seed in (-3, 2**64 + 5, 2**70 + 11):
                keyed = scheme.keyed(lm, [seed], BLOCK_K)
                tokens, meta = scheme.sample(lm, [seed], keyed)
                statistic, reject = scheme.test(lm, [seed], keyed, tokens, meta)
                run = scheme.generate(lm, WatermarkKey(seed))
                assert run == scheme.generate(lm, WatermarkKey(seed % 2**64)), scheme.name
                assert run.tokens == tuple(tokens[0].tolist()), scheme.name
                assert same_meta(run.meta, meta[0]), scheme.name
                det = scheme.detect(lm, WatermarkKey(seed), run.tokens, run.meta)
                assert (det.statistic, det.reject) == (statistic[0], reject[0]), scheme.name


def same_bits(a, b) -> bool:
    """Equal arrays of one dtype and shape, compared by their bytes, or tuples of them."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Replay:
    """A stand-in generator whose ``random()`` hands out the given uniforms in order."""

    def __init__(self, us):
        self._us = iter(us)

    def random(self) -> float:
        return next(self._us)


def dirichlet_lm(vocab: int, seed: int) -> ToyLM:
    rng = np.random.default_rng(seed)
    rows = [DiscreteDist(probs=oracles.random_dist(rng, vocab)) for _ in range(vocab + 1)]
    return ToyLM(vocab_size=vocab, initial=rows[-1], transitions=tuple(rows[:-1]))


def break_uniforms(lm: ToyLM) -> np.ndarray:
    """Uniform paths that reach each row, then draw every CDF value of that row
    and its two float neighbours: the ties of the inverse transform."""
    cdf, vocab = lm.tables.cdf, lm.vocab_size
    reach, frontier = {vocab: []}, [vocab]  # row -> uniforms whose path ends in it
    while frontier:
        row = frontier.pop(0)
        for tok in range(vocab):
            lower = cdf[row, tok - 1] if tok else 0.0  # draws tok exactly when it has mass
            if cdf[row, tok] > lower and tok not in reach:
                reach[tok] = reach[row] + [lower]
                frontier.append(tok)
    assert len(reach) == vocab + 1
    length = max(map(len, reach.values())) + 2
    paths = [
        prefix + [u] + [0.5] * (length - len(prefix) - 1)
        for row, prefix in reach.items()
        for c in cdf[row]
        for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))
        if u < 1.0
    ]
    return np.array(paths)


class TestRankLookup:
    """Model draws by rank among all CDF values against the per-token loop."""

    def test_dirichlet_rows_have_distinct_cdf_values(self):
        cdf = dirichlet_lm(64, 12).tables.cdf[:, :-1]  # the last entry of a row is guarded to 1
        assert len(np.unique(cdf)) == cdf.size

    @pytest.mark.parametrize("model", ["dirichlet64", *MODELS])
    def test_sample_paths_at_every_break(self, model):
        lm = dirichlet_lm(64, 12) if model == "dirichlet64" else MODELS[model]
        us = break_uniforms(lm)
        want = [oracles.sample_sequence_loop(lm, us.shape[1], Replay(row)) for row in us.tolist()]
        assert [tuple(row) for row in lm.sample_paths(us).tolist()] == want

    @pytest.mark.parametrize("model", list(MODELS))
    @pytest.mark.parametrize("n", [0, 1, BLOCK_K, 100])
    def test_meta_matches_sample(self, model, n):
        # Type I trials take the meta alone
        lm = MODELS[model]
        keys = [WatermarkKey(seed=8000 + t) for t in range(37)]
        seeds = [key.seed for key in keys]
        for scheme in engine_schemes(lm, n):
            keyed = scheme.keyed(lm, seeds, n)
            meta = scheme.meta(lm, seeds, keyed)
            want = scheme.sample(lm, seeds, keyed)[1]
            assert meta == want and all(map(same_meta, meta, want)), scheme.name


class TestSchemeConfigs:
    """The four configs share their first two fields and the checks on them."""

    FIELDS = {
        SoftRedListConfig: (("n", None), ("target_alpha", None), ("gamma", 0.5), ("delta", 2.0),
                            ("vocab_size", 2)),
        ChristBinaryConfig: (("n", None), ("target_alpha", None), ("entropy_threshold", 3.0)),
        ItsConfig: (("n", None), ("target_alpha", None), ("resamples", 99), ("block_k", 10),
                    ("vocab_size", 2)),
        UmpSequenceConfig: (("n", None), ("target_alpha", None)),
    }

    @pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
    def test_fields_and_defaults(self, config):
        got = tuple(
            (f.name, None if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(config)
        )
        assert got == self.FIELDS[config]
        # positional construction in field order
        cfg = config(20, 0.05, *(default for _, default in self.FIELDS[config][2:]))
        assert (cfg.n, cfg.target_alpha) == (20, 0.05)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n = 30

    @pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
    def test_length_must_be_an_integer(self, config):
        with pytest.raises(ValueError, match=re.escape("n must be an integer, got 20.5")):
            config(n=20.5, target_alpha=0.05)

    @pytest.mark.parametrize("field", ["resamples", "block_k"])
    def test_its_counts_must_be_integers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 9.5"):
            ItsConfig(n=20, target_alpha=0.05, **{field: 9.5})

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_soft_red_list_boost_must_be_finite(self, delta):
        with pytest.raises(ValueError, match=re.escape(f"boost must be finite and >= 0, got {delta!r}")):
            SoftRedListConfig(n=20, target_alpha=0.05, delta=delta)

    def test_keyed_binary_threshold_must_not_be_nan(self):
        with pytest.raises(ValueError, match="entropy threshold must be >= 0, got nan"):
            ChristBinaryConfig(n=20, target_alpha=0.05, entropy_threshold=math.nan)
        # an infinite threshold fails closed: the keyed phase never starts
        scheme = ChristBinary(ChristBinaryConfig(n=20, target_alpha=0.05, entropy_threshold=math.inf))
        assert estimate_type2(scheme, fair_coin_lm(), trials=100, seed=3) == (1.0, 0.0)

    @pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
    def test_common_checks(self, config):
        with warnings.catch_warnings():
            # the length and level are checked before ITS's p-value floor warning
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("length must be >= 0, got -1")):
                config(n=-1, target_alpha=0.05)
            for alpha in (0.0, 1.0, -0.5, 1.5):
                with pytest.raises(ValueError, match=re.escape(f"alpha must be in (0,1), got {alpha!r}")):
                    config(n=20, target_alpha=alpha)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: erlang_upper_quantile(0, 0.05), "shape must be >= 1, got 0"),
        (lambda: SoftRedListConfig(n=5, target_alpha=0.05, gamma=1.0),
         r"green fraction must be in \(0,1\), got 1.0"),
        (lambda: SoftRedList(SoftRedListConfig(n=5, target_alpha=0.05, vocab_size=3)).keyed(
            fair_coin_lm(), [1], 5), "config vocab size must match the model"),
        (lambda: ChristBinary(ChristBinaryConfig(n=3, target_alpha=0.05)).detect(
            fair_coin_lm(), WatermarkKey(seed=1), (0, 1, 1), meta=4),
         "start index 4 outside 0..3"),
        (lambda: ItsConfig(n=10, target_alpha=0.05, resamples=0), "resamples must be >= 1, got 0"),
        (lambda: ItsConfig(n=10, target_alpha=0.05, block_k=1), "block size must be >= 2, got 1"),
        (lambda: InverseTransform(ItsConfig(n=10, target_alpha=0.05, vocab_size=3)).keyed(
            fair_coin_lm(), [1], 10), "config vocab size must match the model"),
    ],
    ids=["erlang-shape", "srl-gamma", "srl-vocab", "christ-start", "its-resamples", "its-block",
         "its-vocab"],
)
def test_scheme_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _christ_detect(meta):
    scheme = ChristBinary(ChristBinaryConfig(n=3, target_alpha=0.05))
    return scheme.detect(fair_coin_lm(), WatermarkKey(seed=1), (0, 1, 1), meta=meta)


@pytest.mark.parametrize(
    "call, good, bad, message",
    [
        (lambda v: SoftRedListConfig(n=5, target_alpha=0.05, vocab_size=v), 2, 2.5,
         "vocab_size must be an integer, got 2.5"),
        (lambda v: ItsConfig(n=10, target_alpha=0.05, vocab_size=v), 2, 2.5,
         "vocab_size must be an integer, got 2.5"),
        (lambda v: ItsConfig(n=10, target_alpha=0.05, vocab_size=v), 2, 1, "vocab size must be >= 2, got 1"),
        (lambda v: ItsConfig(n=10, target_alpha=0.05, vocab_size=v), 2, 0, "vocab size must be >= 2, got 0"),
        (_christ_detect, 2, 2.7, "start index must be an integer, got [2.7]"),
        (_christ_detect, 3, "3", "start index must be an integer, got ['3']"),
        (_christ_detect, 1, True, "start index must be an integer, got [True]"),
        (WatermarkKey, 1, 1.5, "seed must be an integer, got 1.5"),
        (lambda v: type2_product_mc(hard_instance(0.2), 5, 0.1, 100, v), 1, 1.5,
         "seed must be an integer, got 1.5"),
        (lambda v: min_tokens_upper_bound(0.1, 0.01, 0.01, v), 2, 2.5, "k must be an integer, got 2.5"),
        (lambda v: UniformRegionLaw(4, 2).hit_probability(v), 2, 2.5, "u_size must be an integer, got 2.5"),
    ],
    ids=["srl-vocab-float", "its-vocab-float", "its-vocab-1", "its-vocab-0", "christ-start-float",
         "christ-start-str", "christ-start-bool", "key-seed", "mc-seed", "upper-bound-k", "hit-size"],
)
def test_integer_inputs(call, good, bad, message):
    # a non-integer or too-small count is rejected by name; numpy integers pass
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)
    call(np.int64(good))


_HALF = DiscreteDist(probs=(0.5, 0.5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ToyLM(vocab_size=1, initial=DiscreteDist(probs=(1.0,)),
                       transitions=(DiscreteDist(probs=(1.0,)),)), "vocab size must be >= 2"),
        (lambda: ToyLM(vocab_size=2, initial=DiscreteDist.uniform(3), transitions=(_HALF, _HALF)),
         "initial distribution size must match vocab size"),
        (lambda: ToyLM(vocab_size=2, initial=_HALF, transitions=(_HALF,)),
         "need one transition row per token"),
        (lambda: ToyLM(vocab_size=2, initial=_HALF, transitions=(_HALF, DiscreteDist.uniform(3))),
         "transition row size must match vocab size"),
    ],
    ids=["vocab", "initial-size", "row-count", "row-size"],
)
def test_lm_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
