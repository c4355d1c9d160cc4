import math
from collections import Counter

import numpy as np
import pytest

import oracles
from oracles import its_token
from wmstat.lm import (ToyLM, biased_binary_lm, deterministic_lm, drifting_lm,
                       fair_coin_lm, load_lm, save_lm)
from wmstat.rates import hard_instance, type2_product_exact
from wmstat.streams import substream
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
    binomial_reject_threshold,
    erlang_upper_quantile,
    estimate_errors,
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
    batch = tv_keys(keys)
    tokens, _ = scheme.sample(lm, batch, scheme.keyed(lm, batch, n))
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
        keys = tv_keys(30_000)
        masks = SoftRedList(self.cfg(n=3)).keyed(lm, keys, 3)
        tvs = []
        for delta in (0.0, 0.5, 1.0, 2.0, 4.0):
            tokens, _ = SoftRedList(self.cfg(n=3, delta=delta)).sample(lm, keys, masks)
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
            estimate_errors(scheme, lm, trials=10, seed=1)

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
        for scheme in engine_schemes(lm, n):
            loop = oracles.SCHEME_LOOPS[type(scheme)][0]
            want = [loop(scheme, lm, key) for key in keys]
            tokens, meta = scheme.sample(lm, keys, scheme.keyed(lm, keys, n))
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
        tokens, _ = scheme.sample(lm, [WatermarkKey(1), WatermarkKey(2)], (us, perms))
        want = [[its_token((0.5, 0.5), 0.5, perm)] * 3 for perm in perms]
        assert tokens.tolist() == want == [[0, 0, 0], [1, 1, 1]]

    def test_keyed_binary_never_leaves_prefix_on_point_masses(self):
        lm = MODELS["deterministic2"]
        scheme = ChristBinary(ChristBinaryConfig(n=100, target_alpha=0.05))
        keys = [WatermarkKey(seed=t) for t in range(5)]
        tokens, starts = scheme.sample(lm, keys, scheme.keyed(lm, keys, 100))
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
                got = _alignment_phi(u_all, rank_all, tokens, window)
            else:
                got = np.concatenate([_alignment_phi(u[None], rank_all, tokens, window) for u in u_all])
            want = oracles.alignment_phi_tensor(u_all, rank_all, tokens, window)
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (n, window)

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
