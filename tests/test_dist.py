import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pascal_binom, random_dist, sample_bisect, sample_many_searchsorted
from wmstat.dist import (
    LN2,
    DiscreteDist,
    binary_entropy,
    binom_exact,
    entropy,
    inv_binary_entropy,
    sample,
    sample_many,
    tv_distance,
)
from wmstat.rates import hard_instance
from wmstat.streams import substream


class TestDiscreteDist:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDist(probs=(1.2, -0.2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDist(probs=(0.5, 0.4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDist(probs=())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiscreteDist(probs=(math.nan, 1.0))

    @pytest.mark.parametrize("bad", [np.float32("nan"), np.float32("inf"), np.float64("nan")])
    def test_rejects_non_finite_numpy_scalars(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteDist(probs=(bad, 1.0))

    def test_exactness_flag(self):
        assert DiscreteDist.uniform(3).is_exact
        assert not DiscreteDist(probs=(0.5, 0.5)).is_exact

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DiscreteDist.uniform(0), "k must be >= 1, got 0"),
            (lambda: DiscreteDist.uniform(2.5), "k must be an integer, got 2.5"),
            (lambda: DiscreteDist.uniform(True), "k must be an integer, got True"),
            (lambda: DiscreteDist.point_mass(2.5, 0), "k must be an integer, got 2.5"),
            (lambda: DiscreteDist.point_mass(3, 1.5), "outcome must be an integer, got 1.5"),
        ],
        ids=["uniform-zero", "uniform-float", "uniform-bool", "point-mass-k-float",
             "point-mass-outcome-float"],
    )
    def test_rejects_bad_counts(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestEntropy:
    def test_uniform(self):
        assert entropy(DiscreteDist.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(DiscreteDist.point_mass(5, 2)) == 0.0

    def test_two_point(self):
        # direct summation: -0.9 ln 0.9 - 0.1 ln 0.1
        want = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        got = entropy(DiscreteDist(probs=(0.9, 0.1)))
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.325083, abs=1e-6)
        assert got == pytest.approx(binary_entropy(0.1), abs=1e-15)


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)

    def test_topsoe_bounds_in_bits(self):
        # 4x(1-x) <= H_b(x)/ln2 <= (4x(1-x))^(1/ln4) on a grid
        for x in np.linspace(0.001, 0.999, 199):
            bits = binary_entropy(float(x)) / LN2
            low = 4 * x * (1 - x)
            assert low <= bits + 1e-12
            assert bits <= low ** (1 / math.log(4)) + 1e-12


class TestInverseBinaryEntropy:
    def test_max_entropy(self):
        assert inv_binary_entropy(LN2) == pytest.approx(0.5, abs=1e-9)

    def test_zero_entropy(self):
        assert inv_binary_entropy(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_example_point(self):
        h = entropy(DiscreteDist(probs=(0.9, 0.1)))
        assert inv_binary_entropy(h) == pytest.approx(0.9, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            inv_binary_entropy(-0.01)
        with pytest.raises(ValueError):
            inv_binary_entropy(LN2 + 0.01)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=60)
    def test_roundtrip(self, x):
        h = binary_entropy(x)
        # the root >= 1/2; by symmetry the other is 1 minus it
        assert inv_binary_entropy(h) == pytest.approx(max(x, 1.0 - x), abs=1e-9)

    def test_majority_mass_bounds(self):
        # for h <= 1/4: h / (9 ln(18 ln 18 / h)) <= 1 - q <= h / ln(ln2 / h)
        for h in np.linspace(0.005, 0.25, 50):
            q = inv_binary_entropy(float(h))
            gap = 1.0 - q
            lower = h / (9 * math.log(9 * 2 * math.log(9 * 2) / h))
            upper = h / math.log(LN2 / h)
            assert lower <= gap + 1e-12
            assert gap <= upper + 1e-12

    def test_hard_instance_entropy(self):
        for h in (0.01, 0.05, 0.1, 0.2, 0.3, LN2):
            assert entropy(hard_instance(h)) == pytest.approx(h, abs=1e-9)


class TestTvDistance:
    def test_identical(self):
        d = DiscreteDist(probs=(0.3, 0.7))
        assert tv_distance(d, d) == 0.0

    def test_disjoint(self):
        a = DiscreteDist(probs=(1.0, 0.0))
        b = DiscreteDist(probs=(0.0, 1.0))
        assert tv_distance(a, b) == 1.0

    def test_half_l1(self):
        a = DiscreteDist(probs=(0.7, 0.3))
        b = DiscreteDist(probs=(0.5, 0.5))
        assert tv_distance(a, b) == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            tv_distance(DiscreteDist.uniform(2), DiscreteDist.uniform(3))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        dists = [
            DiscreteDist(probs=tuple(rng.dirichlet(np.ones(4)))) for _ in range(3)
        ]
        a, b, c = dists
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


class TestBinomExact:
    def test_small(self):
        assert binom_exact(4, 2) == 6

    def test_out_of_range(self):
        assert binom_exact(0, 1) == 0
        assert binom_exact(5, -1) == 0

    def test_pascal_example(self):
        assert binom_exact(9, 3) == pascal_binom(9, 3) == 84

    def test_negative_n(self):
        with pytest.raises(ValueError):
            binom_exact(-1, 0)

    @given(st.integers(min_value=0, max_value=25), st.integers(min_value=-2, max_value=27))
    def test_matches_pascal(self, n, k):
        assert binom_exact(n, k) == pascal_binom(n, k)

    def test_exact_type(self):
        assert isinstance(binom_exact(10, 5), Fraction)


class TestSample:
    def test_point_mass(self):
        d = DiscreteDist.point_mass(4, 2)
        rng = substream(99, 0)
        assert all(sample(d, rng) == 2 for _ in range(50))

    def test_uniform_frequency(self):
        d = DiscreteDist(probs=(0.5, 0.5))
        draws = sample_many(d, substream(7, 0), 1_000_000)
        freq = float(np.mean(draws == 0))
        sigma = 0.5 / math.sqrt(1_000_000)
        assert abs(freq - 0.5) <= 4 * sigma

    def test_determinism(self):
        d = DiscreteDist(probs=(0.2, 0.3, 0.5))
        rng_a, rng_b = substream(3, 1), substream(3, 1)
        a = [sample(d, rng_a) for _ in range(100)]
        b = [sample(d, rng_b) for _ in range(100)]
        assert a == b
        assert len(set(a)) == 3  # actually mixes outcomes

    def test_zero_prob_outcome_never_drawn(self):
        d = DiscreteDist(probs=(0.0, 1.0, 0.0))
        draws = sample_many(d, substream(5, 0), 10_000)
        assert set(draws.tolist()) == {1}


class _FixedUniforms:
    """Stands in for a generator whose uniforms are ``values``: ``random(size)``
    returns them all, and each ``random()`` the next one."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.taken = 0

    def random(self, size=None):
        if size is None:
            self.taken += 1
            return float(self.values[self.taken - 1])
        assert size == len(self.values)
        return self.values.copy()


def _with_zeros(rng: np.random.Generator, k: int) -> DiscreteDist:
    """A random row of k outcomes, about a third of them with probability 0."""
    probs = np.asarray(random_dist(rng, k))
    probs[rng.random(k) < 1 / 3] = 0.0
    probs[int(rng.integers(k))] += 1e-3  # at least one live outcome
    return DiscreteDist.from_weights(probs.tolist())


class TestSampleManyMatchesSearchsorted:
    """The branchless search draws exactly what ``np.searchsorted`` would, and
    ``sample``, one uniform a call, what ``bisect_right`` would."""

    KS = (1, 2, 3, 4, 5, 8, 9, 17, 1000)
    ONE_AT_A_TIME = 500  # leading draws also taken by ``sample``

    @staticmethod
    def _one_at_a_time(d: DiscreteDist, make_rng, size: int) -> None:
        rng, oracle_rng = make_rng(), make_rng()
        got = [sample(d, rng) for _ in range(size)]
        assert got == [sample_bisect(d, oracle_rng) for _ in range(size)]
        assert all(type(tok) is int for tok in got)

    @classmethod
    def _same(cls, d: DiscreteDist, seed: int, size: int = 20_000) -> None:
        got = sample_many(d, substream(seed, 0), size)
        want = sample_many_searchsorted(d, substream(seed, 0), size)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        cls._one_at_a_time(d, lambda: substream(seed, 0), min(size, cls.ONE_AT_A_TIME))

    @pytest.mark.parametrize("k", KS)
    def test_random_rows(self, k):
        rng = np.random.default_rng(k)
        for trial in range(3):
            self._same(DiscreteDist(probs=random_dist(rng, k)), 100 * k + trial)

    @pytest.mark.parametrize("k", KS)
    def test_rows_with_zero_probability_outcomes(self, k):
        rng = np.random.default_rng(1000 + k)
        for trial in range(3):
            self._same(_with_zeros(rng, k), 200 * k + trial)
        for outcome in {0, k // 2, k - 1}:  # point masses, trailing zeros included
            self._same(DiscreteDist.point_mass(k, outcome), 300 * k + outcome)

    @pytest.mark.parametrize(
        "d",
        [
            DiscreteDist.uniform(3),
            DiscreteDist.uniform(17),
            DiscreteDist(probs=(Fraction(1, 3), Fraction(0), Fraction(2, 3))),
            DiscreteDist(probs=(Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))),
        ],
        ids=["uniform3", "uniform17", "thirds-with-zero", "sevenths"],
    )
    def test_exact_rows(self, d):
        self._same(d, 17)

    @pytest.mark.parametrize("k", KS)
    def test_uniforms_on_cdf_entries(self, k):
        # a uniform equal to a CDF entry counts it, as side="right" does
        d = DiscreteDist(probs=random_dist(np.random.default_rng(2000 + k), k))
        cdf = np.cumsum([float(p) for p in d.probs])
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = sample_many(d, _FixedUniforms(u), len(u))
        want = sample_many_searchsorted(d, _FixedUniforms(u), len(u))
        np.testing.assert_array_equal(got, want)
        self._one_at_a_time(d, lambda: _FixedUniforms(u), len(u))

    def test_empty_draw(self):
        assert sample_many(DiscreteDist.uniform(5), substream(1, 0), 0).shape == (0,)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DiscreteDist.point_mass(3, 3), "outcome 3 outside 0..2"),
        (lambda: DiscreteDist.point_mass(3, -1), r"outcome -1 outside 0..2"),
        (lambda: DiscreteDist.from_weights([0.0, 0.0]), "weights must have positive total"),
    ],
    ids=["outcome-above", "outcome-below", "zero-weights"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
