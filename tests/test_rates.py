import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import beta_count_vectors_full, random_dist, type2_product_rational
from wmstat.dist import LN2, DiscreteDist, entropy
from wmstat.rates import (
    RateBounds,
    RateCurve,
    hard_instance,
    min_tokens_lower_bound,
    min_tokens_upper_bound,
    n_required_empirical,
    rate_bounds,
    type2_product_exact,
    type2_product_mc,
)


class TestExactProduct:
    def test_all_sequences_below_alpha(self):
        assert type2_product_exact(DiscreteDist(probs=(0.5, 0.5)), 3, 0.2) == 0.0

    def test_two_token_example(self):
        # classes: 0.81, 0.09, 0.09, 0.01; only 0.81 exceeds 0.5
        got = type2_product_exact(DiscreteDist(probs=(0.9, 0.1)), 2, 0.5)
        assert got == pytest.approx(0.31, abs=1e-12)

    def test_point_mass(self):
        assert type2_product_exact(DiscreteDist.point_mass(2, 0), 7, 0.3) == pytest.approx(
            0.7, abs=1e-15
        )

    def test_methods_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            rho = DiscreteDist(probs=random_dist(rng, 2))
            n = int(rng.integers(1, 40))
            alpha = float(rng.uniform(0.01, 0.6))
            fast = type2_product_exact(rho, n, alpha, method="binomial")
            slow = type2_product_exact(rho, n, alpha, method="count-vectors")
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_rational_oracle(self):
        # entries exactly representable in binary floats
        cases = [
            ((0.75, 0.25), 16, 0.125),
            ((0.5, 0.25, 0.25), 10, 0.03125),
            ((0.90625, 0.09375), 64, 0.25),
        ]
        for probs, n, alpha in cases:
            got = type2_product_exact(DiscreteDist(probs=probs), n, alpha)
            want = float(
                type2_product_rational(
                    [Fraction(p) for p in probs], n, Fraction(alpha)
                )
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_alpha(self):
        rho = DiscreteDist(probs=(0.8, 0.2))
        values = [type2_product_exact(rho, 6, a) for a in np.linspace(0.01, 0.9, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_class_count_overflow(self):
        rho = DiscreteDist.uniform(12)
        with pytest.raises(ValueError, match="Monte Carlo"):
            type2_product_exact(rho, 50, 0.01)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            type2_product_exact(DiscreteDist.uniform(2), 2, 0.1, method="magic")


class TestPrunedCountVectors:
    """The count-vector walk visits only classes that can exceed alpha, and its
    sum equals the walk over every class bit for bit."""

    @staticmethod
    def assert_same(rho, n, alpha):
        got = type2_product_exact(rho, n, alpha, method="count-vectors")
        assert got == beta_count_vectors_full(rho, n, alpha), (rho.probs, n, alpha)

    @pytest.mark.parametrize("k, n", [(3, 300), (3, 600), (3, 1000), (4, 50), (4, 100), (4, 150)])
    def test_rate_scan_points(self, k, n):
        # the rate-scan benchmark's inputs: the likeliest sequence has
        # probability alpha**u for u in (0.3, 0.7), the rest split at random
        alpha = 0.01
        for draw in range(3):
            rng = np.random.default_rng([8, k, n, draw])
            major = math.exp(rng.uniform(0.3, 0.7) * math.log(alpha) / n)
            rest = (1.0 - major) * rng.dirichlet(np.ones(k - 1))
            self.assert_same(DiscreteDist(probs=(major, *rest.tolist())), n, alpha)

    def test_random_instances(self):
        rng = np.random.default_rng(88)
        for i in range(200):
            k = int(rng.integers(3, 7))
            if i % 2:
                # a heavy major outcome at small alpha: many classes survive
                major = float(rng.uniform(0.8, 0.999))
                rest = (1.0 - major) * rng.dirichlet(np.ones(k - 1))
                rho = DiscreteDist(probs=(major, *rest.tolist()))
                alpha = float(10 ** rng.uniform(-9, -1))
            else:
                rho = DiscreteDist(probs=random_dist(rng, k, [0.1, 1.0, 10.0][i % 3]))
                alpha = float(10 ** rng.uniform(-3, math.log10(0.9)))
            n_max = max(n for n in range(1, 61) if math.comb(n + k - 1, k - 1) <= 5000)
            self.assert_same(rho, int(rng.integers(1, n_max + 1)), alpha)

    @pytest.mark.parametrize(
        "probs, n",
        [
            ((0.5, 0.5), 12),
            ((0.5, 0.25, 0.25), 12),
            ((0.5, 0.25, 0.125, 0.125), 19),
            ((0.25,) * 4, 23),
            ((1 / 3,) * 3, 14),
            ((0.2,) * 5, 9),
            ((0.4, 0.3, 0.3), 13),
            ((0.375, 0.375, 0.25), 14),
        ],
    )
    def test_exact_ties(self, probs, n):
        # alpha equal to a class probability, or within rounding of one: the
        # dyadic levels 2**-m and each class's probability as a product and
        # through logs; classes that differ only in the order of equal
        # outcomes then round either side of log(alpha)
        rho = DiscreteDist(probs=probs)
        p = [float(q) for q in rho.probs]
        alphas = {2.0**-m for m in range(1, 3 * n + 2)}
        for counts in itertools.product(range(n + 1), repeat=len(p) - 1):
            if sum(counts) <= n:
                c = (*counts, n - sum(counts))
                alphas.add(math.prod(q**ci for q, ci in zip(p, c)))
                alphas.add(math.exp(sum(ci * math.log(q) for q, ci in zip(p, c))))
        for alpha in sorted(a for a in alphas if 0.0 < a < 1.0):
            self.assert_same(rho, n, alpha)

    def test_work_tracks_kept_classes(self, monkeypatch):
        # one lgamma per visited node: a few per kept class, not one per class
        calls = 0
        lgamma = math.lgamma

        def counted(x):
            nonlocal calls
            calls += 1
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counted)
        rho = DiscreteDist(probs=(0.999, 0.0006, 0.0004))
        value = type2_product_exact(rho, 1000, 0.01, method="count-vectors")
        assert value > 0.0
        assert calls < 100  # the full walk visits 501 501 classes

    def test_wide_support_walks_without_recursion(self):
        # one token, every outcome 1/k > alpha = 0.5/k: beta = k*(1/k - alpha) = 0.5;
        # a walk that recursed once per outcome died past about 1000 outcomes
        narrow = type2_product_exact(DiscreteDist.uniform(900), 1, 0.5 / 900)
        wide = type2_product_exact(DiscreteDist.uniform(1100), 1, 0.5 / 1100)
        assert narrow == pytest.approx(0.5, rel=1e-12)
        assert wide == pytest.approx(narrow, rel=1e-12)


class TestMonteCarloProduct:
    def test_point_mass_exact(self):
        est, stderr = type2_product_mc(DiscreteDist.point_mass(2, 0), 5, 0.3, 1000, 11)
        assert est == 0.7
        assert stderr == 0.0

    def test_identically_zero(self):
        est, stderr = type2_product_mc(DiscreteDist(probs=(0.5, 0.5)), 3, 0.2, 1000, 11)
        assert est == 0.0
        assert stderr == 0.0

    def test_agrees_with_exact(self):
        est, stderr = type2_product_mc(DiscreteDist(probs=(0.9, 0.1)), 2, 0.5, 100_000, 3)
        assert abs(est - 0.31) <= 4 * stderr

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            type2_product_mc(DiscreteDist.uniform(2), 2, 0.1, 50, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one(self, n):
        # the Monte Carlo path rejects a length with the exact path's message
        for estimate in (type2_product_exact, lambda *args: type2_product_mc(*args, 1000, 0)):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                estimate(DiscreteDist.uniform(2), n, 0.1)

    def test_twenty_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            rho = DiscreteDist(probs=random_dist(rng, k))
            n = int(rng.integers(1, 13))
            alpha = float(rng.uniform(0.02, 0.5))
            exact = type2_product_exact(rho, n, alpha)
            est, stderr = type2_product_mc(rho, n, alpha, 100_000, int(rng.integers(1 << 30)))
            assert abs(est - exact) <= 4 * max(stderr, 1e-12)


class TestHardInstance:
    def test_max_entropy(self):
        assert hard_instance(LN2).probs == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_example(self):
        h = entropy(DiscreteDist(probs=(0.9, 0.1)))
        assert hard_instance(h).probs == pytest.approx((0.1, 0.9), abs=1e-9)

    def test_majority_monotone_to_one(self):
        grid = [0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.001]
        majors = [hard_instance(h).probs[1] for h in grid]
        assert all(b > a for a, b in zip(majors, majors[1:]))
        assert majors[-1] > 0.999

    def test_domain(self):
        with pytest.raises(ValueError):
            hard_instance(0.0)
        with pytest.raises(ValueError):
            hard_instance(0.8)


class TestBoundFormulas:
    def test_lower_example(self):
        # second branch dominates: ln(10)/0.1
        got = min_tokens_lower_bound(0.1, 0.05, 0.05)
        assert got == pytest.approx(math.log(10) / 0.1, abs=1e-9)
        assert got == pytest.approx(23.0259, abs=1e-3)

    def test_lower_min_branch(self):
        # alpha=0.01, beta=0.05: the min inside the first branch is ln 10
        h = 0.1
        got = min_tokens_lower_bound(h, 0.01, 0.05)
        first = math.log(LN2 / h) / (2 * h) * math.log(1 / (2 * 0.05))
        second = math.log(1 / 0.02) / h
        assert got == pytest.approx(max(first, second), abs=1e-12)

    def test_lower_symmetry_at_equal_levels(self):
        a = min_tokens_lower_bound(0.08, 0.03, 0.03)
        first = math.log(LN2 / 0.08) / (2 * 0.08) * math.log(1 / 0.06)
        assert a == pytest.approx(max(first, math.log(1 / 0.06) / 0.08), abs=1e-12)

    def test_upper_example(self):
        got = min_tokens_upper_bound(0.1, 0.05, 0.05, 2)
        want = 200.0 * (2 * math.log(180) / 0.1) * math.log(20)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(62226.83, abs=1e-1)

    def test_upper_dominates_lower_on_grid(self):
        for h in np.linspace(0.02, 0.24, 12):
            for ab in (0.01, 0.05):
                bounds = rate_bounds(float(h), ab, ab, 2)
                assert bounds.lower <= bounds.upper

    def test_upper_logarithmic_in_k(self):
        small = min_tokens_upper_bound(0.1, 0.01, 0.01, 2)
        large = min_tokens_upper_bound(0.1, 0.01, 0.01, 1024)
        assert large / small <= math.log(9 * 1024) / math.log(18) + 1.0

    def test_domains(self):
        with pytest.raises(ValueError):
            min_tokens_lower_bound(0.3, 0.05, 0.05)
        with pytest.raises(ValueError):
            min_tokens_lower_bound(0.1, 0.2, 0.05)
        with pytest.raises(ValueError):
            min_tokens_upper_bound(0.1, 0.05, 0.05, 1)

    def test_rate_bounds_validation(self):
        with pytest.raises(ValueError):
            RateBounds(lower=2.0, upper=1.0)


class TestRequiredTokens:
    def test_point_mass_never_crosses(self):
        n_star, curve = n_required_empirical(DiscreteDist.point_mass(2, 0), 0.05, 0.05, 50)
        assert n_star is None
        assert all(beta == pytest.approx(0.95, abs=1e-12) for _, beta, _ in curve.entries)

    def test_fair_coin_crosses_fast(self):
        n_star, curve = n_required_empirical(DiscreteDist(probs=(0.5, 0.5)), 0.05, 0.05, 50)
        assert n_star is not None and n_star <= 5
        assert curve.beta_at(n_star) == 0.0

    def test_hard_instance_sandwich_and_regression(self):
        rho = hard_instance(0.1)
        n_star, curve = n_required_empirical(rho, 0.01, 0.01, 4096)
        assert n_star == 189  # regression baseline from first run
        lower = min_tokens_lower_bound(0.1, 0.01, 0.01)
        upper = min_tokens_upper_bound(0.1, 0.01, 0.01, 2)
        assert lower <= n_star <= upper
        assert curve.beta_at(math.floor(lower) - 1) > 0.01
        # impossibility certificate: every length below the bound falls short
        assert all(
            beta > 0.01 for n, beta, _ in curve.entries if n <= math.floor(lower) - 1
        )

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RateCurve(entries=((2, 0.5, 0.0), (1, 0.4, 0.0)))
        with pytest.raises(ValueError):
            RateCurve(entries=((1, 1.5, 0.0),))

    def test_scan_cap(self):
        with pytest.raises(ValueError):
            n_required_empirical(DiscreteDist.uniform(2), 0.01, 0.01, 200_000)
