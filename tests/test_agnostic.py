import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    max_type2_loss_telescoping,
    random_dist,
    worst_set_gap_brute,
    worst_set_gap_brute_exact,
)
from wmstat.agnostic import (
    MAX_ENUM_SUBSETS,
    UniformRegionLaw,
    _worst_gap,
    build_agnostic_coupling,
    integrality_check,
    loss_limit_gap,
    max_type2_loss,
    sample_region,
    strassen_condition_holds,
    worst_set_gap,
)
from wmstat.dist import DiscreteDist, ResourceLimit
from wmstat.streams import substream
from wmstat.ump import clipped_surplus, type1_exact, type2_exact


class TestLossValue:
    def test_examples(self):
        assert max_type2_loss(4, Fraction(1, 2)) == Fraction(1, 6)
        assert max_type2_loss(9, Fraction(1, 3)) == Fraction(5, 21)
        assert max_type2_loss(6, Fraction(1, 6)) == 0

    def test_telescoping_equality_exact(self):
        for n, inv in ((4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 4), (20, 5), (100, 10)):
            alpha = Fraction(1, inv)
            assert max_type2_loss(n, alpha) == max_type2_loss_telescoping(n, alpha)

    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            max_type2_loss(5, Fraction(1, 2))  # alpha*n not integral
        with pytest.raises(ValueError):
            max_type2_loss(5, Fraction(2, 5))  # 1/alpha not integral
        with pytest.raises(ValueError):
            integrality_check(3, Fraction(1, 4))  # n < 1/alpha

    @pytest.mark.parametrize("n", [8.5, 8.0, True])
    def test_outcome_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            max_type2_loss(n, Fraction(1, 4))

    def test_limit_in_alpha(self):
        assert loss_limit_gap(Fraction(1, 100), 10_000) <= 0.005
        assert loss_limit_gap(Fraction(1, 2), 4) == pytest.approx(
            abs(1 / 6 - math.exp(-1)), abs=1e-12
        )

    def test_monotone_toward_power_limit(self):
        alpha = Fraction(1, 4)
        values = [float(max_type2_loss(n, alpha)) for n in (4, 8, 16, 32, 64, 128)]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = (1 - 0.25) ** 4
        assert values[-1] < limit
        assert limit - values[-1] < 0.02


class TestRegionLaw:
    def test_integrality(self):
        with pytest.raises(ValueError):
            UniformRegionLaw(n=6, region_size=4)  # 6/4 not integral
        law = UniformRegionLaw(n=8, region_size=2)
        assert law.alpha == Fraction(1, 4)
        assert law.n_subsets == 28

    @pytest.mark.parametrize(
        "n, region_size, message",
        [(8.0, 2, "n must be an integer"), (8, 2.0, "region_size must be an integer")],
    )
    def test_counts_must_be_integers(self, n, region_size, message):
        with pytest.raises(ValueError, match=message):
            UniformRegionLaw(n=n, region_size=region_size)

    def test_full_set_always(self):
        law = UniformRegionLaw(n=4, region_size=4)
        region = sample_region(law, substream(0, 0))
        assert region.members == (0, 1, 2, 3)

    def test_subset_frequencies(self):
        law = UniformRegionLaw(n=4, region_size=2)
        rng = substream(5, 0)
        counts = {c: 0 for c in combinations(range(4), 2)}
        draws = 100_000
        for _ in range(draws):
            counts[sample_region(law, rng).members] += 1
        sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
        for c, count in counts.items():
            assert abs(count / draws - 1 / 6) <= 4 * sigma, c

    def test_inclusion_probability(self):
        law = UniformRegionLaw(n=4, region_size=2)
        rng = substream(6, 0)
        draws = 100_000
        hits = sum(0 in sample_region(law, rng) for _ in range(draws))
        sigma = math.sqrt(0.5 * 0.5 / draws)
        assert abs(hits / draws - 0.5) <= 4 * sigma

    def test_inclusion_probability_exact_identity(self):
        # P(x in region) = 1 - C(n-1, m)/C(n, m) = m/n = alpha, exactly
        for n, m in ((4, 2), (8, 2), (9, 3), (20, 4)):
            law = UniformRegionLaw(n=n, region_size=m)
            assert law.hit_probability(1) == Fraction(m, n) == law.alpha


class TestCouplingConstruction:
    def test_worst_case_two_point(self):
        law = UniformRegionLaw(n=4, region_size=2)
        rho = DiscreteDist(probs=(Fraction(1, 2), Fraction(1, 2), 0, 0))
        coupling, loss = build_agnostic_coupling(rho, law)
        assert loss == pytest.approx(1 / 6, abs=1e-12)
        assert type2_exact(coupling) == pytest.approx(loss, abs=1e-12)

    def test_uniform_everywhere_lossless(self):
        law = UniformRegionLaw(n=4, region_size=2)
        coupling, loss = build_agnostic_coupling(DiscreteDist.uniform(4), law)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_point_mass(self):
        law = UniformRegionLaw(n=4, region_size=2)
        coupling, loss = build_agnostic_coupling(DiscreteDist.point_mass(4, 0), law)
        assert loss == pytest.approx(0.5, abs=1e-12)  # 1 - alpha
        gamma = float(max_type2_loss(4, Fraction(1, 2)))
        assert loss <= gamma + 0.5 + 1e-9

    def test_marginals_met(self):
        law = UniformRegionLaw(n=6, region_size=2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = DiscreteDist(probs=random_dist(rng, 6))
            coupling, loss = build_agnostic_coupling(rho, law)
            got = coupling.x_marginal().probs
            assert got == pytest.approx(list(rho.probs), abs=1e-9)
            per_region: dict = {}
            for _, region, m in coupling.atoms:
                per_region[region] = per_region.get(region, 0.0) + m
            assert len(per_region) == math.comb(6, 2)
            quota = 1.0 / law.n_subsets
            for mass in per_region.values():
                assert mass == pytest.approx(quota, abs=1e-9)
            assert all(m >= 0 for _, _, m in coupling.atoms)
            assert type2_exact(coupling) == pytest.approx(loss, abs=1e-12)

    def test_level_is_alpha(self):
        # every outcome lies in C(n-1, m-1) of the C(n, m) equally likely subsets
        rng = np.random.default_rng(6)
        for n, m in ((4, 2), (6, 2), (8, 2), (9, 3), (12, 3)):
            law = UniformRegionLaw(n=n, region_size=m)
            weights = rng.integers(0, 6, size=n)
            weights[0] += 1
            exact = DiscreteDist(probs=tuple(Fraction(int(w), int(weights.sum())) for w in weights))
            for rho in (exact, DiscreteDist(probs=random_dist(rng, n))):
                coupling, _ = build_agnostic_coupling(rho, law)
                assert type1_exact(coupling) == pytest.approx(m / n, abs=1e-9)

    def test_loss_equals_worst_set_gap(self):
        # min-cut duality: flow loss = max over U of rho(U) - hit probability
        law = UniformRegionLaw(n=8, region_size=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = DiscreteDist(probs=random_dist(rng, 8))
            _, loss = build_agnostic_coupling(rho, law)
            fast = worst_set_gap(rho, law)
            brute = worst_set_gap_brute(rho.probs, law)
            assert fast == pytest.approx(brute, abs=1e-12)
            assert loss == pytest.approx(max(brute, 0.0), abs=1e-9)

    def test_loss_equals_worst_set_gap_n12(self):
        law = UniformRegionLaw(n=12, region_size=2)
        rng = np.random.default_rng(9)
        for _ in range(5):
            rho = DiscreteDist(probs=random_dist(rng, 12))
            _, loss = build_agnostic_coupling(rho, law)
            assert loss == pytest.approx(
                max(worst_set_gap_brute(rho.probs, law), 0.0), abs=1e-9
            )

    def test_loss_bound_and_strassen_on_random(self):
        law = UniformRegionLaw(n=8, region_size=2)
        gamma = float(max_type2_loss(8, Fraction(1, 4)))
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = DiscreteDist(probs=random_dist(rng, 8))
            _, loss = build_agnostic_coupling(rho, law)
            budget = gamma + clipped_surplus(rho.probs, 0.25)
            assert loss <= budget + 1e-9
            assert strassen_condition_holds(rho, law, budget + 1e-9)

    def test_equality_at_uniform_on_level_support(self):
        law = UniformRegionLaw(n=8, region_size=2)
        rho = DiscreteDist(
            probs=tuple(Fraction(1, 4) if j < 4 else Fraction(0) for j in range(8))
        )
        _, loss = build_agnostic_coupling(rho, law)
        assert loss == pytest.approx(3 / 14, abs=1e-9)

    def test_largest_enumerated_law(self):
        # n = 16, m = 8 enumerates exactly the cap's C(16, 8) subsets
        law = UniformRegionLaw(n=16, region_size=8)
        assert law.n_subsets == MAX_ENUM_SUBSETS
        rho = DiscreteDist(probs=tuple(np.random.default_rng(16).dirichlet(np.ones(16))))
        coupling, loss = build_agnostic_coupling(rho, law)
        assert type1_exact(coupling) == pytest.approx(0.5, abs=1e-12)
        assert type2_exact(coupling) == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("support", [36, 12])
    def test_exact_uniform_miss_at_n36(self, support):
        # uniform on every outcome (no miss) and on 1/alpha of them (the minimax worst case)
        law = UniformRegionLaw(n=36, region_size=3)
        probs = [Fraction(1, support) if x < support else Fraction(0) for x in range(36)]
        rho = DiscreteDist(probs=tuple(probs))
        coupling, _ = build_agnostic_coupling(rho, law)
        miss = sum((w for x, region, w in coupling.atoms if x not in region), Fraction(0))
        worst = max_type2_loss(36, law.alpha) if support == 12 else 0
        assert miss == _worst_gap(rho, law) == worst

    def test_enumeration_cap(self):
        with pytest.raises(ResourceLimit):
            build_agnostic_coupling(
                DiscreteDist.uniform(40), UniformRegionLaw(n=40, region_size=10)
            )


class TestStrassenCheck:
    def test_worst_case_meets_budget_exactly(self):
        law = UniformRegionLaw(n=4, region_size=2)
        rho = DiscreteDist(probs=(Fraction(1, 2), Fraction(1, 2), 0, 0))
        assert strassen_condition_holds(rho, law, Fraction(1, 6))
        assert not strassen_condition_holds(rho, law, Fraction(1, 6) - Fraction(1, 1000))

    def test_point_mass_zero_budget(self):
        law = UniformRegionLaw(n=4, region_size=2)
        assert not strassen_condition_holds(DiscreteDist.point_mass(4, 0), law, 0)

    def test_budget_one_always_holds(self):
        law = UniformRegionLaw(n=4, region_size=2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = DiscreteDist(probs=random_dist(rng, 4))
            assert strassen_condition_holds(rho, law, 1)

    def test_float_and_exact_paths_agree(self):
        law = UniformRegionLaw(n=6, region_size=3)
        rho_exact = DiscreteDist(
            probs=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 12), Fraction(1, 12))
        )
        rho_float = DiscreteDist(probs=rho_exact.as_floats())
        for budget in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 4)):
            assert strassen_condition_holds(rho_exact, law, budget) == strassen_condition_holds(
                rho_float, law, float(budget)
            )

    def test_exact_agrees_with_enumeration(self):
        rng = np.random.default_rng(11)
        sizes = ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4))
        for n, m in sizes:
            law = UniformRegionLaw(n=n, region_size=m)
            for _ in range(2 if n == 12 else 4):
                weights = rng.integers(0, 6, size=n)
                weights[0] += 1
                rho = DiscreteDist(probs=tuple(Fraction(int(w), int(weights.sum())) for w in weights))
                gap = worst_set_gap_brute_exact(rho.probs, law)
                tiny = Fraction(1, 10**12)
                for budget in (gap, gap - tiny, gap + tiny, Fraction(0), Fraction(1, 7)):
                    # "is": the answer must be a Python bool, not a numpy one
                    assert strassen_condition_holds(rho, law, budget) is (gap <= budget), (
                        rho.probs, budget,
                    )

    def test_float_agrees_with_enumeration_away_from_ties(self):
        rng = np.random.default_rng(12)
        checked = 0
        for n, m in ((6, 3), (8, 2), (10, 2), (12, 4)):
            law = UniformRegionLaw(n=n, region_size=m)
            for _ in range(5):
                rho = DiscreteDist(probs=random_dist(rng, n, spread=0.5))
                gap = worst_set_gap_brute(rho.probs, law)
                for budget in (gap - 1e-9, gap + 1e-9, 0.0, float(rng.uniform(0.0, 0.6))):
                    if abs(gap - budget) > 1e-12:
                        assert strassen_condition_holds(rho, law, budget) is (gap <= budget)
                        checked += 1
        assert checked >= 60

    def test_runs_past_enumeration_size(self):
        law = UniformRegionLaw(n=40, region_size=10)
        point = DiscreteDist.point_mass(40, 7)
        # worst set is {7}: rho = 1 against a hit probability of alpha = 1/4
        assert strassen_condition_holds(point, law, Fraction(3, 4))
        assert not strassen_condition_holds(point, law, Fraction(3, 4) - Fraction(1, 10**9))
        assert strassen_condition_holds(DiscreteDist.uniform(40), law, 0)
        rho = DiscreteDist(probs=random_dist(np.random.default_rng(13), 40))
        budget = float(max_type2_loss(40, law.alpha)) + clipped_surplus(rho.probs, 0.25)
        assert strassen_condition_holds(rho, law, budget + 1e-9)


class TestOneExactGap:
    """The coupling's loss, ``worst_set_gap`` and the Strassen check share one exact gap."""

    SIZES = ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4))

    @pytest.mark.parametrize("n, m", SIZES)
    def test_loss_is_the_exact_gap_rounded_once(self, n, m):
        law = UniformRegionLaw(n=n, region_size=m)
        rng = np.random.default_rng(100 + n * m)
        weights = rng.integers(0, 6, size=n)
        weights[0] += 1
        exact = DiscreteDist(probs=tuple(Fraction(int(w), int(weights.sum())) for w in weights))
        floats = [DiscreteDist(probs=random_dist(rng, n, spread)) for spread in (1.0, 0.3)]
        for rho in (exact, *floats):
            gap = worst_set_gap_brute_exact(rho.probs, law)
            _, loss = build_agnostic_coupling(rho, law)
            assert loss == worst_set_gap(rho, law) == float(gap), rho.probs
            assert strassen_condition_holds(rho, law, gap)
            assert not strassen_condition_holds(rho, law, gap - Fraction(1, 10**30))

    @pytest.mark.parametrize("n, m", SIZES)
    def test_exact_atoms_miss_by_the_exact_gap(self, n, m):
        law = UniformRegionLaw(n=n, region_size=m)
        rng = np.random.default_rng(200 + n * m)
        weights = rng.integers(0, 9, size=n)
        weights[-1] += 1
        rho = DiscreteDist(probs=tuple(Fraction(int(w), int(weights.sum())) for w in weights))
        coupling, _ = build_agnostic_coupling(rho, law)
        miss = sum((w for x, region, w in coupling.atoms if x not in region), Fraction(0))
        assert miss == worst_set_gap_brute_exact(rho.probs, law)

    def test_float_law_against_its_exact_gap_budget(self):
        # comparing the gap in floats said False here, as for 305 of 2000
        # Dirichlet(1) laws at n = 8, m = 2
        law = UniformRegionLaw(n=8, region_size=2)
        rho = DiscreteDist(probs=tuple(np.random.default_rng(26).dirichlet(np.ones(8))))
        gap = worst_set_gap_brute_exact(rho.probs, law)
        assert strassen_condition_holds(rho, law, gap) is True
        assert strassen_condition_holds(rho, law, gap - Fraction(1, 10**30)) is False

    @pytest.mark.parametrize(
        "head, gap",
        [((np.int64(1),), Fraction(1, 2)), ((Fraction(1, 2), Fraction(1, 2)), Fraction(17, 69))],
        ids=["point-mass", "two-point"],
    )
    def test_numpy_integer_probabilities_read_exactly(self, head, gap):
        # C(70, 35) > 2**63: a Fraction holding an np.int64 overflows against it
        law = UniformRegionLaw(n=70, region_size=35)
        assert law.hit_probability(35) == 1 - Fraction(1, math.comb(70, 35))
        rho = DiscreteDist(probs=head + (np.int64(0),) * (70 - len(head)))
        assert worst_set_gap(rho, law) == float(gap)
        assert strassen_condition_holds(rho, law, gap)
        assert not strassen_condition_holds(rho, law, gap - Fraction(1, 10**30))
        assert strassen_condition_holds(rho, law, float(gap) + 1e-15)


_LAW = UniformRegionLaw(n=4, region_size=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UniformRegionLaw(n=4, region_size=5), "region size 5 outside 1..4"),
        (lambda: UniformRegionLaw(n=4, region_size=0), "region size 0 outside 1..4"),
        (lambda: _LAW.hit_probability(5), "set size 5 outside 0..4"),
        (lambda: integrality_check(4, Fraction(3, 2)), r"alpha must be in \(0, 1\]"),
        (lambda: integrality_check(0, Fraction(1, 4)), "need n >= 1/alpha, got n=0"),
        (lambda: build_agnostic_coupling(DiscreteDist.uniform(3), _LAW),
         "distribution has 3 outcomes, law expects 4"),
        (lambda: worst_set_gap(DiscreteDist.uniform(5), _LAW),
         "distribution has 5 outcomes, law expects 4"),
        (lambda: strassen_condition_holds(DiscreteDist.uniform(5), _LAW, 1),
         "distribution has 5 outcomes, law expects 4"),
    ],
    ids=["region-too-big", "region-empty", "set-size", "alpha-above-one", "n-below-1/alpha",
         "coupling-size", "gap-size", "strassen-size"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
