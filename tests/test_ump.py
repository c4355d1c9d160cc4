import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_distortion, random_dist, ump_oracle
from wmstat.dist import DiscreteDist, tv_distance
from wmstat.ump import (
    EMPTY_REGION,
    Coupling,
    Region,
    clipped_surplus,
    optimal_distortion,
    optimal_type2,
    type1_exact,
    type2_exact,
    ump_coupling,
)


class TestRegion:
    def test_sorted_unique(self):
        with pytest.raises(ValueError):
            Region(members=(2, 1))
        with pytest.raises(ValueError):
            Region(members=(1, 1))
        assert Region.of([3, 1, 1]).members == (1, 3)

    def test_contains(self):
        r = Region.of([0, 2])
        assert 0 in r and 2 in r and 1 not in r
        assert len(EMPTY_REGION) == 0


class TestCoupling:
    def test_weight_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Coupling(atoms=((0, EMPTY_REGION, 0.5),), k=1)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Coupling(atoms=((0, EMPTY_REGION, -0.5), (0, EMPTY_REGION, 1.5)), k=1)

    def test_marginal(self):
        c = Coupling(atoms=((0, Region.of([0]), 0.3), (1, EMPTY_REGION, 0.7)), k=2)
        assert c.x_marginal().probs == (0.3, 0.7)


class TestOptimalDistortion:
    def test_no_budget(self):
        rho = DiscreteDist(probs=(0.5, 0.3, 0.2))
        star = optimal_distortion(rho, 0.1, 0.0)
        assert star.probs == rho.probs
        assert optimal_type2(rho, 0.1, 0.0) == pytest.approx(0.7, abs=1e-12)

    def test_zero_capacity_budget_useless(self):
        # all entries above alpha: nothing can absorb moved mass
        rho = DiscreteDist(probs=(0.5, 0.3, 0.2))
        assert optimal_type2(rho, 0.1, 0.2) == pytest.approx(0.7, abs=1e-12)
        star = optimal_distortion(rho, 0.1, 0.2)
        assert clipped_surplus(star.probs, 0.1) == pytest.approx(0.7, abs=1e-12)

    def test_partial_budget(self):
        rho = DiscreteDist(probs=(0.6, 0.2, 0.1, 0.1))
        assert optimal_type2(rho, 0.25, 0.1) == pytest.approx(0.25, abs=1e-12)
        star = optimal_distortion(rho, 0.25, 0.1)
        assert clipped_surplus(star.probs, 0.25) == pytest.approx(0.25, abs=1e-12)
        assert tv_distance(star, rho) <= 0.1 + 1e-12

    def test_objective_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.02, 0.5))
            eps = float(rng.uniform(0.0, 0.5))
            surplus = clipped_surplus(rho.probs, alpha)
            capacity = math.fsum(max(alpha - p, 0.0) for p in rho.probs)
            want = max(surplus - min(eps, surplus, capacity), 0.0)
            assert optimal_type2(rho, alpha, eps) == pytest.approx(want, abs=1e-12)
            star = optimal_distortion(rho, alpha, eps)
            assert clipped_surplus(star.probs, alpha) == pytest.approx(want, abs=1e-9)
            assert tv_distance(star, rho) <= eps + 1e-9

    def test_grid_oracle_k3(self):
        # aligned to the oracle grid so the optimum is a grid point
        cases = [
            ((0.5, 0.3, 0.2), 0.1, 0.0),
            ((0.5, 0.3, 0.2), 0.1, 0.2),  # zero-capacity counterexample
            ((0.6, 0.2, 0.2), 0.25, 0.1),
            ((0.45, 0.35, 0.2), 0.3, 0.05),
            ((0.8, 0.15, 0.05), 0.25, 0.3),
            ((0.5, 0.5), 0.2, 0.1),
        ]
        for probs, alpha, eps in cases:
            got = optimal_type2(DiscreteDist(probs=probs), alpha, eps)
            want = grid_search_distortion(probs, alpha, eps)
            assert got == pytest.approx(want, abs=2e-3)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            optimal_distortion(DiscreteDist.uniform(2), 0.0)
        with pytest.raises(ValueError):
            optimal_type2(DiscreteDist.uniform(2), 1.0)

    @pytest.mark.parametrize("solve", [optimal_distortion, optimal_type2, ump_coupling])
    def test_eps_must_not_be_nan(self, solve):
        rho = DiscreteDist(probs=(0.7, 0.2, 0.1))
        with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
            solve(rho, 0.3, math.nan)
        solve(rho, 0.3, math.inf)  # an unlimited budget stays legal


class TestUmpCoupling:
    def test_fair_coin_atoms(self):
        c = ump_coupling(DiscreteDist(probs=(0.5, 0.5)), 0.2)
        assert c.atoms == (
            (0, Region.of([0]), 0.2),
            (0, EMPTY_REGION, 0.3),
            (1, Region.of([1]), 0.2),
            (1, EMPTY_REGION, 0.3),
        )
        assert type1_exact(c) == pytest.approx(0.2, abs=1e-15)
        assert type2_exact(c) == pytest.approx(0.6, abs=1e-15)

    def test_uniform_no_empty_atoms(self):
        c = ump_coupling(DiscreteDist(probs=(0.1,) * 10), 0.1)
        assert all(len(region) == 1 for _, region, _ in c.atoms)

    def test_point_mass(self):
        c = ump_coupling(DiscreteDist.point_mass(1, 0), 0.2)
        assert c.atoms == ((0, Region.of([0]), 0.2), (0, EMPTY_REGION, 0.8))
        assert type2_exact(c) == pytest.approx(0.8, abs=1e-15)  # 1 - alpha at eps=0

    def test_point_mass_with_budget(self):
        # on a roomy support, distortion converts one-for-one: 1 - alpha - eps
        rho = DiscreteDist.point_mass(10, 3)
        assert optimal_type2(rho, 0.2, 0.1) == pytest.approx(0.7, abs=1e-12)
        c = ump_coupling(rho, 0.2, 0.1)
        assert type2_exact(c) == pytest.approx(0.7, abs=1e-12)
        assert type1_exact(c) <= 0.2 + 1e-12

    def test_zero_prob_outcomes_omitted(self):
        c = ump_coupling(DiscreteDist(probs=(0.0, 1.0)), 0.3)
        assert all(x == 1 for x, _, _ in c.atoms)

    def test_marginal_within_eps(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = DiscreteDist(probs=random_dist(rng, 5))
            eps = float(rng.uniform(0, 0.4))
            c = ump_coupling(rho, 0.15, eps)
            assert tv_distance(c.x_marginal(), rho) <= eps + 1e-12


class TestErrorFunctionals:
    def test_all_empty_regions(self):
        c = Coupling(atoms=((0, EMPTY_REGION, 0.4), (1, EMPTY_REGION, 0.6)), k=2)
        assert type1_exact(c) == 0.0
        assert type2_exact(c) == 1.0

    def test_full_region(self):
        c = Coupling(atoms=((0, Region.of([0, 1, 2]), 1.0),), k=3)
        assert type1_exact(c) == 1.0
        assert type2_exact(c) == 0.0

    def test_closed_form_match(self):
        rho = DiscreteDist(probs=(0.5, 0.3, 0.2))
        c = ump_coupling(rho, 0.1)
        assert type2_exact(c) == pytest.approx(0.7, abs=1e-12)


class TestOracle:
    def test_fair_coin(self):
        assert ump_oracle(DiscreteDist(probs=(0.5, 0.5)), 0.2) == pytest.approx(0.6, abs=1e-9)

    def test_level_above_max(self):
        assert ump_oracle(DiscreteDist.uniform(3), 0.4) == pytest.approx(0.0, abs=1e-9)

    def test_skewed(self):
        assert ump_oracle(DiscreteDist(probs=(0.7, 0.3)), 0.1) == pytest.approx(0.8, abs=1e-9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            ump_oracle(DiscreteDist.uniform(5), 0.1)

    def test_matches_closed_form_randomly(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.03, 0.5))
            assert ump_oracle(rho, alpha) == pytest.approx(
                optimal_type2(rho, alpha), abs=1e-9
            )


class TestInvariants:
    def test_random_instances_level_and_value(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.choice([0.05, 0.1, 0.3]))
            c = ump_coupling(rho, alpha, 0.0)
            assert type1_exact(c) <= alpha + 1e-12
            assert type2_exact(c) == pytest.approx(
                clipped_surplus(rho.probs, alpha), abs=1e-12
            )

    def test_monotone_in_alpha_and_eps(self):
        rho = DiscreteDist(probs=(0.4, 0.3, 0.2, 0.1))
        alphas = np.linspace(0.02, 0.5, 20)
        values = [optimal_type2(rho, float(a), 0.0) for a in alphas]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        epss = np.linspace(0.0, 0.5, 20)
        values = [optimal_type2(rho, 0.15, float(e)) for e in epss]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_coupling_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        rho = DiscreteDist(probs=random_dist(rng, k))
        alpha = float(rng.uniform(0.01, 0.9))
        eps = float(rng.uniform(0.0, 0.5))
        c = ump_coupling(rho, alpha, eps)  # constructor enforces invariants
        assert type1_exact(c) <= alpha + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Region(members=(-1, 0)), "region members must be non-negative outcome ids"),
        (lambda: Coupling(atoms=((2, EMPTY_REGION, 1.0),), k=2), "outcome 2 outside 0..1"),
        (lambda: Coupling(atoms=((0, Region.of((0, 2)), 1.0),), k=2),
         "region member outside outcome range"),
    ],
    ids=["negative-member", "outcome-range", "member-range"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
