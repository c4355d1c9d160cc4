"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    grid_search_distortion,
    max_type2_loss_telescoping,
    random_dist,
    ump_oracle,
    vertex_enumeration_optimum,
)
from wmstat import agnostic, rates, robust, schemes
from wmstat.cli import main as cli_main
from wmstat.dist import DiscreteDist
from wmstat.lm import drifting_lm, fair_coin_lm
from wmstat.simplex import simplex_solve
from wmstat.ump import clipped_surplus, optimal_type2, type1_exact, type2_exact, ump_coupling


@contextmanager
def criterion(label: str, budget_s: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"[acceptance] {label}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"{label} exceeded its {budget_s}s runtime budget"


def test_criterion_1_ump_optimality():
    with criterion("criterion 1 (ump optimality vs exhaustive oracle)", budget_s=30):
        rng = np.random.default_rng(1001)
        for _ in range(45):
            k = int(rng.integers(2, 5))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.03, 0.6))
            assert ump_oracle(rho, alpha) == pytest.approx(
                optimal_type2(rho, alpha), abs=1e-9
            )
        for _ in range(200):
            k = int(rng.integers(2, 9))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.choice([0.05, 0.1, 0.3]))
            coupling = ump_coupling(rho, alpha)
            assert type1_exact(coupling) <= alpha + 1e-12
            assert type2_exact(coupling) == pytest.approx(
                clipped_surplus(rho.probs, alpha), abs=1e-12
            )


def test_criterion_2_distortion_grid_oracle():
    with criterion("criterion 2 (water-filling vs grid-search oracle)", budget_s=60):
        cases = [
            ((0.5, 0.3, 0.2), 0.1, 0.0),
            ((0.5, 0.3, 0.2), 0.1, 0.2),  # zero capacity: budget buys nothing
            ((0.5, 0.3, 0.2), 0.25, 0.1),
            ((0.6, 0.2, 0.2), 0.25, 0.1),
            ((0.6, 0.2, 0.2), 0.25, 0.3),
            ((0.45, 0.35, 0.2), 0.3, 0.05),
            ((0.8, 0.15, 0.05), 0.25, 0.3),
            ((0.8, 0.15, 0.05), 0.1, 0.05),
            ((0.35, 0.35, 0.3), 0.35, 0.1),
            ((0.5, 0.5), 0.2, 0.1),
            ((0.7, 0.3), 0.2, 0.0),
            ((0.9, 0.1), 0.5, 0.25),
        ]
        for probs, alpha, eps in cases:
            got = optimal_type2(DiscreteDist(probs=probs), alpha, eps)
            want = grid_search_distortion(probs, alpha, eps, step=0.005)
            assert got == pytest.approx(want, abs=2e-3), (probs, alpha, eps)


def test_criterion_3_rate_sandwich():
    with criterion("criterion 3 (token-rate sandwich at the hard instance)", budget_s=60):
        for h in (0.05, 0.1, 0.2):
            rho0 = rates.hard_instance(h)
            lower = rates.min_tokens_lower_bound(h, 0.01, 0.01)
            upper = rates.min_tokens_upper_bound(h, 0.01, 0.01, 2)
            n_star, curve = rates.n_required_empirical(rho0, 0.01, 0.01, 4096)
            assert n_star is not None, h
            assert lower <= n_star <= upper, (h, lower, n_star, upper)
            assert curve.beta_at(math.floor(lower) - 1) > 0.01, h


def test_criterion_4_mc_exact_agreement():
    with criterion("criterion 4 (Monte Carlo within 4 stderr of exact)"):
        rng = np.random.default_rng(1004)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            rho = DiscreteDist(probs=random_dist(rng, k))
            n = int(rng.integers(1, 13))
            alpha = float(rng.uniform(0.02, 0.5))
            exact = rates.type2_product_exact(rho, n, alpha)
            est, stderr = rates.type2_product_mc(
                rho, n, alpha, 100_000, int(rng.integers(1 << 30))
            )
            assert abs(est - exact) <= 4 * max(stderr, 1e-12), (rho.probs, n, alpha)


def _criterion5_instances():
    rng = np.random.default_rng(1005)
    return [DiscreteDist(probs=random_dist(rng, 8)) for _ in range(50)]


def test_criterion_5_minimax_loss():
    with criterion("criterion 5 (minimax loss: exact value, limit, flow bound)", budget_s=60):
        for n, inv in ((4, 2), (6, 3), (8, 4), (9, 3), (12, 3), (16, 4), (60, 6)):
            alpha = Fraction(1, inv)
            assert agnostic.max_type2_loss(n, alpha) == max_type2_loss_telescoping(n, alpha)
        assert agnostic.loss_limit_gap(Fraction(1, 100), 10_000) <= 0.005

        law = agnostic.UniformRegionLaw(n=8, region_size=2)
        gamma = float(agnostic.max_type2_loss(8, Fraction(1, 4)))
        assert gamma == pytest.approx(3 / 14, abs=1e-15)
        for rho in _criterion5_instances():
            _, loss = agnostic.build_agnostic_coupling(rho, law)
            budget = gamma + clipped_surplus(rho.probs, 0.25)
            assert loss <= budget + 1e-9
        uniform4 = DiscreteDist(
            probs=tuple(Fraction(1, 4) if j < 4 else Fraction(0) for j in range(8))
        )
        _, loss = agnostic.build_agnostic_coupling(uniform4, law)
        assert loss == pytest.approx(3 / 14, abs=1e-9)


def test_criterion_6_strassen_condition():
    with criterion("criterion 6 (marginal-domination check)"):
        law = agnostic.UniformRegionLaw(n=8, region_size=2)
        gamma = float(agnostic.max_type2_loss(8, Fraction(1, 4)))
        for rho in _criterion5_instances():
            budget = gamma + clipped_surplus(rho.probs, 0.25)
            assert agnostic.strassen_condition_holds(rho, law, budget + 1e-9)
        uniform4 = DiscreteDist(
            probs=tuple(Fraction(1, 4) if j < 4 else Fraction(0) for j in range(8))
        )
        assert agnostic.strassen_condition_holds(uniform4, law, Fraction(3, 14))


def test_criterion_7_robust_lp():
    with criterion("criterion 7 (robust LP: reduction, hand cases, oracle)"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.02, 0.6))
            beta, _ = robust.robust_optimal_type2(
                rho, alpha, robust.PerturbationGraph.self_loops_only(k)
            )
            assert beta == pytest.approx(clipped_surplus(rho.probs, alpha), abs=1e-9)

        fair = DiscreteDist(probs=(0.5, 0.5))
        beta, _ = robust.robust_optimal_type2(fair, 0.2, robust.PerturbationGraph.complete(2))
        assert beta == pytest.approx(0.8, abs=1e-9)
        beta, _ = robust.robust_optimal_type2(
            fair, 0.2, robust.PerturbationGraph.self_loops_only(2)
        )
        assert beta == pytest.approx(0.6, abs=1e-9)
        beta, _ = robust.robust_optimal_type2(
            DiscreteDist.uniform(3), 1 / 3, robust.PerturbationGraph.from_edges(3, [(0, 1)])
        )
        assert beta == pytest.approx(1 / 3, abs=1e-9)

        for _ in range(60):
            k = int(rng.integers(2, 7))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.05, 0.5))
            edges = [
                (int(u), int(v))
                for u in range(k)
                for v in range(k)
                if u != v and rng.random() < 0.35
            ]
            problem = robust.robust_lp_build(
                rho, alpha, robust.PerturbationGraph.from_edges(k, edges),
                include_sum_row=bool(rng.integers(2)),
            )
            mine = simplex_solve(problem)
            assert mine.objective == pytest.approx(
                vertex_enumeration_optimum(problem), abs=1e-8
            )


def test_criterion_8_scheme_calibration_and_dominance():
    with criterion("criterion 8 (scheme calibration, distortion, dominance)", budget_s=300):
        lm2 = fair_coin_lm()
        lm6 = drifting_lm(6)
        calibration = [
            (
                "soft-red-list",
                schemes.SoftRedList(
                    schemes.SoftRedListConfig(
                        n=100, target_alpha=0.05, gamma=0.5, delta=2.0, vocab_size=2
                    )
                ),
                lm2,
            ),
            (
                "keyed-binary",
                schemes.ChristBinary(
                    schemes.ChristBinaryConfig(n=100, target_alpha=0.05, entropy_threshold=3.0)
                ),
                lm2,
            ),
            (
                "inverse-transform",
                schemes.InverseTransform(
                    schemes.ItsConfig(
                        n=50, target_alpha=0.05, resamples=99, block_k=10, vocab_size=6
                    )
                ),
                lm6,
            ),
            (
                "ump-sequence",
                schemes.UmpSequence(schemes.UmpSequenceConfig(n=100, target_alpha=0.05)),
                lm2,
            ),
        ]
        for name, scheme, lm in calibration:
            rate, stderr = schemes.estimate_type1(scheme, lm, trials=10_000, seed=8001)
            assert rate <= 0.05 + 4 * max(stderr, 1e-9), (name, rate, stderr)

        # distortion-free marginals for the two exactly-coupled generators
        from test_schemes import empirical_sequence_tv, tv_tolerance

        christ = schemes.ChristBinary(
            schemes.ChristBinaryConfig(n=8, target_alpha=0.05, entropy_threshold=3.0)
        )
        tv = empirical_sequence_tv(lm2, christ, 8, 30_000)
        assert tv <= tv_tolerance(256, 30_000)
        its_small = schemes.InverseTransform(
            schemes.ItsConfig(n=4, target_alpha=0.05, resamples=19, block_k=3, vocab_size=2)
        )
        tv = empirical_sequence_tv(lm2, its_small, 4, 30_000)
        assert tv <= tv_tolerance(16, 30_000)

        # dominance: optimal coupling's miss rate never exceeds any scheme's
        its_trials = {50: 500, 100: 400, 200: 250}
        for n in (50, 100, 200):
            for alpha in (0.01, 0.05):
                ump2_miss, ump2_se = schemes.estimate_type2(
                    schemes.UmpSequence(schemes.UmpSequenceConfig(n=n, target_alpha=alpha)),
                    lm2, trials=600, seed=8002,
                )
                ump6_miss, ump6_se = schemes.estimate_type2(
                    schemes.UmpSequence(schemes.UmpSequenceConfig(n=n, target_alpha=alpha)),
                    lm6, trials=600, seed=8003,
                )
                rivals2 = [
                    schemes.SoftRedList(
                        schemes.SoftRedListConfig(
                            n=n, target_alpha=alpha, gamma=0.5, delta=2.0, vocab_size=2
                        )
                    ),
                    schemes.ChristBinary(
                        schemes.ChristBinaryConfig(n=n, target_alpha=alpha, entropy_threshold=3.0)
                    ),
                ]
                for scheme in rivals2:
                    miss, se = schemes.estimate_type2(scheme, lm2, trials=600, seed=8004)
                    assert ump2_miss <= miss + 4 * math.hypot(ump2_se, se), (
                        scheme.name, n, alpha,
                    )
                resamples = 99 if alpha <= 0.01 else 19
                its = schemes.InverseTransform(
                    schemes.ItsConfig(
                        n=n, target_alpha=alpha, resamples=resamples, block_k=10, vocab_size=6
                    )
                )
                miss, se = schemes.estimate_type2(its, lm6, trials=its_trials[n], seed=8005)
                assert ump6_miss <= miss + 4 * math.hypot(ump6_se, se), ("its", n, alpha)


def test_criterion_9_reproducibility(tmp_path):
    with criterion("criterion 9 (byte-identical CSV across runs)"):
        cases = [
            ["rates", "--h", "0.1", "--alpha", "0.01", "--beta", "0.01",
             "--n_max", "512", "--seed", "5"],
            ["ump", "--rho", "0.4,0.3,0.2,0.1", "--eps", "0.05", "--seed", "5"],
            ["agnostic", "--n", "8", "--alpha", "1/4", "--instances", "10", "--seed", "5"],
            ["robust", "--rho", "0.5,0.3,0.2", "--alpha", "0.2", "--seed", "5"],
            ["schemes", "--lm", "fair-coin", "--scheme", "srl+christ+ump", "--n", "40",
             "--alpha", "0.05", "--trials", "200", "--seed", "5"],
        ]
        for idx, args in enumerate(cases):
            a = tmp_path / f"{idx}_a.csv"
            b = tmp_path / f"{idx}_b.csv"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), args[0]
