import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    beta_binomial_full,
    beta_count_vectors_full,
    random_dist,
    type2_product_mc_blocks,
    type2_product_rational,
)
from wmstat import rates
from wmstat.dist import LN2, DiscreteDist, ResourceLimit, entropy, search
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
            fast = type2_product_exact(rho, n, alpha)
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

    def test_class_count_overflow(self, monkeypatch):
        # every class of uniform(12) at n=20 has probability 12^-20 > alpha, so
        # the walk would keep all C(31, 11) = 84 672 315 of them
        monkeypatch.setattr(rates, "MAX_WALK_PREFIXES", 10_000)
        with pytest.raises(ResourceLimit, match="Monte Carlo"):
            type2_product_exact(DiscreteDist.uniform(12), 20, 1e-30)

    def test_walk_budget_counts_kept_prefixes(self, monkeypatch):
        # uniform(3), n=4, every class above alpha: 5 prefixes after the first
        # outcome, then the 15 classes, 20 kept in all
        rho = DiscreteDist.uniform(3)
        monkeypatch.setattr(rates, "MAX_WALK_PREFIXES", 20)
        assert type2_product_exact(rho, 4, 1e-6) > 0.0
        monkeypatch.setattr(rates, "MAX_WALK_PREFIXES", 19)
        with pytest.raises(ResourceLimit):
            type2_product_exact(rho, 4, 1e-6)

    def test_refusal_is_memory_bounded(self):
        # at the default budget the walk keeps 1 184 039 prefixes of uniform(12),
        # n=20, and refuses before building the next level of 3 108 105; at
        # 24 B a prefix the largest level is about 21 MB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="Monte Carlo"):
                type2_product_exact(DiscreteDist.uniform(12), 20, 1e-30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_many_classes_few_above_alpha(self):
        # C(61, 11) classes, none above alpha: the walk cuts at the root
        assert type2_product_exact(DiscreteDist.uniform(12), 50, 0.01) == 0.0

    @pytest.mark.parametrize("alpha", [0.01, 1e-4])
    def test_major_outcome_matches_lumped_closed_form(self, alpha):
        # one outcome at 0.99 and 11 equal minor ones: a class's probability
        # depends only on the minor count j, so the classes lump binomially
        # (0.59500606... at alpha = 0.01)
        n, p, q = 50, 0.99, 0.01 / 11
        got = type2_product_exact(DiscreteDist(probs=(p,) + (q,) * 11), n, alpha)
        want = math.fsum(
            math.comb(n, j) * 11**j * p ** (n - j) * q**j * max(0.0, 1 - alpha / (p ** (n - j) * q**j))
            for j in range(n + 1)
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            type2_product_exact(DiscreteDist.uniform(2), 2, 0.1, method="magic")

    @pytest.mark.parametrize(
        "rho, n",
        [(hard_instance(0.1), 5), (DiscreteDist(probs=(0.5, 0.3, 0.2)), 3)],
        ids=["binomial", "count-vectors"],
    )
    def test_stays_a_probability_at_tiny_alpha(self, rho, n):
        # every class is above alpha = 1e-30, so the rounded sum can pass 1
        assert type2_product_exact(rho, n, 1e-30) == 1.0

    def test_scan_stays_a_probability_at_tiny_alpha(self):
        n_star, curve = n_required_empirical(hard_instance(0.1), 1e-30, 0.01, 50)
        assert n_star is None
        assert [n for n, _, _ in curve.entries] == list(range(1, 51))
        assert max(beta for _, beta, _ in curve.entries) == 1.0


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
        # the budget counts kept prefixes: a few per kept class, not one per
        # class (the full walk visits 501 501 classes)
        monkeypatch.setattr(rates, "MAX_WALK_PREFIXES", 10)
        rho = DiscreteDist(probs=(0.999, 0.0006, 0.0004))
        assert type2_product_exact(rho, 1000, 0.01, method="count-vectors") > 0.0

    @pytest.mark.parametrize(
        "probs",
        [DiscreteDist.uniform(3).probs, (0.4, 0.3, 0.3), (0.3, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4),
         (0.1, 0.4, 0.2, 0.3)],
        ids=["uniform", "tie-after-largest", "largest-last", "ascending", "mixed"],
    )
    def test_every_slope_of_the_kept_range(self, probs):
        # the next outcome's count c is kept while c*(log p - log p_max after
        # it) clears the cut: slope > 0 with the largest first, 0 on a tie with
        # a later largest outcome, < 0 when a larger outcome comes later
        for n in (1, 2, 7, 20):
            for alpha in (0.9, 0.3, 1e-2, 1e-4, 1e-8, 1e-12):
                self.assert_same(DiscreteDist(probs=probs), n, alpha)

    def test_wide_support_walks_without_recursion(self):
        # one token, every outcome 1/k > alpha = 0.5/k: beta = k*(1/k - alpha) = 0.5;
        # a walk that recursed once per outcome died past about 1000 outcomes
        narrow = type2_product_exact(DiscreteDist.uniform(900), 1, 0.5 / 900)
        wide = type2_product_exact(DiscreteDist.uniform(1100), 1, 0.5 / 1100)
        assert narrow == pytest.approx(0.5, rel=1e-12)
        assert wide == pytest.approx(narrow, rel=1e-12)


class TestClassWalk:
    """``rates._classes`` uncut: every count-vector class, with its probability
    and its number of sequences."""

    @pytest.mark.parametrize(
        "probs, n",
        [((0.3, 0.7), 1), ((0.3, 0.7), 12), ((0.5, 0.5), 9), ((0.5, 0.3, 0.2), 10),
         ((1 / 3,) * 3, 8), ((0.1, 0.2, 0.3, 0.4), 9), ((0.6,) + (0.1,) * 4, 6)],
    )
    def test_uncut_walk_returns_every_class(self, probs, n):
        k = len(probs)
        log_p, log_count = rates._classes([math.log(p) for p in probs], n, -math.inf)
        assert len(log_p) == len(log_count) == math.comb(n + k - 1, k - 1)
        total = math.fsum(math.exp(c + p) for c, p in zip(log_count, log_p))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert sum(round(math.exp(c)) for c in log_count) == k**n


def _hex(values):
    return [float(v).hex() for v in values]


def _logs(*values):
    return [math.log(float(v)) for v in values]


class TestBinomialCut:
    """The binomial evaluator visits only the success counts that can exceed
    alpha and gives the full sweep's miss bit for bit, at one length or over
    a chunk of lengths."""

    ROWS = [hard_instance(h).probs for h in (0.6, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01)] + [
        (0.5 + eps, 0.5 - eps) for eps in (1e-16, 1e-14, 1e-10, 1e-6, 1e-3)
    ] + [(0.5, 0.5)]
    ALPHAS = [0.3, 0.05, 0.01, 1e-6, 1e-30]
    N_MAX = 1499

    @staticmethod
    def chunked(log_p, log_q, log_alpha, n_max):
        values, n = [], 1
        while n <= n_max:
            got = rates._beta_binomial(log_p, log_q, n, n_max + 1, log_alpha).tolist()
            values += got
            n += len(got)
        return values

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_chunks_and_single_lengths(self, row, alpha):
        # every length 1..1499 through chunks; every 7th through the exact
        # path's single-length call; both outcome orders
        for probs in (self.ROWS[row], self.ROWS[row][::-1]):
            log_p, log_q, log_alpha = _logs(*probs, alpha)
            full = [beta_binomial_full(log_p, log_q, n, log_alpha) for n in range(1, self.N_MAX + 1)]
            assert _hex(self.chunked(log_p, log_q, log_alpha, self.N_MAX)) == _hex(full)
            rho = DiscreteDist(probs=probs)
            single = range(1, self.N_MAX + 1, 7)
            got = _hex(type2_product_exact(rho, n, alpha) for n in single)
            # the public call caps at 1 the sums that rounding lifts past it at alpha = 1e-30
            assert got == _hex(min(full[n - 1], 1.0) for n in single)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_alpha_at_a_class_probability(self, row):
        # alpha set on a class's float log-probability and its neighbours:
        # which counts the float mask keeps then turns on rounding, and on
        # near-fair rows it can split the counts of one length either way
        for probs in (self.ROWS[row], self.ROWS[row][::-1]):
            log_p, log_q = _logs(*probs)
            for n in (1, 2, 7, 20, 64, 150):
                j = np.arange(n + 1)
                for log_class in {float(v) for v in (n - j) * log_p + j * log_q}:
                    alpha = math.exp(log_class)
                    for a in (math.nextafter(alpha, 0.0), alpha, math.nextafter(alpha, 1.0)):
                        if not 0.0 < a < 1.0:
                            continue
                        want = beta_binomial_full(log_p, log_q, n, math.log(a))
                        got = rates._beta_binomial(log_p, log_q, n, n + 1, math.log(a))
                        assert _hex(got) == _hex([want]), (probs, n, a)

    @pytest.mark.parametrize("cells", [1, 7, 100])
    def test_cell_budget_splits_chunks(self, cells, monkeypatch):
        # a small budget cuts each call short (one length at least), and the
        # values are those of an unbounded chunk
        monkeypatch.setattr(rates, "SCAN_CELLS", cells)
        # the fair coin at alpha = 1e-30 keeps all n + 1 counts of lengths
        # 1..m while m(m + 3)/2 cells fit
        fair = rates._beta_binomial(math.log(0.5), math.log(0.5), 1, 300, math.log(1e-30))
        assert len(fair) == max(1, max(m for m in range(15) if m * (m + 3) // 2 <= cells))
        for probs, alpha in [((0.5, 0.5), 1e-30), (hard_instance(0.3).probs, 1e-6), ((0.4, 0.6), 0.01)]:
            log_p, log_q, log_alpha = _logs(*probs, alpha)
            want = _hex(beta_binomial_full(log_p, log_q, n, log_alpha) for n in range(1, 300))
            assert _hex(self.chunked(log_p, log_q, log_alpha, 299)) == want

    def test_visits_only_cut_counts(self, monkeypatch):
        # at n = 40 000 on hard_instance(0.001), a few success counts of the
        # 40 001 can exceed alpha; one cell per count fits a budget of 8
        monkeypatch.setattr(rates, "SCAN_CELLS", 8)
        log_p, log_q, log_alpha = _logs(*hard_instance(0.001).probs, 0.01)
        got = rates._beta_binomial(log_p, log_q, 40_000, 40_002, log_alpha)
        assert len(got) == 2
        want = [beta_binomial_full(log_p, log_q, n, log_alpha) for n in (40_000, 40_001)]
        assert _hex(got) == _hex(want)


def _scan_oracle(rho, alpha, beta, n_max):
    """First crossing and curve by a per-length loop over the oracles."""
    probs = [float(p) for p in rho.probs if float(p) > 0.0]
    entries = []
    for n in range(1, n_max + 1):
        if len(probs) == 1:
            value = 1.0 - alpha
        elif len(probs) == 2:
            log_p, log_q, log_alpha = _logs(*probs, alpha)
            value = beta_binomial_full(log_p, log_q, n, log_alpha)
        else:
            value = beta_count_vectors_full(rho, n, alpha)
        entries.append((n, value.hex(), 0.0))
        if value <= beta:
            return n, entries
    return None, entries


class TestScanMatchesPerLength:
    """The chunked first-crossing scan returns the per-length loop's n* and
    curve, float for float."""

    @staticmethod
    def assert_same(rho, alpha, beta, n_max):
        n_star, curve = n_required_empirical(rho, alpha, beta, n_max)
        got = [(n, value.hex(), stderr) for n, value, stderr in curve.entries]
        assert (n_star, got) == _scan_oracle(rho, alpha, beta, n_max)
        return n_star

    @pytest.mark.parametrize("h, n_star", [(0.2, 76), (0.1, 189), (0.05, 448), (0.02, 1335), (0.01, 2986)])
    def test_hard_instances(self, h, n_star):
        assert self.assert_same(hard_instance(h), 0.01, 0.01, 4096) == n_star

    @pytest.mark.parametrize(
        "rho",
        [DiscreteDist(probs=(0.5, 0.5)), DiscreteDist.point_mass(2, 0), DiscreteDist(probs=(0.6, 0.3, 0.1))],
        ids=["fair-coin", "point-mass", "three-outcomes"],
    )
    def test_other_supports(self, rho):
        self.assert_same(rho, 0.05, 0.05, 60)

    def test_n_max_inside_a_chunk(self):
        # the first chunks cover n = 1..16, 17..48, 49..112, 113..240
        assert self.assert_same(hard_instance(0.1), 0.01, 0.01, 200) == 189

    def test_n_max_below_crossing(self):
        assert self.assert_same(hard_instance(0.1), 0.01, 0.01, 150) is None
        _, curve = n_required_empirical(hard_instance(0.1), 0.01, 0.01, 150)
        assert [n for n, _, _ in curve.entries] == list(range(1, 151))

    def test_small_cell_budget(self, monkeypatch):
        monkeypatch.setattr(rates, "SCAN_CELLS", 3)
        assert self.assert_same(hard_instance(0.05), 0.01, 0.01, 4096) == 448
        self.assert_same(DiscreteDist(probs=(0.5, 0.5)), 1e-6, 1e-9, 40)


def _child_peak_mb(code: str) -> float:
    """The peak resident set, in MB, of a fresh interpreter that runs ``code``.

    The child reads its own ``VmHWM``: on Linux its ``ru_maxrss`` starts from
    the peak of the process that forked it, so it would carry this test
    process's peak, which depends on the tests that ran before.
    """
    code += (
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(rates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB


class TestLongScans:
    """Crossings in the tens of thousands of tokens (alpha = beta = 0.01)."""

    @pytest.mark.parametrize("h, n_star", [(0.005, 6594), (0.002, 18_506), (0.001, 40_032)])
    def test_crossing(self, h, n_star):
        rho = hard_instance(h)
        got, curve = n_required_empirical(rho, 0.01, 0.01, 100_000)
        assert got == n_star
        assert [n for n, _, _ in curve.entries] == list(range(1, n_star + 1))
        log_p, log_q, log_alpha = _logs(*rho.probs, 0.01)
        before, at = (beta_binomial_full(log_p, log_q, n, log_alpha) for n in (n_star - 1, n_star))
        assert before > 0.01 >= at
        assert _hex([curve.beta_at(n_star - 1), curve.beta_at(n_star)]) == _hex([before, at])

    def test_memory_does_not_grow_with_scan_length(self):
        code = (
            "from wmstat.rates import hard_instance, n_required_empirical\n"
            "assert n_required_empirical(hard_instance(0.001), 0.01, 0.01, 100_000)[0] == 40_032\n"
        )
        assert _child_peak_mb(code) < 200


class TestLogFactorialsOnDemand:
    """log(c!) is ``math.lgamma`` of the counts a call reads: no table
    outlives a call, so no call pays for a longer one made before it."""

    def test_long_sequence_reads_few_counts(self):
        # no sequence of 10**7 tokens is as likely as alpha, so the cut reads
        # log(n!) alone; a table of log(i!) up to n would hold 76 MiB
        tracemalloc.start()
        try:
            assert type2_product_exact(hard_instance(0.1), 10**7, 0.01) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_array_outlives_a_scan(self):
        assert n_required_empirical(hard_instance(0.01), 0.01, 0.01, 4096)[0] == 2986
        assert [name for name, v in vars(rates).items() if isinstance(v, np.ndarray)] == []

    def test_each_count_once(self, monkeypatch):
        # spans 0..2, 8..10 and 9..10 (overlapping), 40, and an empty array
        seen = []

        def lgamma(x):
            seen.append(x)
            return math.lgamma(x)

        monkeypatch.setattr(rates, "math", SimpleNamespace(**{**vars(math), "lgamma": lgamma}))
        counts = [[9, 10, 9], [2, 0, 1], [10, 8, 9], [40], []]
        got = rates._log_factorials(*(np.array(c, dtype=np.int64) for c in counts))
        assert sorted(seen) == [c + 1 for c in (0, 1, 2, 8, 9, 10, 40)]
        assert [_hex(g) for g in got] == [_hex(math.lgamma(c + 1) for c in cs) for cs in counts]


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


class TestMonteCarloChunks:
    """Chunked draws give the whole-block estimator's results bit for bit."""

    ROWS = [
        DiscreteDist.point_mass(2, 0),
        DiscreteDist(probs=(0.5, 0.5)),
        hard_instance(0.1),
        DiscreteDist(probs=(0.6, 0.0, 0.3, 0.1)),
        DiscreteDist(probs=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))),
    ]

    @pytest.mark.parametrize("n", [1, 189])
    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_block_boundary(self, row, n):
        # a second, 37-sequence block; n = 189 splits each block into chunks
        args = (self.ROWS[row], n, 0.01, rates.MC_BLOCK + 37, 5 + row)
        assert type2_product_mc(*args) == type2_product_mc_blocks(*args)

    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_sequences_longer_than_a_chunk(self, row, monkeypatch):
        # n > MC_CHUNK: each chunk is one sequence; a small block keeps the
        # whole-block oracle's [size, n] arrays small
        monkeypatch.setattr(rates, "MC_BLOCK", 128)
        monkeypatch.setattr(rates, "MC_CHUNK", 1 << 13)
        args = (self.ROWS[row], 9000, 0.01, 128 + 37, 11 + row)
        assert type2_product_mc(*args) == type2_product_mc_blocks(*args)

    def test_random_rows(self):
        rng = np.random.default_rng(14)
        for trial in range(12):
            rho = DiscreteDist(probs=random_dist(rng, int(rng.integers(2, 18))))
            n = int(rng.integers(1, 300))
            args = (rho, n, float(rng.uniform(1e-4, 0.5)), int(rng.integers(100, 3000)), trial)
            assert type2_product_mc(*args) == type2_product_mc_blocks(*args)

    def test_memory_does_not_grow_with_block_times_n(self):
        # one full block at n = 4096 is 2**26 draws: 1.6 GB as whole-block
        # arrays, chunks of MC_CHUNK uniforms here
        code = (
            "from wmstat.rates import MC_BLOCK, hard_instance, type2_product_mc\n"
            "type2_product_mc(hard_instance(0.1), 4096, 0.01, MC_BLOCK, 1)\n"
        )
        assert _child_peak_mb(code) < 200


class TestMonteCarloPruning:
    """Rows with too many draws outside the likeliest outcome's interval are
    neither searched nor summed, and the estimate keeps its bits."""

    CASES = {
        # c* = 1: only sequences of the majority token alone are summed
        "hard-0.1": (hard_instance(0.1), 189, 0.01),
        "hard-0.2": (hard_instance(0.2), 76, 0.01),
        "hard-0.05": (hard_instance(0.05), 448, 0.01),
        # c* = 2
        "hard-0.3": (hard_instance(0.3), 20, 0.01),
        # c* > n: every row is summed, and no draw is counted
        "all-rows": (DiscreteDist(probs=(0.6, 0.4)), 2, 0.1),
        # t in the middle of the CDF: both ends of [0.2, 0.9) bound it
        "middle": (DiscreteDist(probs=(0.2, 0.7, 0.1)), 10, 0.01),
        # a tie for t: the other tied outcome prunes nothing
        "tie": (DiscreteDist(probs=(0.4, 0.4, 0.2)), 4, 0.01),
        # zero-probability outcomes on both sides of t's interval [0.25, 0.9)
        "zero-beside": (DiscreteDist(probs=(0.25, 0.0, 0.65, 0.0, 0.1)), 8, 0.01),
        # the all-t sequence within 1e-12 relative of alpha, on both sides
        "at-alpha-above": (DiscreteDist(probs=(0.9, 0.1)), 3, 0.729 * (1 + 1e-12)),
        "at-alpha-below": (DiscreteDist(probs=(0.9, 0.1)), 3, 0.729 * (1 - 1e-12)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_every_row_summed(self, case):
        args = (*self.CASES[case], 4000, 17)
        assert type2_product_mc(*args) == type2_product_mc_blocks(*args)

    def test_no_sequence_above_alpha(self):
        # c* = 0: 2**-3 < 0.2, so every term is 0
        args = (DiscreteDist(probs=(0.5, 0.5)), 3, 0.2, 1000, 4)
        assert type2_product_mc(*args) == type2_product_mc_blocks(*args) == (0.0, 0.0)

    def test_searches_few_rows(self, monkeypatch):
        # at h = 0.1, n = 189 about 2 % of sequences hold no minority token
        seen = []

        def spy(table, u):
            seen.append(len(u))
            return search(table, u)

        monkeypatch.setattr(rates, "search", spy)
        samples = 1 << 14
        type2_product_mc(hard_instance(0.1), 189, 0.01, samples, 3)
        assert 0 < sum(seen) < 0.05 * samples


class TestCountArguments:
    """Counts must be ints or numpy integers; anything else names the quantity."""

    BAD = [1.0, 2.5, True, False, "3", None, Fraction(3)]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_length(self, bad):
        for estimate in (type2_product_exact, lambda *args: type2_product_mc(*args, 1000, 0)):
            with pytest.raises(ValueError, match="n must be an integer"):
                estimate(DiscreteDist.uniform(2), bad, 0.1)

    @pytest.mark.parametrize("bad", [1000.0, 1e3, True, "1000", Fraction(1000)], ids=repr)
    def test_samples(self, bad):
        with pytest.raises(ValueError, match="samples must be an integer"):
            type2_product_mc(DiscreteDist.uniform(2), 3, 0.1, bad, 0)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_n_max(self, bad):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            n_required_empirical(hard_instance(0.2), 0.01, 0.01, bad)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integers_accepted(self, kind):
        rho = hard_instance(0.2)
        assert type2_product_exact(rho, kind(40), 0.01) == type2_product_exact(rho, 40, 0.01)
        assert type2_product_mc(rho, kind(40), 0.01, kind(500), 3) == type2_product_mc(
            rho, 40, 0.01, 500, 3
        )
        assert n_required_empirical(rho, 0.01, 0.01, kind(200)) == n_required_empirical(
            rho, 0.01, 0.01, 200
        )


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RateCurve(entries=((1, 1.5, 0.0),)), ValueError, r"beta 1.5 outside \[0,1\]"),
        (lambda: RateCurve(entries=((1, 0.5, -0.1),)), ValueError, "stderr must be >= 0"),
        (lambda: RateCurve(entries=((1, 0.5, 0.0), (3, 0.2, 0.0))).beta_at(2), KeyError,
         "n=2 not in curve"),
        (lambda: n_required_empirical(hard_instance(0.1), 0.01, 1.0, 16), ValueError,
         r"beta must be in \(0,1\), got 1.0"),
    ],
    ids=["curve-beta", "curve-stderr", "curve-missing-n", "scan-beta"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
