"""The three benchmark workloads: inputs drawn from a seed, the operations of
one pass, and the oracles every result is checked against.

A workload is a fixed list of operations (one pass).  An operation is one
call sequence into wmstat's public functions, timed from outside.  Its
inputs are drawn, untimed, from (seed, operation, occurrence): repeated
passes see fresh random instances of the same size, so the per-kind medians
the harness takes average over instances as well as over noise.  Sizes are
fixed: the seed changes distributions, keys and Monte Carlo seeds, never
the amount of work.

Why these three (README.md has the full map):

- ``mc-schemes``: Monte Carlo Type I/II errors of the four schemes.  Time goes
  to per-token Python loops in ``lm``, ``schemes``, ``streams`` and ``dist``
  and to the ITS alignment; ``rates``, ``simplex`` and ``flow`` are never
  called.
- ``rate-scan``: the rate-theorem tool.  Exact miss probabilities on the
  binomial path (O(n) per point) and the count-vector path (O(n^(k-1))), and
  the bulk, vectorised Monte Carlo estimator that uses ``dist`` and
  ``streams`` the opposite way from ``mc-schemes``.
- ``lp-flow``: the deterministic solvers.  Robust LPs (dense simplex, float
  and exact), the agnostic coupling by max-flow, the Strassen check and the
  closed-form UMP coupling; the Monte Carlo engine is never called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One timed operation of a pass.

    ``inputs(occurrence)`` draws its inputs (untimed), ``call(inputs)`` is
    the timed part, ``work(result)`` counts the units it did (trials, points,
    tokens, solves) towards its ``group``'s throughput, and
    ``check(inputs, result)`` returns None or what is wrong.
    """

    kind: str
    group: str
    inputs: Callable[[int], object]
    call: Callable[[object], object]
    work: Callable[[object], int]
    check: Callable[[object, object], str | None]


def _fixed(n: int) -> Callable[[object], int]:
    return lambda _result: n


def _constant(value) -> Callable[[int], object]:
    return lambda _occurrence: value


def _child_seed(*parts: int) -> int:
    """A 63-bit seed derived from integer parts, independent of wmstat."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0] >> 1)


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _interleave(lists: list[list[Op]]) -> list[Op]:
    """Merge op lists so each keeps its order and is spread over the pass."""
    keyed = [
        ((i + 0.5) / len(ops), j, op)
        for j, ops in enumerate(lists)
        for i, op in enumerate(ops)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


def _untraced_ok(records, kind: str):
    return [r for r in records if r.op.kind == kind and not r.traced and r.failure is None]


# ---------------------------------------------------------------------------
# mc-schemes


@dataclass(frozen=True)
class McSizes:
    cases: tuple  # (scheme, lm preset, n)
    reps: dict  # scheme -> repetitions per pass, so each scheme has about 1/4 of wall_s
    trials: int  # per estimate call (the library's minimum is 100)


MC_FULL = McSizes(
    cases=(
        ("srl", "fair-coin", 100),
        ("srl", "drifting6", 100),
        ("christ", "fair-coin", 100),
        ("christ", "biased-binary", 200),
        ("ump", "fair-coin", 100),
        ("its", "drifting6", 50),
        ("its", "drifting6", 100),
    ),
    reps={"srl": 6, "christ": 23, "ump": 34, "its": 1},
    trials=100,
)
MC_TINY = McSizes(
    cases=(
        ("srl", "fair-coin", 16),
        ("srl", "drifting6", 16),
        ("christ", "fair-coin", 16),
        ("christ", "biased-binary", 24),
        ("ump", "fair-coin", 16),
        ("its", "drifting6", 12),
        ("its", "drifting6", 16),
    ),
    reps={"srl": 1, "christ": 1, "ump": 1, "its": 1},
    trials=100,
)


class McSchemes:
    name = "mc-schemes"
    reference = ("sampling",)  # the per-token loops of lm, dist and schemes
    groups = {"type1": "type1_trials_per_s", "type2": "type2_trials_per_s"}
    keep_results = True  # estimates feed the whole-run Type I oracle
    alpha = 0.05

    def __init__(self, lib, seed: int, sizes: McSizes = MC_FULL):
        self.lib, self.seed, self.sizes = lib, seed, sizes
        lm, sch = lib.lm, lib.schemes
        models = {
            "fair-coin": lm.fair_coin_lm(),
            "biased-binary": lm.biased_binary_lm(),
            "drifting6": lm.drifting_lm(6),
        }
        a = self.alpha
        build = {
            "srl": lambda n, m: sch.SoftRedList(
                sch.SoftRedListConfig(n=n, target_alpha=a, vocab_size=m.vocab_size)
            ),
            "christ": lambda n, m: sch.ChristBinary(sch.ChristBinaryConfig(n=n, target_alpha=a)),
            "its": lambda n, m: sch.InverseTransform(
                sch.ItsConfig(n=n, target_alpha=a, vocab_size=m.vocab_size)
            ),
            "ump": lambda n, m: sch.UmpSequence(sch.UmpSequenceConfig(n=n, target_alpha=a)),
        }
        self.cases = [
            (f"{s}.{preset}.{n}", s, build[s](n, models[preset]), models[preset])
            for s, preset, n in sizes.cases
        ]
        # repetition-major within a scheme, so a partial pass still covers
        # every case of it
        per_scheme: dict[str, list[Op]] = {}
        for rep in range(max(sizes.reps.values())):
            for idx, (label, short, scheme, model) in enumerate(self.cases):
                if rep < sizes.reps[short]:
                    ops = per_scheme.setdefault(short, [])
                    ops.append(self._op(idx, 1, label, scheme, model))
                    ops.append(self._op(idx, 2, label, scheme, model))
        self.ops = _interleave(list(per_scheme.values()))

    def _op(self, case_idx: int, kind: int, label: str, scheme, model) -> Op:
        trials = self.sizes.trials
        estimate = "estimate_type1" if kind == 1 else "estimate_type2"

        def call(mc_seed: int):
            return getattr(self.lib.schemes, estimate)(scheme, model, trials, mc_seed)

        def check(_seed: int, result) -> str | None:
            rate, stderr = result
            hits = rate * trials
            if not 0.0 <= rate <= 1.0 or abs(hits - round(hits)) > 1e-9:
                return f"rate {rate!r} is not a count over {trials} trials"
            if not math.isclose(stderr, math.sqrt(rate * (1.0 - rate) / trials), abs_tol=1e-15):
                return f"stderr {stderr!r} disagrees with rate {rate!r}"
            return None

        return Op(
            f"type{kind}.{label}",
            f"type{kind}",
            lambda occ: _child_seed(self.seed, case_idx, kind, occ),
            call,
            _fixed(trials),
            check,
        )

    @staticmethod
    def share_label(op: Op) -> str:
        """The scheme an operation estimates: ``wall_share`` is per scheme."""
        return op.kind.split(".")[1]

    def warm(self) -> None:
        key = self.lib.schemes.WatermarkKey(seed=1)
        for _, _, scheme, model in self.cases:
            run = scheme.generate(model, key)
            scheme.detect(model, key, run.tokens, run.meta)

    def failures(self, records) -> dict[int, str]:
        """Type I of every case stays within alpha + 4 sigma over all its trials."""
        bad: dict[int, str] = {}
        index = {id(r): i for i, r in enumerate(records)}
        for label, *_ in self.cases:
            runs = _untraced_ok(records, f"type1.{label}")
            if not runs:
                continue
            n = self.sizes.trials * len(runs)
            rate = sum(r.result[0] for r in runs) / len(runs)
            limit = self.alpha + 4.0 * math.sqrt(self.alpha * (1.0 - self.alpha) / n)
            if rate > limit:
                for r in runs:
                    bad[index[id(r)]] = f"{label}: Type I {rate:.4f} over {n} trials exceeds {limit:.4f}"
        return bad

    def computed(self) -> dict[str, int]:
        its = max(n for s, _, n in self.sizes.cases if s == "its")
        resamples = self.lib.schemes.ItsConfig(n=its, target_alpha=self.alpha).resamples
        return {"schemes.its.alignment_cells": (resamples + 1) * its**2}

    def reject_ratios(self, records) -> dict[str, float]:
        """Useful-outcome ratio on Type II trials: detections per watermarked text."""
        out = {}
        for short in {short for _, short, _, _ in self.cases}:
            rates = [
                r.result[0]
                for r in records
                if r.op.group == "type2"
                and r.op.kind.split(".")[1] == short
                and not r.traced
                and r.failure is None
            ]
            if rates:
                out[short] = 1.0 - sum(rates) / len(rates)
        return out


# ---------------------------------------------------------------------------
# rate-scan


@dataclass(frozen=True)
class RateSizes:
    hs: tuple  # entropies of the binomial-path scans
    n_max: int
    cv_points: tuple  # (k, n) count-vector points
    mc_h: float
    mc_n: int  # about n* at mc_h
    mc_samples: int


RATE_FULL = RateSizes(
    hs=(0.2, 0.1, 0.05, 0.02, 0.01),
    n_max=4096,
    cv_points=((3, 300), (3, 600), (3, 1000), (4, 50), (4, 100), (4, 150)),
    mc_h=0.1,
    mc_n=189,
    mc_samples=1 << 17,
)
RATE_TINY = RateSizes(
    hs=(0.2, 0.1),
    n_max=4096,
    cv_points=((3, 30), (4, 12)),
    mc_h=0.2,
    mc_n=76,
    mc_samples=2048,
)


class RateScan:
    name = "rate-scan"
    reference = ("interpreter", "sampling", "arrays")  # loops, small and whole-array numpy work
    groups = {
        "binomial": "binomial_points_per_s",
        "count_vector": "count_vector_points_per_s",
        "mc": "mc_tokens_per_s",
    }
    keep_results = False
    alpha = beta = 0.01

    def __init__(self, lib, seed: int, sizes: RateSizes = RATE_FULL):
        self.lib, self.seed, self.sizes = lib, seed, sizes
        rates = lib.rates
        self._cv_oracle: dict[float, float] = {}
        scans = [self._scan_op(h, rates.hard_instance(h)) for h in sizes.hs]
        points = [self._cv_op(i, k, n) for i, (k, n) in enumerate(sizes.cv_points)]
        self.mc_rho = rates.hard_instance(sizes.mc_h)
        self._mc_exact: float | None = None
        # one Monte Carlo seed per run: the 4-sigma oracle is then one test
        # per run, however many passes fit
        mc = Op(
            "mc",
            "mc",
            _constant(_child_seed(seed, 1)),
            lambda mc_seed: self.lib.rates.type2_product_mc(
                self.mc_rho, sizes.mc_n, self.alpha, sizes.mc_samples, mc_seed
            ),
            _fixed(sizes.mc_samples * sizes.mc_n),
            self._check_mc,
        )
        self.ops = _interleave([scans, points, [mc]])

    def _scan_op(self, h: float, rho) -> Op:
        a, b, n_max = self.alpha, self.beta, self.sizes.n_max

        def check(_inputs, result) -> str | None:
            rates = self.lib.rates
            n_star, curve = result
            if n_star is None:
                return f"h={h}: no crossing by n={n_max}"
            bounds = rates.rate_bounds(h, a, b, 2)
            if not bounds.lower <= n_star <= bounds.upper:
                return f"h={h}: n*={n_star} outside [{bounds.lower:.1f}, {bounds.upper:.1f}]"
            if h not in self._cv_oracle:
                self._cv_oracle[h] = rates.type2_product_exact(
                    rho, n_star, a, method="count-vectors"
                )
            gap = abs(self._cv_oracle[h] - curve.beta_at(n_star))
            if gap > 1e-12:
                return f"h={h}: count-vector path differs from binomial by {gap:.3g}"
            return None

        return Op(
            f"binomial.h{h}",
            "binomial",
            _constant(rho),
            lambda rho: self.lib.rates.n_required_empirical(rho, a, b, n_max),
            lambda result: len(result[1].entries),
            check,
        )

    def _cv_op(self, idx: int, k: int, n: int) -> Op:
        def inputs(occ: int):
            # the likeliest sequence has probability alpha**c > alpha, so the
            # miss probability lies strictly inside (0, 1 - alpha)
            rng = _rng(self.seed, 2, idx, occ)
            major = math.exp(rng.uniform(0.3, 0.7) * math.log(self.alpha) / n)
            rest = (1.0 - major) * rng.dirichlet(np.ones(k - 1))
            return self.lib.dist.DiscreteDist(probs=(major, *rest.tolist()))

        def check(_rho, value) -> str | None:
            if not 0.0 < value < 1.0 - self.alpha:
                return f"k={k} n={n}: miss {value!r} outside (0, 1 - alpha)"
            return None

        return Op(
            f"count_vector.k{k}.n{n}",
            "count_vector",
            inputs,
            lambda rho: self.lib.rates.type2_product_exact(rho, n, self.alpha),
            _fixed(1),
            check,
        )

    def _check_mc(self, _seed, result) -> str | None:
        mean, stderr = result
        if self._mc_exact is None:
            self._mc_exact = self.lib.rates.type2_product_exact(
                self.mc_rho, self.sizes.mc_n, self.alpha
            )
        if abs(mean - self._mc_exact) > 4.0 * stderr + 1e-12:
            return f"Monte Carlo {mean!r} +- {stderr!r} misses exact {self._mc_exact!r}"
        return None

    def warm(self) -> None:
        # grows the log-factorial table to the longest scan
        rates = self.lib.rates
        rates.type2_product_exact(rates.hard_instance(min(self.sizes.hs)), self.sizes.n_max, self.alpha)

    def failures(self, records) -> dict[int, str]:
        return {}

    def computed(self) -> dict[str, int]:
        return {
            "rates.count_vector_classes": sum(
                math.comb(n + k - 1, k - 1) for k, n in self.sizes.cv_points
            )
        }


# ---------------------------------------------------------------------------
# lp-flow


@dataclass(frozen=True)
class LpSizes:
    hamming: tuple  # (k, n, c) edit graphs over length-n strings
    hamming_alpha: float
    small_lps: int  # random robust LPs with k=8 outcomes
    agnostic: tuple  # (n, m, mode) couplings by max-flow
    strassen: tuple  # (n, m, mode) brute-force checks
    ump_dists: int  # distributions in the closed-form sweep
    ump_alphas: tuple


LP_FULL = LpSizes(
    hamming=((2, 8, 1), (2, 9, 1), (2, 6, 2)),
    hamming_alpha=0.05,
    small_lps=40,
    agnostic=((12, 3, "float"), (12, 3, "exact"), (16, 4, "float")),
    strassen=((16, 4, "float"), (12, 3, "exact")),
    ump_dists=20,
    ump_alphas=(0.01, 0.05, 0.1, 0.2, 0.3),
)
LP_TINY = LpSizes(
    hamming=((2, 4, 1), (2, 3, 2)),
    hamming_alpha=0.05,
    small_lps=4,
    agnostic=((6, 2, "float"), (6, 2, "exact"), (8, 2, "float")),
    strassen=((8, 2, "float"), (6, 2, "exact")),
    ump_dists=2,
    ump_alphas=(0.05, 0.2),
)

SMALL_LP_K = 8
UMP_K = 6


@dataclass
class SmallLps:
    """Random robust LPs of one occurrence, in float and in rational form."""

    floats: list
    rationals: list
    exact_optima: list | None = None  # filled by the exact op's check


def _rational(simplex, problem):
    """The same LP with every coefficient as an exact ``Fraction``."""
    return simplex.LpProblem(
        objective=tuple(Fraction(c) for c in problem.objective),
        constraints=tuple(
            (tuple(Fraction(c) for c in row), Fraction(b)) for row, b in problem.constraints
        ),
        bounds=tuple((Fraction(lo), Fraction(hi)) for lo, hi in problem.bounds),
    )


class LpFlow:
    name = "lp-flow"
    reference = ("interpreter", "sampling", "arrays")  # loops, small and whole-array numpy work
    groups = {
        "hamming_lp": "hamming_lp_solves_per_s",
        "small_lp": "small_lp_solves_per_s",
        "agnostic": "agnostic_couplings_per_s",
    }
    keep_results = False

    def __init__(self, lib, seed: int, sizes: LpSizes = LP_FULL):
        self.lib, self.seed, self.sizes = lib, seed, sizes
        hamming = [self._hamming_op(i, *spec) for i, spec in enumerate(sizes.hamming)]
        # exact first: the float op's oracle is the exact op's result
        small = [self._small_op("exact"), self._small_op("float")]
        self._small_lps: tuple[int, SmallLps] | None = None
        couplings = [self._coupling_op(i, *spec) for i, spec in enumerate(sizes.agnostic)]
        strassen = [self._strassen_op(i, *spec) for i, spec in enumerate(sizes.strassen)]
        sweep = Op(
            "ump.sweep",
            "ump",
            self._ump_inputs,
            self._ump_sweep,
            _fixed(sizes.ump_dists * len(sizes.ump_alphas)),
            self._check_ump,
        )
        self.ops = _interleave([hamming, small, couplings, strassen, [sweep]])

    def _dist(self, rng, n: int, exact: bool = False):
        if exact:
            weights = [int(w) for w in rng.integers(1, 50, size=n)]
            total = sum(weights)
            probs = tuple(Fraction(w, total) for w in weights)
        else:
            probs = tuple(rng.dirichlet(np.ones(n)).tolist())
        return self.lib.dist.DiscreteDist(probs=probs)

    # -- robust LPs over Hamming edit graphs; the graph build is part of the op

    def _hamming_op(self, idx: int, k: int, n: int, c: int) -> Op:
        alpha = self.sizes.hamming_alpha

        def call(rho) -> float:
            robust = self.lib.robust
            graph = robust.hamming_graph(k, n, c)
            beta, _ = robust.robust_optimal_type2(rho, alpha, graph)
            return beta

        def check(rho, beta: float) -> str | None:
            floor = self.lib.ump.optimal_type2(rho, alpha)
            if not floor - 1e-9 <= beta <= 1.0 + 1e-9:
                return f"hamming({k},{n},{c}): robust miss {beta!r} below unperturbed {floor!r}"
            return None

        return Op(
            f"hamming.{k}.{n}.{c}",
            "hamming_lp",
            lambda occ: self._dist(_rng(self.seed, 3, idx, occ), k**n),
            call,
            _fixed(1),
            check,
        )

    # -- random k=8 robust LPs, float and exact, on the same instances

    def _small_problems(self, occ: int) -> SmallLps:
        """The instance set of occurrence ``occ``, shared by both modes."""
        if self._small_lps is not None and self._small_lps[0] == occ:
            return self._small_lps[1]
        robust = self.lib.robust
        rng = _rng(self.seed, 4, occ)
        floats = []
        for i in range(self.sizes.small_lps):
            rho = self._dist(rng, SMALL_LP_K)
            alpha = float(rng.uniform(0.05, 0.6))
            edges = [
                (u, v)
                for u in range(SMALL_LP_K)
                for v in range(SMALL_LP_K)
                if u != v and rng.random() < 0.4
            ]
            graph = robust.PerturbationGraph.from_edges(SMALL_LP_K, edges)
            floats.append(robust.robust_lp_build(rho, alpha, graph, bool(i % 2)))
        # exact mode gets the same LPs with every float converted exactly:
        # its residual check is only exact on rational data
        lps = SmallLps(floats, [_rational(self.lib.simplex, p) for p in floats])
        self._small_lps = (occ, lps)
        return lps

    def _small_op(self, mode: str) -> Op:
        exact = mode == "exact"

        def call(lps: SmallLps) -> list:
            solve = self.lib.simplex.simplex_solve
            if exact:
                solutions = [solve(p, exact=True) for p in lps.rationals]
            else:
                solutions = [solve(p) for p in lps.floats]
            return [(sol.status, float(sol.objective)) for sol in solutions]

        def check(lps: SmallLps, result) -> str | None:
            for i, (status, _) in enumerate(result):
                if status != "optimal":
                    return f"{mode} LP {i}: status {status}"
            if exact:
                lps.exact_optima = [value for _, value in result]
                return None
            if lps.exact_optima is None:
                return "no exact-mode optima to compare with"
            for i, ((_, got), want) in enumerate(zip(result, lps.exact_optima)):
                if abs(got - want) > 1e-9:
                    return f"float LP {i}: optimum {got!r} differs from exact {want!r}"
            return None

        return Op(
            f"small_lp.{mode}",
            "small_lp",
            self._small_problems,
            call,
            _fixed(self.sizes.small_lps),
            check,
        )

    # -- agnostic coupling by max-flow

    def _coupling_op(self, idx: int, n: int, m: int, mode: str) -> Op:
        law = self.lib.agnostic.UniformRegionLaw(n=n, region_size=m)

        def call(rho) -> float:
            _, loss = self.lib.agnostic.build_agnostic_coupling(rho, law)
            return float(loss)

        def check(rho, loss: float) -> str | None:
            agnostic, ump = self.lib.agnostic, self.lib.ump
            gap = max(agnostic.worst_set_gap(rho, law), 0.0)
            if abs(loss - gap) > 1e-9:
                return f"agnostic n={n} m={m} {mode}: loss {loss!r} != worst-set gap {gap!r}"
            alpha = law.alpha
            budget = float(agnostic.max_type2_loss(n, alpha)) + ump.clipped_surplus(
                rho.probs, float(alpha)
            )
            if loss > budget + 1e-9:
                return f"agnostic n={n} m={m} {mode}: loss {loss!r} above budget {budget!r}"
            return None

        return Op(
            f"agnostic.n{n}.m{m}.{mode}",
            "agnostic",
            lambda occ: self._dist(_rng(self.seed, 5, idx, occ), n, mode == "exact"),
            call,
            _fixed(1),
            check,
        )

    # -- brute-force Strassen check at the minimax budget, which always holds

    def _strassen_op(self, idx: int, n: int, m: int, mode: str) -> Op:
        agnostic = self.lib.agnostic
        law = agnostic.UniformRegionLaw(n=n, region_size=m)
        alpha, exact = law.alpha, mode == "exact"
        gamma = agnostic.max_type2_loss(n, alpha)

        def inputs(occ: int):
            rho = self._dist(_rng(self.seed, 6, idx, occ), n, exact)
            if exact:
                budget = gamma + sum((max(p - alpha, 0) for p in rho.probs), Fraction(0))
            else:
                surplus = self.lib.ump.clipped_surplus(rho.probs, float(alpha))
                budget = float(gamma) + surplus + 1e-9
            return rho, budget

        def check(inputs, holds: bool) -> str | None:
            rho, budget = inputs
            # sorted-prefix worst set: the hit probability depends on |U| only
            probs = sorted(rho.probs if exact else rho.as_floats(), reverse=True)
            prefix = list(itertools.accumulate(probs))
            hit = [law.hit_probability(u) for u in range(1, n + 1)]
            gap = max(s - (h if exact else float(h)) for s, h in zip(prefix, hit))
            if gap > budget:
                return f"strassen n={n} m={m} {mode}: worst-set gap {gap} above budget"
            if holds is not True:
                return f"strassen n={n} m={m} {mode}: got {holds}, worst-set gap says True"
            return None

        return Op(
            f"strassen.{mode}",
            "strassen",
            inputs,
            lambda inputs: self.lib.agnostic.strassen_condition_holds(inputs[0], law, inputs[1]),
            _fixed(1),
            check,
        )

    # -- closed-form UMP coupling sweep

    def _ump_inputs(self, occ: int) -> list:
        rng = _rng(self.seed, 7, occ)
        dists = [self._dist(rng, UMP_K) for _ in range(self.sizes.ump_dists)]
        return [(rho, a) for rho in dists for a in self.sizes.ump_alphas]

    def _ump_sweep(self, pairs) -> list:
        ump = self.lib.ump
        return [(ump.optimal_type2(rho, a), ump.ump_coupling(rho, a)) for rho, a in pairs]

    def _check_ump(self, pairs, result) -> str | None:
        ump, robust = self.lib.ump, self.lib.robust
        for (closed, coupling), (rho, a) in zip(result, pairs):
            selfloops = robust.PerturbationGraph.self_loops_only(rho.k)
            lp = robust.robust_optimal_type2(rho, a, selfloops)[0]
            if abs(closed - lp) > 1e-9:
                return f"ump alpha={a}: closed form {closed!r} != self-loops LP {lp!r}"
            miss = ump.type2_exact(coupling)
            if abs(miss - closed) > 1e-12:
                return f"ump alpha={a}: coupling miss {miss!r} != closed form {closed!r}"
        return None

    def warm(self) -> None:
        robust = self.lib.robust
        rho = self.lib.dist.DiscreteDist.uniform(2)
        robust.robust_optimal_type2(rho, 0.25, robust.PerturbationGraph.complete(2))

    def failures(self, records) -> dict[int, str]:
        return {}

    def computed(self) -> dict[str, int]:
        edges = tableau = 0
        for k, n, c in self.sizes.hamming:
            vertices = k**n
            edges += vertices * sum(math.comb(n, j) * (k - 1) ** j for j in range(c + 1))
            # dense two-phase tableau: one row per constraint and per upper
            # bound; columns for variables, slacks and the right-hand side
            rows = 2 * vertices
            tableau += rows * (vertices + rows + 1)
        network = sum(
            n + math.comb(n, m) * (m + 1) for n, m, _ in self.sizes.agnostic
        )
        return {
            "robust.graph_edges": edges,
            "simplex.tableau_cells": tableau,
            "flow.network_edges": network,
        }


WORKLOADS = {w.name: w for w in (McSchemes, RateScan, LpFlow)}
TINY = {"mc-schemes": MC_TINY, "rate-scan": RATE_TINY, "lp-flow": LP_TINY}
