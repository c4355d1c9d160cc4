import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import random_dist, simplex_explicit, simplex_rational, vertex_enumeration_optimum
from wmstat.dist import DiscreteDist
from wmstat.robust import PerturbationGraph, hamming_graph, robust_lp_build
from wmstat.simplex import LpProblem, LpSolution, simplex_solve


def test_single_variable():
    p = LpProblem(objective=(1.0,), constraints=(((1.0,), 1.0),), bounds=((0.0, 1.0),))
    s = simplex_solve(p)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.0, abs=1e-12)
    assert s.pivots == 1


def test_two_variables_shared_budget():
    p = LpProblem(
        objective=(1.0, 1.0),
        constraints=(((1.0, 1.0), 0.4),),
        bounds=((0.0, 1.0), (0.0, 1.0)),
    )
    assert simplex_solve(p).objective == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize(
    "objective, constraints, bounds, match",
    [
        ((1.0,), (((1.0,), -1.0),), ((0.0, 1.0),), "right-hand side"),
        ((1.0,), (((1.0,), 1.0),), ((0.5, 1.0),), "lower bound"),
        ((1.0,), (), ((0.0, math.inf),), "upper bound"),
        ((1.0, math.nan), (), ((0.0, 1.0),) * 2, "objective coefficient 1 must be finite, got nan"),
        ((math.inf, 1.0), (), ((0.0, 1.0),) * 2, "objective coefficient 0 must be finite, got inf"),
        ((1.0,), (((1.0,), math.nan),), ((0.0, 1.0),), "right-hand side 0 must be finite and >= 0, got nan"),
        ((1.0,), (((1.0,), 1.0), ((1.0,), math.inf)), ((0.0, 1.0),), r"right-hand side 1 .* got inf"),
    ],
    ids=[
        "negative-rhs",
        "nonzero-lower-bound",
        "infinite-upper-bound",
        "nan-objective",
        "infinite-objective",
        "nan-rhs",
        "infinite-rhs",
    ],
)
def test_rejects_lps_outside_the_family(objective, constraints, bounds, match):
    with pytest.raises(ValueError, match=match):
        LpProblem(objective=objective, constraints=constraints, bounds=bounds)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize(
    "row, message",
    [
        ((math.nan, 1.0), "constraint 1 coefficient 0 must be finite, got nan"),
        ((1.0, math.inf), "constraint 1 coefficient 1 must be finite, got inf"),
        (np.array([-math.inf, 1.0]), "constraint 1 coefficient 0 must be finite, got -inf"),
    ],
    ids=["nan", "inf", "array-minus-inf"],
)
def test_rejects_non_finite_coefficients(row, message, exact):
    # a NaN fails every comparison, so unchecked the solve ends "optimal" at a wrong vertex
    problem = LpProblem(
        objective=(1.0, 1.0), constraints=(((0.5, 0.5), 1.0), (row, 1.0)), bounds=((0.0, 1.0),) * 2
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        simplex_solve(problem, exact=exact)


def test_exact_mode_returns_fractions():
    p = LpProblem(
        objective=(2, 3),
        constraints=(((1, 2), 3), ((3, 1), 4)),
        bounds=((0, 10), (0, 10)),
    )
    s = simplex_solve(p, exact=True)
    assert s.status == "optimal"
    assert s.x == (Fraction(1), Fraction(1))
    assert s.objective == Fraction(5)


def seeded_robust_lps(include_sum_row=None):
    """The 40 seeded k = 8 robust LPs; the sum row on odd ones, or as given."""
    rng = np.random.default_rng(8)
    for i in range(40):
        rho = DiscreteDist(probs=random_dist(rng, 8))
        alpha = float(rng.uniform(0.05, 0.6))
        edges = [(u, v) for u in range(8) for v in range(8) if u != v and rng.random() < 0.4]
        graph = PerturbationGraph.from_edges(8, edges)
        sum_row = bool(i % 2) if include_sum_row is None else include_sum_row
        yield robust_lp_build(rho, alpha, graph, sum_row)


def test_exact_mode_on_float_robust_lps():
    # float coefficients straight from robust_lp_build: the residual check
    # must multiply them by the exact point in exact arithmetic
    for p in seeded_robust_lps():
        exact = simplex_solve(p, exact=True)
        assert exact.status == "optimal"
        assert float(exact.objective) == pytest.approx(simplex_solve(p).objective, abs=1e-9)


def test_exact_matches_float_on_robust_lp():
    rho = DiscreteDist(probs=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    graph = PerturbationGraph.from_edges(3, [(0, 1), (1, 2)])
    p = robust_lp_build(rho, 0.25, graph)
    exact = simplex_solve(
        LpProblem(
            objective=tuple(Fraction(c).limit_denominator(10**9) for c in p.objective),
            constraints=tuple(
                (tuple(Fraction(c).limit_denominator(10**9) for c in row), Fraction(b).limit_denominator(10**9))
                for row, b in p.constraints
            ),
            bounds=((0, 1),) * 3,
        ),
        exact=True,
    )
    approx = simplex_solve(p)
    assert float(exact.objective) == pytest.approx(approx.objective, abs=1e-12)


# x_0 enters first and leaves at once through its bound row: a degenerate
# pivot, so Bland's rule picks the next column
UPPER_BOUND_ZERO = LpProblem(
    objective=(2, 1), constraints=(((1, 1), 1),), bounds=((0, 0), (0, Fraction(1, 3)))
)
ZERO_OBJECTIVE = LpProblem(
    objective=(0, 0), constraints=(((1, -1), Fraction(1, 2)),), bounds=((0, 1), (0, 1))
)
# x_0 enters and the constraint leaves (pivot element 2), so bound row 0 is
# written; x_1 then flips to its bound 1/3 with a = 2 * 3, rescaling the rest
FLIP_AFTER_PIVOT = LpProblem(
    objective=(1, 1), constraints=(((2, 1), 1),), bounds=((0, 1), (0, Fraction(1, 3)))
)
# x_0 flips to 1/2 (a = 2, rescaling); x_1 enters through the constraint, so
# bound row 1 (scale 3) is written; then s_0 enters through bound row 1, so
# flipped row 0, x_0 basic, is written first
BOUND_ROWS_WRITTEN = LpProblem(
    objective=(2, 1),
    constraints=(((3, 1), 2),),
    bounds=((0, Fraction(1, 2)), (0, Fraction(2, 3))),
)
# Beale's LP (1955), on which Dantzig's rule cycles: the first four pivots
# from the slack basis take zero steps, so Bland's rule picks the column
# after each; the box does not bind, and every value is a float both modes
# read exactly
BEALE = LpProblem(
    objective=(0.75, -20.0, 0.5, -6.0),
    constraints=(
        ((0.25, -8.0, -1.0, 9.0), 0.0),
        ((0.5, -12.0, -0.5, 3.0), 0.0),
        ((0.0, 0.0, 1.0, 0.0), 1.0),
    ),
    bounds=((0.0, 10.0),) * 4,
)


def seeded_rational_boxes(count: int = 12):
    """Small LPs with integer rows of either sign and fractional upper bounds."""
    rng = np.random.default_rng(23)
    for _ in range(count):
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        yield LpProblem(
            objective=tuple(int(c) for c in rng.integers(-2, 6, size=n)),
            constraints=tuple(
                (tuple(int(c) for c in rng.integers(-3, 5, size=n)), int(rng.integers(0, 6)))
                for _ in range(m)
            ),
            bounds=tuple((0, Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 5)))) for _ in range(n)),
        )


def rational_hamming_lp(spec, alpha, uniform: bool):
    """Robust LP over ``hamming_graph(*spec)``; ρ is uniform or from seeded integer weights."""
    graph = hamming_graph(*spec)
    rng = np.random.default_rng(graph.n)
    weights = [1] * graph.n if uniform else rng.integers(1, 50, size=graph.n).tolist()
    rho = DiscreteDist(probs=tuple(Fraction(w, sum(weights)) for w in weights))
    return robust_lp_build(rho, alpha, graph)


def exact_identity_cases():
    for sum_row in (False, True):
        for i, p in enumerate(seeded_robust_lps(sum_row)):
            yield pytest.param(p, id=f"k8-{i}-sum{int(sum_row)}")
    for spec in ((2, 4, 1), (2, 4, 2)):
        for alpha in (Fraction(1, 20), Fraction(1, 4)):
            problem = rational_hamming_lp(spec, alpha, False)
            yield pytest.param(problem, id="hamming-%d-%d-%d-" % spec + f"alpha{float(alpha)}")
    yield pytest.param(UPPER_BOUND_ZERO, id="upper-bound-0")
    yield pytest.param(ZERO_OBJECTIVE, id="zero-objective")
    yield pytest.param(FLIP_AFTER_PIVOT, id="flip-after-pivot")
    yield pytest.param(BOUND_ROWS_WRITTEN, id="bound-rows-written")
    yield pytest.param(BEALE, id="beale")
    for i, p in enumerate(seeded_rational_boxes()):
        yield pytest.param(p, id=f"box-{i}")


@pytest.mark.parametrize("problem", exact_identity_cases())
def test_exact_mode_takes_the_rational_path(problem):
    # the integer tableau must take the pivots the Fraction tableau takes
    # and read out the same canonical Fractions
    got = simplex_solve(problem, exact=True)
    want, _ = simplex_rational(problem)
    assert got.x == want.x
    assert got.objective == want.objective
    assert got.pivots == want.pivots
    assert all(type(v) is Fraction for v in (*got.x, got.objective))


def test_exact_mode_breaks_ratio_ties_as_the_rational_path():
    problem = rational_hamming_lp((2, 3, 1), Fraction(1, 4), True)
    want, ties = simplex_rational(problem)
    assert ties > 0  # the case is only a tie-break test while some ratio test ties
    got = simplex_solve(problem, exact=True)
    assert (got.x, got.objective, got.pivots) == (want.x, want.objective, want.pivots)


def test_edge_lps_pivot_as_expected():
    s = simplex_solve(UPPER_BOUND_ZERO, exact=True)
    assert (s.x, s.objective, s.pivots) == ((0, Fraction(1, 3)), Fraction(1, 3), 2)
    s = simplex_solve(ZERO_OBJECTIVE, exact=True)
    assert (s.x, s.objective, s.pivots) == ((0, 0), 0, 0)
    s = simplex_solve(FLIP_AFTER_PIVOT, exact=True)
    assert (s.x, s.objective, s.pivots) == ((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3), 2)
    s = simplex_solve(BOUND_ROWS_WRITTEN, exact=True)
    assert (s.x, s.objective, s.pivots) == ((Fraction(4, 9), Fraction(2, 3)), Fraction(14, 9), 3)


def _float_bits(solution):
    return [v.hex() for v in solution.x], solution.objective.hex(), solution.pivots


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_beale_lp_ends_at_the_optimum(exact):
    s = simplex_solve(BEALE, exact=exact)
    assert s.objective == pytest.approx(vertex_enumeration_optimum(BEALE), abs=1e-12)
    if not exact:  # exact mode is held to simplex_rational with the other edge LPs
        assert _float_bits(s) == _float_bits(simplex_explicit(BEALE))


@pytest.mark.parametrize("sum_row", [False, True], ids=["no-sum", "sum"])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("spec", [(2, 5, 1), (2, 6, 2), (2, 8, 1), (3, 4, 1)], ids=lambda s: "%d-%d-%d" % s)
def test_float_bits_match_the_explicit_tableau_on_hamming_lps(spec, alpha, sum_row):
    graph = hamming_graph(*spec)
    rho = DiscreteDist(probs=tuple(np.random.default_rng(sum(spec)).dirichlet(np.ones(graph.n)).tolist()))
    problem = robust_lp_build(rho, alpha, graph, sum_row)
    assert _float_bits(simplex_solve(problem)) == _float_bits(simplex_explicit(problem))


def test_float_bits_match_the_explicit_tableau_at_small_alpha():
    # devex takes 255 pivots here, where Bland's rule alone took 1571
    graph = hamming_graph(2, 7, 1)
    rho = DiscreteDist(probs=tuple(np.random.default_rng(10).dirichlet(np.ones(graph.n)).tolist()))
    problem = robust_lp_build(rho, 0.01, graph)
    assert _float_bits(simplex_solve(problem)) == _float_bits(simplex_explicit(problem))


def test_float_bits_match_the_explicit_tableau_on_seeded_lps():
    for problem in seeded_robust_lps():
        assert _float_bits(simplex_solve(problem)) == _float_bits(simplex_explicit(problem))


class TestAgainstVertexOracle:
    def test_random_robust_lps(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            k = int(rng.integers(2, 7))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.05, 0.6))
            edges = [
                (int(u), int(v))
                for u in range(k)
                for v in range(k)
                if u != v and rng.random() < 0.4
            ]
            graph = PerturbationGraph.from_edges(k, edges)
            problem = robust_lp_build(rho, alpha, graph, include_sum_row=bool(trial % 2))
            mine = simplex_solve(problem)
            want = vertex_enumeration_optimum(problem)
            assert mine.status == "optimal"
            assert want is not None
            assert mine.objective == pytest.approx(want, abs=1e-8)

    def test_random_general_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m, n)).round(3)
            b = rng.uniform(0.0, 2.0, size=m).round(3)
            c = rng.normal(size=n).round(3)
            problem = LpProblem(
                objective=tuple(c),
                constraints=tuple((tuple(row), float(bb)) for row, bb in zip(a, b)),
                bounds=((0.0, 1.0),) * n,
            )
            want = vertex_enumeration_optimum(problem)
            assert want is not None  # x = 0 is feasible
            assert simplex_solve(problem).objective == pytest.approx(want, abs=1e-8)


def highs_optimum(problem: LpProblem) -> float:
    """Optimum of ``problem`` by scipy's HiGHS, an independent LP solver."""
    optimize = pytest.importorskip("scipy.optimize")
    result = optimize.linprog(
        -np.array(problem.objective, dtype=float),
        A_ub=np.array([row for row, _ in problem.constraints], dtype=float),
        b_ub=np.array([rhs for _, rhs in problem.constraints], dtype=float),
        bounds=[(float(lo), float(hi)) for lo, hi in problem.bounds],
        method="highs",
    )
    assert result.status == 0, result.message
    return -result.fun


def assert_hamming_lps_match_highs(spec, alpha):
    """Three seeded Dirichlet ρ over ``hamming_graph(*spec)``: the simplex within 1e-9 of HiGHS."""
    graph = hamming_graph(*spec)
    rng = np.random.default_rng(sum(spec))
    for _ in range(3):
        rho = DiscreteDist(probs=tuple(rng.dirichlet(np.ones(graph.n)).tolist()))
        problem = robust_lp_build(rho, alpha, graph)
        assert abs(simplex_solve(problem).objective - highs_optimum(problem)) <= 1e-9


class TestAgainstHighs:
    @pytest.mark.parametrize("spec", [(2, 6, 1), (2, 8, 1), (2, 6, 2), (3, 4, 1)])
    def test_hamming_lps(self, spec):
        assert_hamming_lps_match_highs(spec, 0.05)

    @pytest.mark.parametrize("alpha", [0.01, 0.005])
    @pytest.mark.parametrize("spec", [(2, 6, 1), (2, 7, 1), (2, 5, 2), (3, 4, 1)], ids=lambda s: "%d-%d-%d" % s)
    def test_hamming_lps_at_small_alpha(self, spec, alpha):
        assert_hamming_lps_match_highs(spec, alpha)

    def test_seeded_robust_lps(self):
        for problem in seeded_robust_lps():
            assert abs(simplex_solve(problem).objective - highs_optimum(problem)) <= 1e-9


def test_exact_mode_reads_numpy_integers_and_fractions():
    # every value is read through Fraction (numpy integers have no
    # as_integer_ratio) into Python ints, so no pivot works in int64
    big = 10**7
    plain = LpProblem(
        objective=(3 * big + 1, 2 * big, big - 7),
        constraints=(((2 * big, big + 3, big), 4 * big), ((big + 1, 3 * big, 5), 5 * big)),
        bounds=((0, 2), (0, 3), (0, 1)),
    )
    mixed = LpProblem(
        objective=tuple(np.int64(c) if i % 2 else Fraction(c) for i, c in enumerate(plain.objective)),
        constraints=tuple(
            (tuple(np.int64(c) for c in row), Fraction(rhs, 1)) for row, rhs in plain.constraints
        ),
        bounds=((np.int64(0), np.int64(2)), (0, Fraction(6, 2)), (Fraction(0), np.int64(1))),
    )
    want, got = simplex_solve(plain, exact=True), simplex_solve(mixed, exact=True)
    assert (got.x, got.objective, got.pivots) == (want.x, want.objective, want.pivots)
    assert got.pivots > 1
    assert all(type(v.numerator) is int for v in (*got.x, got.objective))


def test_exact_mode_reads_fractions_of_numpy_integers():
    # Fraction keeps numpy parts, and with large denominators an int64 in the
    # integer rows overflowed
    def problem(a):
        return LpProblem(
            objective=(1, 1),
            constraints=(((a, Fraction(1, 3_000_000_037)), Fraction(1, 7)), ((Fraction(2, 5), 1), 1)),
            bounds=((0, 10**6),) * 2,
        )

    want = simplex_solve(problem(Fraction(1, 3_000_000_019)), exact=True)
    got = simplex_solve(problem(Fraction(np.int64(1), np.int64(3_000_000_019))), exact=True)
    assert (got.x, got.objective, got.pivots) == (want.x, want.objective, want.pivots)


def test_dimension_validation():
    with pytest.raises(ValueError):
        LpProblem(objective=(1.0,), constraints=(((1.0, 2.0), 1.0),), bounds=((0.0, 1.0),))
    with pytest.raises(ValueError):
        LpProblem(objective=(1.0,), constraints=(), bounds=((1.0, 0.0),))


def test_solution_is_dataclass():
    s = LpSolution(x=(1.0,), objective=1.0, status="optimal")
    assert s.x == (1.0,)


@pytest.mark.parametrize(
    "kwargs, message",
    [(dict(objective=(1.0, 1.0), constraints=(), bounds=((0.0, 1.0),)),
      "bounds length must match objective length")],
    ids=["bounds-length"],
)
def test_input_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LpProblem(**kwargs)
