import math

import numpy as np
import pytest

from oracles import hamming_graph_brute, random_dist, robust_lp_rows, vertex_enumeration_optimum
from wmstat.dist import DiscreteDist
from wmstat.robust import (
    PerturbationGraph,
    hamming_graph,
    load_graph,
    robust_lp_build,
    robust_optimal_type2,
    robust_type2_exact,
    robust_ump_coupling,
    shrinkage,
)
from wmstat.simplex import LpProblem, simplex_solve
from wmstat.ump import Coupling, Region, clipped_surplus, type1_exact, type2_exact, ump_coupling


def chain_graph(n: int) -> PerturbationGraph:
    return PerturbationGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


class TestPerturbationGraph:
    def test_self_loop_required(self):
        with pytest.raises(ValueError, match="self-loop"):
            PerturbationGraph(out_adj=((0,), (0,)))

    def test_lp_row_of_each_outcome_holds_its_predecessors(self):
        # edges 0 -> 1 and 2 -> 1: row z holds p_y in column y for each edge y -> z
        g = PerturbationGraph.from_edges(3, [(0, 1), (2, 1)])
        p = robust_lp_build(DiscreteDist(probs=(0.5, 0.3, 0.2)), 0.25, g)
        assert tuple((tuple(row.tolist()), rhs) for row, rhs in p.constraints) == (
            ((0.5, 0.0, 0.0), 0.25),
            ((0.5, 0.3, 0.2), 0.25),
            ((0.0, 0.0, 0.2), 0.25),
        )

    def test_complete_and_selfloops(self):
        assert PerturbationGraph.complete(3).out(1) == (0, 1, 2)
        assert PerturbationGraph.self_loops_only(3).out(1) == (1,)

    def test_load_graph_adds_self_loops(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("vertices 3\n0 1\n1 2\n")
        with pytest.warns(UserWarning, match="self-loops"):
            g = load_graph(path)
        assert g.out(0) == (0, 1)
        assert g.out(2) == (2,)

    def test_load_graph_bad_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("nodes 3\n")
        with pytest.raises(ValueError, match="vertices"):
            load_graph(path)


class TestHammingGraph:
    def test_zero_radius(self):
        g = hamming_graph(2, 2, 0)
        assert g.out_adj == ((0,), (1,), (2,), (3,))

    def test_radius_one_neighbors(self):
        g = hamming_graph(2, 2, 1)
        # strings in lexicographic order: 00, 01, 10, 11
        assert g.out(0) == (0, 1, 2)

    def test_full_radius_complete(self):
        g = hamming_graph(2, 2, 2)
        assert all(g.out(v) == (0, 1, 2, 3) for v in range(4))

    def test_symmetry(self):
        g = hamming_graph(3, 2, 1)
        preds = [[u for u in range(g.n) if v in g.out(u)] for v in range(g.n)]
        assert tuple(map(tuple, preds)) == g.out_adj

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hamming_graph(10, 5, 1)

    @pytest.mark.parametrize(
        "k, n, c, message",
        [
            (2, 2.5, 1, "n must be an integer"),
            (2.0, 2, 1, "k must be an integer"),
            (2, 2, True, "c must be an integer"),
            (0, 2, 1, "got k=0, n=2, c=1"),
            (2, -1, 1, "got k=2, n=-1, c=1"),
            (2, 2, -1, "got k=2, n=2, c=-1"),
        ],
    )
    def test_counts_checked(self, k, n, c, message):
        with pytest.raises(ValueError, match=message):
            hamming_graph(k, n, c)

    @pytest.mark.parametrize(
        "k,n,c",
        [(2, 0, 1), (2, 1, 0), (2, 3, 1), (3, 3, 2), (2, 6, 2), (2, 8, 1), (2, 9, 1), (4, 4, 1)],
    )
    def test_matches_pairwise_scan(self, k, n, c):
        assert hamming_graph(k, n, c).out_adj == hamming_graph_brute(k, n, c)


class TestShrinkage:
    def test_identity_on_selfloops(self):
        g = PerturbationGraph.self_loops_only(3)
        r = Region.of([0, 2])
        assert shrinkage(g, r) == r

    def test_chain_example(self):
        g = PerturbationGraph.from_edges(3, [(0, 1)])
        assert shrinkage(g, Region.of([0, 1])).members == (0, 1)
        assert shrinkage(g, Region.of([0])).members == ()

    def test_complete_graph(self):
        g = PerturbationGraph.complete(3)
        assert shrinkage(g, Region.of([0, 1])).members == ()
        assert shrinkage(g, Region.of([0, 1, 2])).members == (0, 1, 2)

    def test_always_contained(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            edges = [(int(u), int(v)) for u in range(n) for v in range(n) if rng.random() < 0.3]
            g = PerturbationGraph.from_edges(n, edges)
            members = [int(v) for v in range(n) if rng.random() < 0.5]
            r = Region.of(members)
            assert set(shrinkage(g, r).members) <= set(r.members)


class TestRobustLp:
    def test_complete_graph_beta(self):
        beta, _ = robust_optimal_type2(
            DiscreteDist(probs=(0.5, 0.5)), 0.2, PerturbationGraph.complete(2)
        )
        assert beta == pytest.approx(0.8, abs=1e-9)

    def test_selfloops_reduces_to_unperturbed(self):
        beta, _ = robust_optimal_type2(
            DiscreteDist(probs=(0.5, 0.5)), 0.2, PerturbationGraph.self_loops_only(2)
        )
        assert beta == pytest.approx(0.6, abs=1e-9)

    def test_three_outcome_chain(self):
        beta, _ = robust_optimal_type2(
            DiscreteDist.uniform(3), 1 / 3, PerturbationGraph.from_edges(3, [(0, 1)])
        )
        assert beta == pytest.approx(1 / 3, abs=1e-9)

    def test_selfloops_reduction_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.02, 0.6))
            beta, _ = robust_optimal_type2(rho, alpha, PerturbationGraph.self_loops_only(k))
            assert beta == pytest.approx(clipped_surplus(rho.probs, alpha), abs=1e-9)

    def test_miss_never_negative_at_a_loose_level(self):
        # at alpha = 0.9 the optimum is near 1, and 1 - objective rounds below 0 unclamped
        rng = np.random.default_rng(18)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            rho = DiscreteDist(probs=random_dist(rng, k))
            for sum_row in (False, True):
                beta, _ = robust_optimal_type2(rho, 0.9, PerturbationGraph.self_loops_only(k), sum_row)
                assert beta >= 0.0

    def test_more_edges_never_help(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = 0.2
            all_pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
            rng.shuffle(all_pairs)
            edges: list[tuple[int, int]] = []
            last = -1.0
            for step in range(0, len(all_pairs) + 1, max(1, len(all_pairs) // 3)):
                graph = PerturbationGraph.from_edges(k, all_pairs[:step])
                beta, _ = robust_optimal_type2(rho, alpha, graph)
                assert beta >= last - 1e-9
                last = beta

    def test_sum_row_binds_sometimes(self):
        rho = DiscreteDist.uniform(3)
        g = PerturbationGraph.self_loops_only(3)
        without, _ = robust_optimal_type2(rho, 1 / 3, g, include_sum_row=False)
        with_row, _ = robust_optimal_type2(rho, 1 / 3, g, include_sum_row=True)
        assert without == pytest.approx(0.0, abs=1e-9)
        assert with_row == pytest.approx(2 / 3, abs=1e-9)

    def test_simplex_matches_vertex_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.05, 0.5))
            edges = [
                (int(u), int(v))
                for u in range(k)
                for v in range(k)
                if u != v and rng.random() < 0.35
            ]
            problem = robust_lp_build(rho, alpha, PerturbationGraph.from_edges(k, edges))
            mine = simplex_solve(problem)
            want = vertex_enumeration_optimum(problem)
            assert mine.objective == pytest.approx(want, abs=1e-8)


def robust_lp_cases():
    """Seeded edit graphs with k = 2..9, then lp-flow's three Hamming graphs, each with a seeded ρ."""
    rng = np.random.default_rng(30)
    for k in range(2, 10):
        edges = [(u, v) for u in range(k) for v in range(k) if u != v and rng.random() < 0.4]
        graph = PerturbationGraph.from_edges(k, edges)
        rho = DiscreteDist(probs=random_dist(rng, k))
        yield pytest.param(graph, rho, float(rng.uniform(0.05, 0.6)), id=f"k{k}")
    for spec in ((2, 8, 1), (2, 9, 1), (2, 6, 2)):
        graph = hamming_graph(*spec)
        rho = DiscreteDist(probs=random_dist(rng, graph.n))
        yield pytest.param(graph, rho, 0.05, id="hamming-%d-%d-%d" % spec)


@pytest.mark.parametrize("sum_row", [False, True], ids=["no-sum", "sum"])
@pytest.mark.parametrize("graph, rho, alpha", robust_lp_cases())
def test_lp_build_matches_the_edge_by_edge_rows(graph, rho, alpha, sum_row):
    problem = robust_lp_build(rho, alpha, graph, sum_row)
    want = robust_lp_rows(rho, alpha, graph, sum_row)
    rows = np.array([row for row, _ in problem.constraints])
    assert rows.view(np.uint64).tolist() == np.array([row for row, _ in want]).view(np.uint64).tolist()
    assert [float(b).hex() for _, b in problem.constraints] == [b.hex() for _, b in want]
    for row, _ in problem.constraints:
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.5
    # the array rows and a tuple copy solve alike, bit for bit
    tuples = LpProblem(problem.objective, want, problem.bounds)
    for exact in (False, True) if graph.n < 10 else (False,):
        got, expected = simplex_solve(problem, exact), simplex_solve(tuples, exact)
        assert got.pivots == expected.pivots
        values = [(*s.x, s.objective) for s in (got, expected)]
        if not exact:
            values = [[v.hex() for v in vs] for vs in values]
        assert values[0] == values[1]


# float.hex of the robust miss at alpha = 0.05, one seeded Dirichlet rho per
# graph: any change to the simplex's pivot order or rounding steps shows here
HAMMING_PINS = {
    (2, 8, 1): "0x1.9586bf0a26260p-5",
    (2, 9, 1): "0x1.8000000000000p-49",
    (2, 6, 2): "0x1.b654efc3d47d2p-1",
}


@pytest.mark.parametrize("spec", HAMMING_PINS, ids=lambda spec: "hamming-%d-%d-%d" % spec)
def test_hamming_robust_optimum_bits(spec):
    k, n, c = spec
    probs = np.random.default_rng(2312_07930).dirichlet(np.ones(k**n))
    rho = DiscreteDist(probs=tuple(probs.tolist()))
    beta, _ = robust_optimal_type2(rho, 0.05, hamming_graph(k, n, c))
    assert beta.hex() == HAMMING_PINS[spec]


class TestRobustCoupling:
    def test_selfloops_equals_plain_coupling(self):
        rho = DiscreteDist(probs=(0.5, 0.5))
        c = robust_ump_coupling(rho, 0.2, PerturbationGraph.self_loops_only(2))
        assert c.atoms == ump_coupling(rho, 0.2).atoms

    def test_complete_graph(self):
        rho = DiscreteDist(probs=(0.5, 0.5))
        g = PerturbationGraph.complete(2)
        c = robust_ump_coupling(rho, 0.2, g)
        assert robust_type2_exact(c, g) == pytest.approx(0.8, abs=1e-9)
        assert type1_exact(c) <= 0.2 + 1e-9
        for _, region, _ in c.atoms:
            assert region.members in ((), (0, 1))

    def test_chain_region_is_out_set(self):
        g = PerturbationGraph.from_edges(3, [(0, 1)])
        c = robust_ump_coupling(DiscreteDist.uniform(3), 1 / 3, g)
        regions_for_0 = {r.members for x, r, _ in c.atoms if x == 0 and len(r)}
        assert regions_for_0 == {(0, 1)}
        assert robust_type2_exact(c, g) == pytest.approx(1 / 3, abs=1e-9)

    def test_feasibility_on_random(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            rho = DiscreteDist(probs=random_dist(rng, k))
            alpha = float(rng.uniform(0.05, 0.5))
            edges = [
                (int(u), int(v))
                for u in range(k)
                for v in range(k)
                if u != v and rng.random() < 0.3
            ]
            g = PerturbationGraph.from_edges(k, edges)
            beta, solution = robust_optimal_type2(rho, alpha, g)
            c = robust_ump_coupling(rho, alpha, g)
            assert type1_exact(c) <= alpha + 1e-9
            assert robust_type2_exact(c, g) == pytest.approx(beta, abs=1e-9)


class TestRobustType2:
    def test_selfloops_equals_plain_type2(self):
        rng = np.random.default_rng(15)
        g3 = PerturbationGraph.self_loops_only(3)
        for _ in range(10):
            rho = DiscreteDist(probs=random_dist(rng, 3))
            c = ump_coupling(rho, 0.25)
            assert robust_type2_exact(c, g3) == pytest.approx(type2_exact(c), abs=1e-12)

    def test_all_regions_full(self):
        g = PerturbationGraph.complete(3)
        c = Coupling(atoms=((0, Region.of([0, 1, 2]), 1.0),), k=3)
        assert robust_type2_exact(c, g) == 0.0

    def test_matches_shrinkage_definition(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            edges = [
                (int(u), int(v))
                for u in range(k)
                for v in range(k)
                if u != v and rng.random() < 0.3
            ]
            g = PerturbationGraph.from_edges(k, edges)
            # random coupling: random regions, dirichlet weights over atoms
            n_atoms = int(rng.integers(1, 6))
            weights = rng.dirichlet(np.ones(n_atoms))
            atoms = []
            for a in range(n_atoms):
                x = int(rng.integers(k))
                members = [int(v) for v in range(k) if rng.random() < 0.5]
                atoms.append((x, Region.of(members), float(weights[a])))
            c = Coupling(atoms=tuple(atoms), k=k)
            via_shrink = math.fsum(
                w for x, r, w in c.atoms if x not in shrinkage(g, r)
            )
            assert robust_type2_exact(c, g) == pytest.approx(via_shrink, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PerturbationGraph(out_adj=((1, 0), (1,))),
         "successors of 0 must be sorted and duplicate-free"),
        (lambda: PerturbationGraph(out_adj=((0, 2), (1,))), "successor out of range for vertex 0"),
        (lambda: PerturbationGraph.from_edges(2, [(2, 0)]), "edge source 2 outside 0..1"),
        (lambda: robust_lp_build(DiscreteDist(probs=(0.5, 0.3, 0.2)), 0.2, chain_graph(2)),
         "distribution has 3 outcomes, graph has 2"),
        (lambda: robust_type2_exact(ump_coupling(DiscreteDist(probs=(0.5, 0.5)), 0.2),
                                    chain_graph(3)),
         "coupling has 2 outcomes, graph has 3"),
    ],
    ids=["unsorted", "out-of-range", "edge-source", "lp-size", "coupling-size"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
