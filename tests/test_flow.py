import copy
from fractions import Fraction

import numpy as np
import pytest

from oracles import agnostic_atoms_per_edge, max_flow_fifo, random_dist
from wmstat.agnostic import UniformRegionLaw, build_agnostic_coupling
from wmstat.dist import DiscreteDist
from wmstat.flow import FlowNetwork


def test_single_path():
    net = FlowNetwork(n_nodes=3)
    net.add_edge(0, 1, 0.5)
    net.add_edge(1, 2, 0.3)
    assert net.max_flow(0, 2) == pytest.approx(0.3)


def test_parallel_paths():
    net = FlowNetwork(n_nodes=4)
    net.add_edge(0, 1, 1.0)
    net.add_edge(0, 2, 1.0)
    net.add_edge(1, 3, 0.4)
    net.add_edge(2, 3, 0.5)
    assert net.max_flow(0, 3) == pytest.approx(0.9)


def test_rerouting_needed():
    # classic case where a greedy first path must be partially undone
    net = FlowNetwork(n_nodes=4)
    net.add_edge(0, 1, 1.0)
    net.add_edge(0, 2, 1.0)
    net.add_edge(1, 2, 1.0)
    net.add_edge(1, 3, 1.0)
    net.add_edge(2, 3, 1.0)
    assert net.max_flow(0, 3) == pytest.approx(2.0)


def test_exact_fractions():
    net = FlowNetwork(n_nodes=3)
    net.add_edge(0, 1, Fraction(1, 3))
    net.add_edge(1, 2, Fraction(1, 6))
    value = net.max_flow(0, 2)
    assert value == Fraction(1, 6)
    assert isinstance(value, Fraction)


def test_flow_on_edges():
    net = FlowNetwork(n_nodes=3)
    top = net.add_edge(0, 1, 0.75)
    bottom = net.add_edge(1, 2, 0.25)
    net.max_flow(0, 2)
    assert net.flow_on(top) == pytest.approx(0.25)
    assert net.flow_on(bottom) == pytest.approx(0.25)


def test_disconnected():
    net = FlowNetwork(n_nodes=4)
    net.add_edge(0, 1, 1.0)
    net.add_edge(2, 3, 1.0)
    assert net.max_flow(0, 3) == 0


def _state(net: FlowNetwork):
    return (list(net.to), list(net.cap), [list(edges) for edges in net.adj])


@pytest.mark.parametrize("u, v", [(0, 3), (3, 0), (-1, 1), (1, -1), (0.5, 1), ("0", 1)])
def test_bad_node_rejected_before_any_change(u, v):
    net = FlowNetwork(n_nodes=2)
    net.add_edge(0, 1, 1.0)
    before = _state(net)
    with pytest.raises(ValueError, match="node id"):
        net.add_edge(u, v, 1.0)
    assert _state(net) == before


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_bulk_insertion_matches_one_edge_at_a_time(exact):
    rng = np.random.default_rng(7 + exact)
    for _ in range(20):
        net, _, _ = _random_network(rng, exact)
        bulk = FlowNetwork(n_nodes=net.n_nodes)
        ids = bulk.add_edges(net.to[1::2], net.to[::2], net.cap[::2])  # tails, heads, capacities
        assert list(ids) == list(range(0, len(net.to), 2))
        assert _state(bulk) == _state(net)


@pytest.mark.parametrize(
    "tails, heads, capacities, match",
    [
        ((0, 1, 0), (1, 0, 2), (1.0, 1.0, 1.0), "node id 2 outside 0..1"),
        ((0, 0.5), (1, 1), (1.0, 1.0), "node id 0.5 is not an integer"),
        ((0, 1), (1, 0), (1.0, -1.0), "capacity must be >= 0"),
        ((0, 1), (1,), (1.0, 1.0), "same length"),
    ],
    ids=["node-out-of-range", "node-not-integer", "negative-capacity", "lengths"],
)
def test_bulk_insertion_checks_everything_before_any_change(tails, heads, capacities, match):
    net = FlowNetwork(n_nodes=2)
    net.add_edge(0, 1, 1.0)
    before = _state(net)
    with pytest.raises(ValueError, match=match):
        net.add_edges(tails, heads, capacities)
    assert _state(net) == before


def test_negative_capacity_rejected():
    net = FlowNetwork(n_nodes=2)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, -1.0)
    assert _state(net) == ([], [], [[], []])


@pytest.mark.parametrize("source, sink, bad", [(0, 2, "2"), (-1, 1, "-1"), (0, 7, "7")])
def test_max_flow_rejects_out_of_range_node(source, sink, bad):
    net = FlowNetwork(n_nodes=2)
    net.add_edge(0, 1, 1.0)
    with pytest.raises(ValueError, match=f"node id {bad} outside 0..1"):
        net.max_flow(source, sink)


def test_max_flow_rejects_source_equal_to_sink():
    net = FlowNetwork(n_nodes=2)
    net.add_edge(0, 1, 1.0)
    with pytest.raises(ValueError, match="both node 1"):
        net.max_flow(1, 1)
    assert net.cap == [1.0, 0.0]


# -- path identity against the dequeue-time FIFO scan


def _bits(x):
    """A value's type and exact value: bit pattern for floats, == for rationals."""
    return type(x).__name__, float.hex(x) if isinstance(x, float) else x


def _assert_same_paths(net: FlowNetwork, source: int, sink: int):
    """Run ``max_flow`` and the FIFO oracle on twin copies; same total, same residuals."""
    twin = copy.deepcopy(net)
    total = net.max_flow(source, sink)
    assert _bits(total) == _bits(max_flow_fifo(twin, source, sink))
    assert [_bits(c) for c in net.cap] == [_bits(c) for c in twin.cap]
    return total


_AGNOSTIC_SIZES = ((8, 2), (8, 4), (12, 3), (10, 5))


def _agnostic_rho(n: int, m: int, rho_kind) -> DiscreteDist:
    """Seeded ρ on n outcomes: Dirichlet of spread ``rho_kind``, or exact integer weights."""
    rng = np.random.default_rng([n, m, 0 if rho_kind == "fraction" else int(rho_kind * 10)])
    if rho_kind == "fraction":
        weights = [int(w) for w in rng.integers(0, 20, size=n)]
        weights[0] += 1
        return DiscreteDist(probs=tuple(Fraction(w, sum(weights)) for w in weights))
    return DiscreteDist(probs=random_dist(rng, n, rho_kind))


@pytest.mark.parametrize(
    "rho_kind, n, m",
    [(kind, n, m) for kind in (0.2, 1.0, 5.0, "fraction") for n, m in _AGNOSTIC_SIZES]
    + [(1.0, 16, 4)],  # the largest network the lp-flow benchmark builds
)
def test_agnostic_networks_match_fifo(monkeypatch, n, m, rho_kind):
    rho = _agnostic_rho(n, m, rho_kind)
    totals = []
    real = FlowNetwork.max_flow

    def checked(net, source, sink):
        monkeypatch.setattr(FlowNetwork, "max_flow", real)
        totals.append(_assert_same_paths(net, source, sink))
        return totals[-1]

    monkeypatch.setattr(FlowNetwork, "max_flow", checked)
    build_agnostic_coupling(rho, UniformRegionLaw(n=n, region_size=m))
    assert len(totals) == 1
    assert isinstance(totals[0], Fraction if rho_kind == "fraction" else float)


@pytest.mark.parametrize(
    "rho_kind, n, m", [(kind, n, m) for kind in (0.2, 1.0, "fraction") for n, m in _AGNOSTIC_SIZES]
)
def test_bulk_built_coupling_matches_per_edge_build(n, m, rho_kind):
    rho = _agnostic_rho(n, m, rho_kind)
    coupling, _ = build_agnostic_coupling(rho, UniformRegionLaw(n=n, region_size=m))
    want = agnostic_atoms_per_edge(rho, UniformRegionLaw(n=n, region_size=m))
    assert [(x, r, _bits(w)) for x, r, w in coupling.atoms] == [(x, r, _bits(w)) for x, r, w in want]


def _random_network(rng: np.random.Generator, exact: bool):
    """A small random digraph with the sink-side shapes the early stop must handle."""
    n = int(rng.integers(3, 9))
    source, sink = (int(x) for x in rng.choice(n, size=2, replace=False))

    def capacity():
        if rng.random() < 0.15:
            return Fraction(0) if exact else 0.0
        if exact:
            return Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
        return float(rng.random())

    n_edges = int(rng.integers(n, 4 * n))
    pairs = [tuple(int(x) for x in rng.integers(n, size=2)) for _ in range(n_edges)]
    if rng.random() < 0.5:
        pairs.append((source, sink))  # direct source -> sink edge
    if rng.random() < 0.5:
        u = int(rng.integers(n))
        pairs += [(u, sink)] * int(rng.integers(2, 4))  # parallel edges into the sink
    if rng.random() < 0.2:
        pairs = [(u, v) for u, v in pairs if v != sink]  # sink unreachable
    order = rng.permutation(len(pairs))
    net = FlowNetwork(n_nodes=n)
    for i in order:
        net.add_edge(*pairs[i], capacity())
    return net, source, sink


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_random_networks_match_fifo(exact):
    rng = np.random.default_rng(2024 + exact)
    zero_totals = 0
    for _ in range(300):
        net, source, sink = _random_network(rng, exact)
        if _assert_same_paths(net, source, sink) == 0:
            zero_totals += 1
    assert zero_totals > 0  # some networks leave the sink unreachable


@pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "exact"])
def test_shapes_at_the_sink_match_fifo(one):
    # source -> sink directly, a node with several (parallel) sink edges, a
    # zero-capacity sink edge ahead of a live one, and an edge out of the sink
    net = FlowNetwork(n_nodes=5)
    net.add_edge(0, 1, one)
    net.add_edge(1, 4, one * 0)
    net.add_edge(1, 4, one / 3)
    net.add_edge(1, 4, one / 3)
    net.add_edge(0, 2, one)
    net.add_edge(4, 2, one)
    net.add_edge(2, 4, one / 2)
    net.add_edge(0, 4, one / 5)
    net.add_edge(3, 4, one)
    assert _assert_same_paths(net, 0, 4) == pytest.approx(Fraction(41, 30))
