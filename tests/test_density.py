import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import graphs
from ectarget.coloring import verify_acyclic
from ectarget.density import (
    OrientationInfeasible,
    _Dinic,
    densest_subgraph,
    find_orientation,
    min_orientation,
    orientation_from_acyclic,
)
from ectarget.graphs import Graph, VertexColoring, smallest_last_order
from helpers import (
    acceptance_corpus,
    brute_density,
    brute_witness,
    clique,
    cycle,
    edge_network_density,
    edge_network_orientation,
    edges_within,
    grid,
    orientation_exists_bruteforce,
    path,
    random_graph,
    recursion_limit,
    stacked_triangulation,
)


def is_feasible(graph, d):
    try:
        oriented = find_orientation(graph, d)
    except OrientationInfeasible as exc:
        witness = exc.witness
        assert edges_within(graph, witness) > d * len(witness)
        return False
    assert len(oriented.direction) == graph.m
    assert set(oriented.direction) == set(graph.edges)
    assert oriented.max_in_degree <= d
    return True


def infeasibility_witness(orient, graph, d):
    """The witness orient(graph, d) raises, or None when it orients."""
    try:
        orient(graph, d)
    except OrientationInfeasible as exc:
        return exc.witness
    return None


def test_density_k4():
    dens = densest_subgraph(clique(4))
    assert dens.value == Fraction(3, 2)
    assert dens.witness == (0, 1, 2, 3)


def test_density_single_edge():
    assert densest_subgraph(clique(2)).value == Fraction(1, 2)


def test_density_k7_matches_clique_formula():
    # clique density is t * (t - 1) / (2 * t) = (t - 1) / 2
    assert densest_subgraph(clique(7)).value == Fraction(6, 2) == 3


def test_density_path3():
    assert densest_subgraph(path(3)).value == Fraction(2, 3)


def test_density_edgeless():
    dens = densest_subgraph(Graph(3))
    assert dens.value == 0
    assert dens.witness == (0,)


def test_density_witness_is_maximal_dense_set():
    # K4 plus a pendant vertex: the witness stays the K4
    g = Graph(5, list(clique(4).edges) + [(3, 4)])
    dens = densest_subgraph(g)
    assert dens.value == Fraction(3, 2)
    assert dens.witness == (0, 1, 2, 3)


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_density_matches_bruteforce(g):
    dens = densest_subgraph(g)
    assert dens.value == brute_density(g)
    assert Fraction(edges_within(g, dens.witness), len(dens.witness)) == dens.value


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_density_witness_is_union_of_all_densest_sets(g):
    # edgeless graphs are witnessed by vertex 0 alone by convention
    expected = brute_witness(g) if g.m else (0,)
    assert densest_subgraph(g).witness == expected


def planted_clique():
    """stacked_triangulation(260, 1) with a K20 planted on vertices 0-19."""
    return Graph(260, set(stacked_triangulation(260, 1).edges) | set(clique(20).edges))


@given(graphs(max_n=10))
@settings(max_examples=150)
def test_density_agrees_with_the_edge_network_reference(g):
    assert densest_subgraph(g) == edge_network_density(g)


@pytest.mark.parametrize(
    "graph",
    [g for _, g in acceptance_corpus()] + [planted_clique()],
    ids=[name for name, _ in acceptance_corpus()] + ["planted-clique-260-20"],
)
def test_density_agrees_with_the_edge_network_reference_on_the_corpus(graph):
    assert densest_subgraph(graph) == edge_network_density(graph)


def densest_with_flow_count(graph):
    """densest_subgraph(graph) and the number of max-flows it ran."""
    calls = []
    max_flow = _Dinic.max_flow

    def counted(net, s, t):
        calls.append((s, t))
        return max_flow(net, s, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Dinic, "max_flow", counted)
        dens = densest_subgraph(graph)
    return dens, len(calls)


@pytest.mark.parametrize(
    "graph",
    [stacked_triangulation(300, 1), grid(10, 10), clique(7)],
    ids=["triangulation-300", "grid-10x10", "clique-7"],
)
def test_density_takes_one_flow_when_the_whole_graph_is_densest(graph):
    dens, flows = densest_with_flow_count(graph)
    assert dens.value == Fraction(graph.m, graph.n)
    assert flows == 1


def test_density_takes_few_flows_on_a_planted_clique():
    edges = set(stacked_triangulation(260, 1).edges) | set(clique(20).edges)
    dens, flows = densest_with_flow_count(Graph(260, edges))
    assert dens.value == Fraction(19, 2)
    assert dens.witness == tuple(range(20))
    assert flows <= 3


def test_flow_paths_are_not_bounded_by_the_recursion_limit():
    # augmenting paths on a 2 x 300 ladder run through hundreds of nodes
    ladder = grid(2, 300)
    with recursion_limit(120):
        dens = densest_subgraph(ladder)
        oriented = find_orientation(ladder, 2)
    assert dens.value == Fraction(449, 300)
    assert oriented.max_in_degree <= 2


def test_orientation_repair_paths_are_not_bounded_by_the_recursion_limit():
    # ids alternate around a 600-cycle, so smallest-last removes 0 first and
    # 599 last, 300 edges away: 0 starts with in-degree 2, 599 with 0, and
    # the repair reverses a whole half of the cycle
    ring = [0] + list(range(1, 600, 2)) + list(range(598, 0, -2))
    g = Graph(600, [(ring[i - 1], ring[i]) for i in range(600)])
    order = smallest_last_order([g.neighbors(v) for v in range(g.n)])
    assert (order[0], order[-1]) == (0, 599)
    with recursion_limit(120):
        oriented = find_orientation(g, 1)
    assert oriented.max_in_degree == 1
    rank = {v: i for i, v in enumerate(order)}
    start_heads = {e: min(e, key=rank.get) for e in g.edges}
    assert sum(head != start_heads[e] for e, (_, head) in oriented.direction.items()) == 300


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_density_flow_count_at_most_n_plus_one(g):
    _, flows = densest_with_flow_count(g)
    assert flows <= g.n + 1


def test_orientation_c5_in_degree_one():
    assert is_feasible(cycle(5), 1)


def test_orientation_k4_d1_infeasible_with_witness():
    with pytest.raises(OrientationInfeasible) as exc_info:
        find_orientation(clique(4), 1)
    assert exc_info.value.witness == (0, 1, 2, 3)


def test_orientation_k4_d2_feasible_confirmed_by_bruteforce():
    assert is_feasible(clique(4), 2)
    assert orientation_exists_bruteforce(clique(4), 2)
    assert not orientation_exists_bruteforce(clique(4), 1)


def test_orientation_d0_edgeless_only():
    assert is_feasible(Graph(4), 0)
    assert not is_feasible(path(2), 0)


def test_orientation_rejects_negative_bound():
    with pytest.raises(ValueError):
        find_orientation(path(2), -1)


@given(graphs(max_n=9))
@settings(max_examples=100)
def test_orientation_feasibility_matches_density_threshold(g):
    import math

    need = math.ceil(densest_subgraph(g).value)
    for d in range(0, 4):
        assert is_feasible(g, d) == (need <= d)


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_orientation_agrees_with_the_edge_network_reference(g):
    # is_feasible checks each edge is oriented once, the bound and the witness
    # size; both flows' witnesses are the least S maximizing |E(S)| - d * |S|
    for d in range(max(map(g.degree, range(g.n))) + 1):
        expected = infeasibility_witness(edge_network_orientation, g, d)
        assert is_feasible(g, d) == (expected is None) == orientation_exists_bruteforce(g, d)
        assert infeasibility_witness(find_orientation, g, d) == expected


def networks_built(function, *args):
    """function(*args), or the OrientationInfeasible it raised, and the node
    count of every _Dinic network it built."""
    sizes = []
    init = _Dinic.__init__

    def counted(net, n):
        sizes.append(n)
        init(net, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Dinic, "__init__", counted)
        try:
            result = function(*args)
        except OrientationInfeasible as exc:
            result = exc
    return result, sizes


def test_orientation_builds_no_network_when_the_smallest_last_start_fits(monkeypatch):
    def no_flow(n):
        raise AssertionError("the smallest-last start needs no repair here")

    monkeypatch.setattr("ectarget.density._Dinic", no_flow)
    assert find_orientation(stacked_triangulation(1500, 4), 3).max_in_degree <= 3


@pytest.mark.parametrize("t", [3, 8, 13])
def test_orientation_repairs_a_clique_with_one_vertex_network(t):
    d = t // 2  # ceil((t - 1) / 2)
    oriented, sizes = networks_built(find_orientation, clique(t), d)
    assert oriented.max_in_degree <= d
    assert sizes == [t + 2]
    exc, sizes = networks_built(find_orientation, clique(t), d - 1)
    assert isinstance(exc, OrientationInfeasible)
    assert exc.witness == tuple(range(t))
    assert sizes == [t + 2]


def test_orientation_repairs_a_planted_clique_with_one_vertex_network():
    oriented, sizes = networks_built(find_orientation, planted_clique(), 10)
    assert oriented.max_in_degree <= 10
    assert sizes == [262]


@pytest.mark.parametrize(
    "graph",
    [stacked_triangulation(300, 1), grid(10, 10), clique(7), planted_clique()],
    ids=["triangulation-300", "grid-10x10", "clique-7", "planted-clique-260-20"],
)
def test_density_builds_only_vertex_networks(graph):
    dens, sizes = networks_built(densest_subgraph, graph)
    assert dens == edge_network_density(graph)
    assert sizes and all(size == graph.n + 2 for size in sizes)


def test_orientation_matches_exhaustive_search():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng.randint(1, 6), rng.choice([0.2, 0.4, 0.6, 0.9]), rng)
        for d in range(0, 4):
            assert is_feasible(g, d) == orientation_exists_bruteforce(g, d)


def test_min_orientation_tree():
    tree = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    d, oriented = min_orientation(tree)
    assert d == 1
    assert oriented.max_in_degree <= 1


def test_min_orientation_k4():
    d, oriented = min_orientation(clique(4))
    assert d == 2
    assert oriented.max_in_degree <= 2


def test_min_orientation_edgeless():
    d, oriented = min_orientation(Graph(3))
    assert d == 0
    assert oriented.direction == {}


def test_orientation_from_acyclic_path():
    g = path(3)
    oriented = orientation_from_acyclic(g, VertexColoring(2, [1, 2, 1]))
    assert oriented.max_in_degree <= 1
    assert set(oriented.direction) == set(g.edges)


def test_orientation_from_acyclic_triangle():
    oriented = orientation_from_acyclic(clique(3), VertexColoring(3, [1, 2, 3]))
    assert oriented.max_in_degree <= 2


def test_orientation_from_acyclic_two_colored_forest():
    forest = Graph(6, [(0, 1), (1, 2), (3, 4)])
    col = VertexColoring(2, [1, 2, 1, 1, 2, 1])
    oriented = orientation_from_acyclic(forest, col)
    assert oriented.max_in_degree <= 1


def test_orientation_from_acyclic_rejects_bad_coloring():
    with pytest.raises(ValueError, match="acyclic"):
        orientation_from_acyclic(cycle(4), VertexColoring(2, [1, 2, 1, 2]))


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=60)
def test_orientation_from_acyclic_respects_palette_bound(g):
    # a proper coloring with all-distinct colors is trivially acyclic
    col = VertexColoring(g.n, range(1, g.n + 1))
    assert verify_acyclic(g, col)
    oriented = orientation_from_acyclic(g, col)
    assert oriented.max_in_degree <= col.palette - 1
    assert set(oriented.direction) == set(g.edges)
