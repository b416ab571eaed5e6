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
from ectarget.graphs import Graph, VertexColoring
from helpers import (
    brute_density,
    brute_witness,
    clique,
    cycle,
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
    assert set(oriented.direction) == set(graph.edges)
    assert oriented.max_in_degree <= d
    return True


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
