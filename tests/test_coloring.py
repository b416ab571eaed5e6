import random
import time
import tracemalloc
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import graph_with_coloring, graphs
from ectarget.coloring import (
    exact_star_coloring,
    greedy_star_coloring,
    verify_acyclic,
    verify_star,
)
from ectarget.graphs import Graph, GuardExceeded, VertexColoring
from helpers import (
    clique,
    cycle,
    path,
    paths_verify_star,
    random_graph,
    stacked_triangulation,
    star_ok_by_components,
    three_step_exact_star,
    three_step_star_greedy,
)


def test_verify_acyclic_rejects_bicolored_cycle():
    assert not verify_acyclic(cycle(4), VertexColoring(2, [1, 2, 1, 2]))


def test_verify_acyclic_accepts_three_colored_c4():
    assert verify_acyclic(cycle(4), VertexColoring(3, [1, 2, 1, 3]))


def test_verify_acyclic_rejects_improper():
    assert not verify_acyclic(clique(3), VertexColoring(2, [1, 1, 2]))


def test_verify_star_rejects_bicolored_p4():
    assert not verify_star(path(4), VertexColoring(2, [1, 2, 1, 2]))


def test_verify_star_accepts_three_colored_p4():
    col = VertexColoring(3, [1, 2, 3, 1])
    assert verify_star(path(4), col)
    assert star_ok_by_components(path(4), col)


def test_verify_star_accepts_rainbow_triangle():
    assert verify_star(clique(3), VertexColoring(3, [1, 2, 3]))


def test_exact_star_p4_needs_three_colors():
    assert exact_star_coloring(path(4), 2) is None
    col = exact_star_coloring(path(4), 3)
    assert col is not None
    assert verify_star(path(4), col)


def test_exact_star_k4_uses_all_colors():
    col = exact_star_coloring(clique(4), 4)
    assert col is not None
    assert sorted(col.assign) == [1, 2, 3, 4]


def test_exact_star_monotone_in_budget():
    for g in [path(4), cycle(4), cycle(5), clique(4), stacked_triangulation(8, 3)]:
        for c in range(2, 5):
            if exact_star_coloring(g, c) is None:
                assert exact_star_coloring(g, c - 1) is None


@pytest.mark.parametrize("block", range(4))
def test_exact_star_matches_three_step_reference(block):
    # 100 seeded graphs per block, n <= 14 and edge probability anywhere in
    # [0, 1), so every budget from 0 to 8 meets both outcomes
    outcomes = set()
    for seed in range(100 * block, 100 * block + 100):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 14), rng.random(), rng)
        for c_max in range(9):
            result = exact_star_coloring(g, c_max)
            assert result == three_step_exact_star(g, c_max), (seed, c_max)
            assert result is None or paths_verify_star(g, result), (seed, c_max)
            outcomes.add(result is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(10))
def test_exact_star_matches_three_step_reference_at_twenty_vertices(seed):
    rng = random.Random(seed)
    g = random_graph(20, rng.uniform(0.1, 0.3), rng)
    for c_max in range(3, 9):
        result = exact_star_coloring(g, c_max)
        assert result == three_step_exact_star(g, c_max)
        assert result is None or paths_verify_star(g, result)


def test_exact_searches_are_guarded():
    with pytest.raises(GuardExceeded):
        exact_star_coloring(Graph(21), 3)


def test_exact_star_rejects_a_non_integer_budget():
    with pytest.raises(ValueError, match=r"^c_max must be an integer, got 2\.5$"):
        exact_star_coloring(path(4), 2.5)


def test_greedy_star_edgeless():
    assert greedy_star_coloring(Graph(5)).palette == 1


def test_greedy_star_clique():
    assert greedy_star_coloring(clique(5)).palette == 5


def test_greedy_star_large_planar_verifies():
    g = stacked_triangulation(50, seed=7)
    col = greedy_star_coloring(g, seed=7)
    assert verify_star(g, col)
    assert star_ok_by_components(g, col)


def test_greedy_star_deterministic_per_seed():
    g = stacked_triangulation(30, seed=1)
    assert greedy_star_coloring(g, seed=5) == greedy_star_coloring(g, seed=5)


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_greedy_star_always_verifies(g):
    col = greedy_star_coloring(g, seed=0)
    assert verify_star(g, col)


@given(graphs(max_n=10), st.integers(0, 50))
@settings(max_examples=200)
def test_greedy_star_matches_three_step_reference(g, seed):
    assert greedy_star_coloring(g, seed) == three_step_star_greedy(g, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_star_matches_reference_on_1500_vertex_triangulation(seed):
    g = stacked_triangulation(1500, seed)
    assert greedy_star_coloring(g, seed) == three_step_star_greedy(g, seed)


@pytest.mark.parametrize(
    "hubs, leaves, palette",
    [(1, 20000, 2), (2, 2000, 2001)],
    ids=["K1,20000", "K2,2000"],
)
def test_greedy_star_is_fast_on_hubs(hubs, leaves, palette):
    # on K2,n both hubs take color 1, so every leaf meets the F3 rule
    g = Graph(hubs + leaves, [(h, v) for h in range(hubs) for v in range(hubs, hubs + leaves)])
    start = time.perf_counter()
    col = greedy_star_coloring(g)
    assert time.perf_counter() - start < 3.0
    assert col.palette == palette
    assert verify_star(g, col)


def test_greedy_star_keeps_a_few_words_per_vertex():
    g = stacked_triangulation(10000, 1)
    expected = greedy_star_coloring(g)  # caches the graph's adjacency first
    tracemalloc.start()
    try:
        col = greedy_star_coloring(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col == expected
    assert peak < 3_000_000


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_star_colorings_are_acyclic(g):
    col = greedy_star_coloring(g, seed=1)
    assert verify_star(g, col)
    assert verify_acyclic(g, col)


@given(graph_with_coloring(max_n=8))
@settings(max_examples=250)
def test_star_verifier_agrees_with_component_characterization(pair):
    g, col = pair
    assert verify_star(g, col) == star_ok_by_components(g, col)


@st.composite
def mostly_proper_colorings(draw):
    """A coloring from up to 5 colors and a graph on up to 9 vertices with
    up to 2n edges. Half the draws take edges only between differently
    colored vertices, so that proper colorings that are and are not star
    colorings both come up often; the other half take any edges."""
    n = draw(st.integers(1, 9))
    palette = draw(st.integers(1, 5))
    assign = [draw(st.integers(1, palette)) for _ in range(n)]
    proper = draw(st.booleans())
    pairs = [(u, v) for u, v in combinations(range(n), 2) if not proper or assign[u] != assign[v]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else ()
    return Graph(n, edges), VertexColoring(palette, assign)


@given(mostly_proper_colorings())
@settings(max_examples=400)
def test_star_verifier_agrees_with_path_enumeration(pair):
    g, col = pair
    assert verify_star(g, col) == paths_verify_star(g, col)


def test_star_verifier_is_linear_on_a_twenty_thousand_leaf_star():
    leaves = 20000
    g = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    col = VertexColoring(2, [1] + [2] * leaves)
    start = time.perf_counter()
    assert verify_star(g, col)
    assert time.perf_counter() - start < 1.0
