import contextlib
import itertools
import math
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ectarget
from conftest import edge_colored_graphs, graphs
from ectarget.bounds import universal_lower_bound
from ectarget.coloring import greedy_star_coloring
from ectarget.density import find_orientation, min_orientation, orientation_from_acyclic
from ectarget.graphs import (
    AUTOMORPHISM_NODES,
    EdgeColoredGraph,
    Graph,
    GuardExceeded,
    Homomorphism,
    Limits,
    OrientedGraph,
    VertexColoring,
    parse_edge_colored,
    serialize,
)
from ectarget.out_coloring import build_out_coloring, out_coloring_from_universal
from ectarget.universal import (
    _canonical_words,
    build_homomorphism,
    build_universal,
    check_universal,
    find_homomorphism,
    min_universal_size,
    verify_homomorphism,
    verify_out_coloring,
)
from helpers import (
    DenseTupleOrder,
    _canonical,
    _restricted_growth,
    clique,
    cycle,
    dense_rank,
    dense_unrank,
    edge_color,
    grid,
    memoryless_check_universal,
    memoryless_min_universal_size,
    path,
    random_coloring,
    random_graph,
    recursion_limit,
    stacked_triangulation,
    star,
    static_order_homomorphism,
)


def closed_form(q, d, k):
    return q * sum(math.comb(q, j) * (k - 1) ** j for j in range(min(d, q) + 1))


def listing(target) -> tuple:
    """Every vertex of a tuple target as a dense tuple, in id order."""
    return tuple(dense_unrank(target, i) for i in range(target.vertex_count))


def test_build_universal_q2_d1_k2():
    target = build_universal(2, 1, 2)
    assert target.vertex_count == 6 == closed_form(2, 1, 2)
    assert listing(target) == (
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
        (2, 2, 2),
    )


def test_build_universal_q1_d1_k3():
    target = build_universal(1, 1, 3)
    assert listing(target) == ((1, 1), (1, 2), (1, 3))


def test_build_universal_d0_forces_k():
    target = build_universal(3, 0, 5)
    assert listing(target) == ((1, 5, 5, 5), (2, 5, 5, 5), (3, 5, 5, 5))


def test_build_universal_caps_d_at_q():
    assert build_universal(2, 5, 2).d == 2


def test_build_universal_validates_arguments():
    with pytest.raises(ValueError):
        build_universal(0, 1, 2)
    with pytest.raises(ValueError):
        build_universal(1, -1, 2)
    with pytest.raises(ValueError):
        build_universal(1, 1, 1)


@pytest.mark.parametrize(
    "q, d, k, message",
    [
        (2.0, 1, 2, "q must be an integer, got 2.0"),
        (2, 1.0, 2, "d must be an integer, got 1.0"),
        (2, 1, 2.0, "k must be an integer, got 2.0"),
    ],
)
def test_build_universal_rejects_non_integer_arguments(q, d, k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_universal(q, d, k)


def test_check_universal_rejects_a_non_integer_palette():
    target = build_universal(2, 1, 2)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        check_universal(target, path(3), 2.0)


def test_min_universal_size_rejects_non_integer_arguments():
    with pytest.raises(ValueError, match=r"^p_max must be an integer, got 2\.0$"):
        min_universal_size([path(3)], 2, 2.0)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        min_universal_size([path(3)], 2.0, 2)


ONE_EDGE = Graph(2, [(0, 1)])
ONE_ARC = OrientedGraph(ONE_EDGE, {(0, 1): (0, 1)})
SHORT = VertexColoring(2, [1])
# case -> (a library call, the ValueError message it raises)
LIBRARY_REFUSALS = {
    "min-target-p-max-0": (lambda: min_universal_size([path(3)], 2, 0), "p_max must be at least 1, got 0"),
    "min-target-no-graphs": (lambda: min_universal_size([], 2, 2), "need at least one graph to search against"),
    "homomorphism-short-coloring": (
        lambda: build_homomorphism(EdgeColoredGraph(ONE_EDGE, 2, {(0, 1): 1}), ONE_ARC, SHORT, build_universal(2, 1, 2)),
        "out-coloring must assign a color to every vertex",
    ),
    "acyclic-short-coloring": (
        lambda: orientation_from_acyclic(ONE_EDGE, SHORT),
        "coloring must assign a color to every vertex",
    ),
    "from-universal-k1": (
        lambda: out_coloring_from_universal(ONE_ARC, build_universal(2, 1, 2).to_edge_colored_graph(), 1),
        "edge palette must satisfy k >= 2, got 1",
    ),
    "lower-bound-k1": (lambda: universal_lower_bound(ONE_EDGE, 1), "edge palette must satisfy k >= 2, got 1"),
    "arc-map-names-an-edge-twice": (
        lambda: OrientedGraph(ONE_EDGE, {(0, 1): (0, 1), (1, 0): (1, 0)}),
        "edge 0 1 oriented twice",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_a_library_call_refuses_its_input_with_its_message(case):
    call, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_verify_out_coloring_refuses_a_short_coloring():
    assert verify_out_coloring(ONE_ARC, SHORT) is False


def test_vertex_count_closed_form_without_materializing():
    target = build_universal(30, 3, 5)
    assert target.vertex_count == closed_form(30, 3, 5)
    assert target.vertex_count > 10**6
    assert build_universal(250, 250, 3).vertex_count == closed_form(250, 250, 3)


# d = 0 and d = q among them
SMALL_SHAPES = [(1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 4, 2), (2, 0, 4)]
SMALL_SHAPES += [(5, 2, 3), (6, 6, 2), (7, 3, 4), (9, 1, 2), (3, 0, 2)]


def test_rank_unrank_round_trip_small():
    for q, d, k in SMALL_SHAPES:
        target, dense = build_universal(q, d, k), DenseTupleOrder(q, d, k)
        # the listing order is pinned by the dense walk, not by unrank itself
        vertices = listing(target)
        assert vertices == tuple(map(dense.unrank, range(target.vertex_count)))
        for idx, vertex in enumerate(vertices):
            assert dense_rank(target, vertex) == idx


def test_explicit_target_colors_match_the_paper_formula():
    for q, d, k in SMALL_SHAPES:
        target, dense = build_universal(q, d, k), DenseTupleOrder(q, d, k)
        if target.vertex_count > Limits().explicit_vertices:
            continue  # (7, 3, 4): 8092 vertices
        vertices = tuple(map(dense.unrank, range(target.vertex_count)))
        explicit = target.to_edge_colored_graph()
        assert len(explicit.colors) == math.comb(len(vertices), 2)
        for (a, b), c in zip(explicit.graph.edges, explicit.colors):
            assert c == edge_color(vertices[a], vertices[b])


def test_vertex_listing_is_not_bounded_by_the_recursion_limit():
    target = build_universal(300, 0, 2)
    with recursion_limit(120):
        vertices = listing(target)
    assert vertices == tuple((lead,) + (2,) * 300 for lead in range(1, 301))


def test_rank_unrank_round_trip_large():
    target = build_universal(25, 3, 5)
    for idx in [0, 1, target.vertex_count - 1, 12345, target.vertex_count // 2]:
        assert dense_rank(target, dense_unrank(target, idx)) == idx


@pytest.mark.parametrize("q, d, k", [(15000, 3, 3), (64, 3, 3), (40, 3, 3)])
def test_rank_unrank_match_the_dense_walk(q, d, k):
    target, dense = build_universal(q, d, k), DenseTupleOrder(q, d, k)
    rng = random.Random(q)
    ids = [0, target.vertex_count - 1] + [rng.randrange(target.vertex_count) for _ in range(500)]
    for n, idx in enumerate(ids):
        vertex = dense_unrank(target, idx)
        assert dense_rank(target, vertex) == idx
        # the dense rank is a bijection, so agreeing with it pins unrank too
        assert dense.rank(vertex) == idx
        if n < 10:  # the dense unrank takes 30 ms at q = 15000
            assert dense.unrank(idx) == vertex


# d >= q, q = 1, k = 2 and the planar class target
GROWTH_SHAPES = [(4, 6, 2), (1, 1, 3), (9, 3, 2), (15000, 3, 3)]


def growth_orders(dense: DenseTupleOrder) -> dict:
    """Query sequences that make a fresh target grow its count columns in
    different ways: each opens with a different kind of vertex and then
    visits the same sample of ids."""
    q, k = dense.q, dense.k
    n = q * dense.block
    rng = random.Random(q)
    sample = list(range(n)) if n <= 200 else sorted({rng.randrange(n) for _ in range(40)})
    shuffled = rng.sample(sample, len(sample))
    all_k = dense.rank((q,) + (k,) * q)  # needs no column below length q
    deepest = dense.rank((1,) + (k,) * (q - 1) + (1,))  # needs every length
    return {
        "all-k first": [all_k, *sample],
        "position q first": [deepest, *sample],
        "ends first": [0, n - 1, *sample],
        "ascending": sample,
        "shuffled": shuffled,
    }


@pytest.mark.parametrize("order", ["all-k first", "position q first", "ends first", "ascending", "shuffled"])
@pytest.mark.parametrize("q, d, k", GROWTH_SHAPES)
def test_count_columns_grow_right_in_any_query_order(q, d, k, order):
    dense = DenseTupleOrder(q, d, k)
    # one fresh target grown by unranks alone, one by ranks alone
    by_unrank, by_rank = build_universal(q, d, k), build_universal(q, d, k)
    for idx in growth_orders(dense)[order]:
        vertex = dense_unrank(by_unrank, idx)
        # the dense rank is a bijection, so agreeing with it pins unrank too
        assert dense.rank(vertex) == idx
        assert dense_rank(by_rank, vertex) == idx
        if q < 100:
            assert dense.unrank(idx) == vertex


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_count_columns_answer_any_query_sequence(data):
    q, k = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 3))
    d = data.draw(st.integers(0, q + 2))
    dense, target = DenseTupleOrder(q, d, k), build_universal(q, d, k)
    queries = st.tuples(st.booleans(), st.integers(0, target.vertex_count - 1))
    for by_rank, idx in data.draw(st.lists(queries, min_size=1, max_size=20)):
        vertex = dense.unrank(idx)
        if by_rank:
            assert dense_rank(target, vertex) == idx
        else:
            assert dense_unrank(target, idx) == vertex


def test_count_columns_grow_once_per_position():
    """Ids that reach one position further each: every query that passes the
    columns' end appends to them, so each count is computed once and the
    sweeps take a few tenths of a second."""
    q = 150_000
    warm = build_universal(q, 1, 2)
    ids = [warm._rank(1, [(p, 1)]) for p in range(q, 0, -1)][::-1]
    by_rank, by_unrank = build_universal(q, 1, 2), build_universal(q, 1, 2)
    start = time.perf_counter()
    for p in range(1, q + 1):
        by_rank._rank(1, [(p, 1)])
    for idx in ids:
        by_unrank._unrank(idx)
    assert time.perf_counter() - start < 3


def test_a_class_target_map_and_verify_build_few_counts():
    """The planar class target (15000, 3, 3): a map's images reach only the
    first positions, up to its out palette, so its ranks and unranks grow
    each column by a few dozen lengths, not to all 15,001."""
    source = random_coloring(stacked_triangulation(20, seed=1), 3, random.Random(1))
    oriented = find_orientation(source.graph, 3)
    coloring = build_out_coloring(oriented, greedy_star_coloring(source.graph)).coloring
    tracemalloc.start()
    try:
        target = build_universal(15000, 3, 3)
        verified = verify_homomorphism(source, target, build_homomorphism(source, oriented, coloring, target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verified
    assert peak < 64 << 10, f"{peak} bytes"


def test_a_large_target_builds_no_count_column():
    """(150000, 3, 3) passes count_table_bytes, as the table a query reaching
    every column would grow; making the target builds the top counts alone."""
    tracemalloc.start()
    try:
        target = build_universal(150_000, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.vertex_count == closed_form(150_000, 3, 3)
    assert peak < 16 << 10, f"{peak} bytes"


def test_package_exports_are_sorted_unique_and_resolve():
    names = ectarget.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(ectarget, name), name


def test_edge_color_formula():
    # leading coordinates select positions in the other tuple
    assert edge_color((1, 2, 2), (2, 1, 2)) == 1
    assert edge_color((2, 1, 2), (1, 2, 2)) == 1
    assert edge_color((1, 2, 2), (2, 2, 2)) == 2


def test_edge_color_rejects_loops():
    with pytest.raises(ValueError):
        edge_color((1, 2, 2), (1, 2, 2))


def test_edge_color_symmetric_and_in_range():
    dense = DenseTupleOrder(3, 2, 3)
    for u, v in itertools.combinations(map(dense.unrank, range(3 * dense.block)), 2):
        c = edge_color(u, v)
        assert c == edge_color(v, u)
        assert 1 <= c <= 3


def test_build_homomorphism_isolated_vertex_maps_to_all_k():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 2, {(0, 1): 1})
    oriented = OrientedGraph(g, {(0, 1): (0, 1)})
    out_col = VertexColoring(2, [1, 2])
    target = build_universal(2, 1, 2)
    hom = build_homomorphism(source, oriented, out_col, target)
    # vertex 0 has no parent: every coordinate defaults to k
    assert dense_unrank(target, hom[0]) == (1, 2, 2)
    assert dense_unrank(target, hom[1]) == (2, 1, 2)
    assert verify_homomorphism(source, target, hom)


def test_build_homomorphism_counts_non_default_coordinates():
    # two parents with distinct out-colors and non-k edge colors
    g = Graph(3, [(0, 2), (1, 2)])
    source = EdgeColoredGraph(g, 2, {(0, 2): 1, (1, 2): 1})
    oriented = OrientedGraph(g, {(0, 2): (0, 2), (1, 2): (1, 2)})
    out_col = VertexColoring(3, [1, 2, 3])
    target = build_universal(3, 2, 2)
    hom = build_homomorphism(source, oriented, out_col, target)
    image = dense_unrank(target, hom[2])
    assert sum(1 for x in image[1:] if x != 2) == 2
    assert verify_homomorphism(source, target, hom)


def test_build_homomorphism_full_triangle_pipeline():
    g = clique(3)
    source = EdgeColoredGraph(g, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    _, oriented = min_orientation(g)
    star = greedy_star_coloring(g)
    cert = build_out_coloring(oriented, star)
    target = build_universal(cert.coloring.palette, oriented.max_in_degree, 2)
    hom = build_homomorphism(source, oriented, cert.coloring, target)
    assert verify_homomorphism(source, target, hom)


def test_map_pipeline_keeps_a_few_hundred_bytes_per_edge():
    """map's stages in process, traced from the file text to the verified
    homomorphism. Per-edge colors and heads are tuples aligned with the
    edges, each conflict set is a tuple and the parsed edges share one int
    per vertex id, so the peak stays near 300 bytes per edge here; an int
    per endpoint occurrence took about 335, and edge-keyed dicts and
    conflict sets about 770."""
    text = serialize(random_coloring(stacked_triangulation(5000, seed=1), 3, random.Random(1)))
    tracemalloc.start()
    try:
        source = parse_edge_colored(text)
        oriented = find_orientation(source.graph, 3)
        star = greedy_star_coloring(source.graph)
        coloring = build_out_coloring(oriented, star).coloring
        target = build_universal(coloring.palette, 3, 3)
        verified = verify_homomorphism(source, target, build_homomorphism(source, oriented, coloring, target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verified
    m = source.graph.m
    assert peak <= 320 * m, f"{peak / m:.0f} bytes per edge"


def test_build_homomorphism_named_precondition_errors():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 2, {(0, 1): 1})
    oriented = OrientedGraph(g, {(0, 1): (0, 1)})
    out_col = VertexColoring(2, [1, 2])
    with pytest.raises(ValueError, match="palette mismatch"):
        build_homomorphism(source, oriented, out_col, build_universal(2, 1, 3))
    with pytest.raises(ValueError, match="exceeds target q"):
        build_homomorphism(source, oriented, out_col, build_universal(1, 1, 2))
    with pytest.raises(ValueError, match="exceeds target d"):
        build_homomorphism(source, oriented, out_col, build_universal(2, 0, 2))
    with pytest.raises(ValueError, match="not an out-coloring"):
        bad = VertexColoring(2, [1, 1])
        build_homomorphism(source, oriented, bad, build_universal(2, 1, 2))
    with pytest.raises(ValueError, match="different graph"):
        other = OrientedGraph(Graph(2), {})
        build_homomorphism(source, other, out_col, build_universal(2, 1, 2))


def test_verify_homomorphism_identity_on_explicit_target():
    target = build_universal(2, 1, 2).to_edge_colored_graph()
    identity = Homomorphism(range(target.graph.n))
    assert verify_homomorphism(target, target, identity)


def test_verify_homomorphism_rejects_collapsed_edge():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 2, {(0, 1): 1})
    assert not verify_homomorphism(source, source, Homomorphism([0, 0]))


def test_verify_homomorphism_rejects_color_mismatch():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 2, {(0, 1): 2})
    target = EdgeColoredGraph(g, 2, {(0, 1): 1})
    assert not verify_homomorphism(source, target, Homomorphism([0, 1]))


@pytest.mark.parametrize(
    "u, v, color, ok",
    [
        ((1, 3, 3, 3), (1, 3, 3, 3), 3, False),  # collapsed edge, its color would match
        ((1, 3, 3, 3), (2, 1, 3, 3), 1, True),
        ((1, 3, 3, 3), (2, 1, 3, 3), 2, False),  # v's first coordinate decides
        ((1, 3, 2, 3), (3, 3, 3, 1), 3, True),
        ((1, 3, 2, 3), (3, 3, 3, 1), 2, False),  # both selected coordinates are the default k
    ],
)
def test_verify_homomorphism_on_a_tuple_target(u, v, color, ok):
    target = build_universal(3, 1, 3)
    source = EdgeColoredGraph(Graph(2, [(0, 1)]), 3, {(0, 1): color})
    assert verify_homomorphism(source, target, Homomorphism([dense_rank(target, u), dense_rank(target, v)])) is ok


@pytest.mark.parametrize("image", [-1, 6])
def test_verify_homomorphism_rejects_an_id_outside_a_tuple_target(image):
    # the id range is the only check a tuple target puts on a vertex
    source = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1})
    with pytest.raises(ValueError, match="outside 0..5"):
        verify_homomorphism(source, build_universal(2, 1, 2), Homomorphism([0, image]))


def test_verify_homomorphism_rejects_a_palette_mismatch():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 3, {(0, 1): 1})
    for target in (build_universal(2, 1, 2), EdgeColoredGraph(g, 2, {(0, 1): 1})):
        with pytest.raises(ValueError, match="palette mismatch"):
            verify_homomorphism(source, target, Homomorphism([0, 1]))


def test_find_homomorphism_identity_triangle():
    g = clique(3)
    mono = EdgeColoredGraph(g, 2, {e: 1 for e in g.edges})
    hom = find_homomorphism(mono, mono)
    assert hom is not None
    assert verify_homomorphism(mono, mono, hom)


def test_find_homomorphism_none_on_wrong_color():
    g = Graph(2, [(0, 1)])
    source = EdgeColoredGraph(g, 2, {(0, 1): 2})
    target = EdgeColoredGraph(g, 2, {(0, 1): 1})
    assert find_homomorphism(source, target) is None


def test_find_homomorphism_agrees_with_construction():
    g = clique(3)
    source = EdgeColoredGraph(g, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    target = build_universal(2, 1, 2)
    hom = find_homomorphism(source, target)
    assert hom is not None
    assert verify_homomorphism(source, target, hom)


def test_find_homomorphism_guards():
    big_source = EdgeColoredGraph(Graph(13), 2, {})
    target = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1})
    with pytest.raises(GuardExceeded):
        find_homomorphism(big_source, target)
    small = EdgeColoredGraph(Graph(1), 2, {})
    with pytest.raises(GuardExceeded):
        find_homomorphism(small, EdgeColoredGraph(Graph(65), 2, {}))


@given(edge_colored_graphs(max_n=6, max_k=3))
@settings(max_examples=60, deadline=None)
def test_found_homomorphisms_always_verify(source):
    # the target shares the source's palette, which verify_homomorphism requires
    k = source.k
    target = EdgeColoredGraph(
        clique(4),
        k,
        {e: 1 + (i % k) for i, e in enumerate(clique(4).edges)},
    )
    hom = find_homomorphism(source, target)
    if hom is not None:
        assert verify_homomorphism(source, target, hom)


@st.composite
def search_instances(draw):
    """A source of up to 7 vertices and a target with its palette: an
    explicit graph of up to 6 vertices, or a tuple target of at most 57."""
    source = draw(edge_colored_graphs(max_n=7, max_k=3))
    k = source.k
    if draw(st.booleans()):
        return source, build_universal(draw(st.integers(1, 3)), draw(st.integers(0, 2)), k)
    graph = draw(graphs(max_n=6))
    color = {e: draw(st.integers(1, k)) for e in graph.edges}
    return source, EdgeColoredGraph(graph, k, color)


@given(search_instances())
@settings(max_examples=200, deadline=None)
def test_find_homomorphism_agrees_with_the_static_order_search(instance):
    source, target = instance
    hom = find_homomorphism(source, target)
    assert (hom is None) == (static_order_homomorphism(source, target) is None)
    if hom is not None:
        assert verify_homomorphism(source, target, hom)


def test_find_homomorphism_is_fast_on_a_hostile_source():
    # 12 vertices and 19 edges into the 44-vertex target pass every limit;
    # static_order_homomorphism takes over 10 s on this source
    source = random_coloring(hostile_graph(), 2, random.Random(2))
    target = build_universal(4, 2, 2)
    start = time.perf_counter()
    hom = find_homomorphism(source, target)
    assert time.perf_counter() - start < 1
    assert hom is not None and verify_homomorphism(source, target, hom)


def hostile_graph() -> Graph:
    """12 vertices and 19 edges: every limit passes against the 44-vertex
    (4, 2, 2) target."""
    r = random.Random(1)
    edges = set()
    while len(edges) < 19:
        edges.add(tuple(sorted(r.sample(range(12), 2))))
    return Graph(12, edges)


@pytest.mark.parametrize(
    "source, target, mapping",
    [
        (
            EdgeColoredGraph(clique(3), 2, {(0, 1): 1, (0, 2): 1, (1, 2): 2}),
            build_universal(2, 1, 2),
            (0, 1, 2),
        ),
        (random_coloring(grid(2, 4), 2, random.Random(5)), build_universal(4, 2, 2), (0, 26, 1, 0, 27, 33, 22, 24)),
        (
            random_coloring(stacked_triangulation(7, 1), 3, random.Random(7)),
            build_universal(3, 2, 3),
            (1, 26, 19, 45, 23, 48, 2),
        ),
        (
            random_coloring(hostile_graph(), 2, random.Random(2)),
            build_universal(4, 2, 2),
            (0, 1, 1, 15, 40, 1, 5, 3, 1, 26, 40, 15),
        ),
    ],
)
def test_find_homomorphism_returns_the_pinned_mapping(source, target, mapping):
    # the fail-first search is deterministic: these are its first homomorphisms
    assert find_homomorphism(source, target).mapping == mapping


@pytest.mark.parametrize(
    "n, assign",
    [
        (6, (1, 2, 6, 3, 5, 4)),
        (9, (1, 5, 9, 3, 7, 6, 8, 2, 4)),
        (12, (1, 5, 11, 4, 6, 7, 10, 2, 9, 3, 8, 12)),
    ],
)
def test_out_coloring_from_universal_keeps_its_pinned_colorings(n, assign):
    _, oriented = min_orientation(stacked_triangulation(n, seed=1))
    target = build_universal(4, oriented.max_in_degree, 2).to_edge_colored_graph()
    assert out_coloring_from_universal(oriented, target, 2).coloring.assign == assign


@contextlib.contextmanager
def counting_index_builds(index=EdgeColoredGraph.by_color):
    """Yield the list of graphs whose index, a cached property (by default
    the colored adjacency), gets built meanwhile."""
    built = []
    build = index.func

    def counted(colored):
        built.append(colored)
        return build(colored)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index, "func", counted)
        yield built


def test_check_universal_indexes_its_target_once():
    # 2^10 colorings of the 2x4 grid, each searched in the 44-vertex target
    with counting_index_builds() as built:
        assert check_universal(build_universal(4, 2, 2), grid(2, 4), 2) is None
    assert len(built) == 1
    assert built[0].graph.n == 44


def test_searches_into_one_explicit_target_reuse_its_index():
    target = build_universal(2, 1, 2).to_edge_colored_graph()
    g = clique(3)
    with counting_index_builds() as built:
        find_homomorphism(EdgeColoredGraph(g, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 2}), target)
        assert built == [target]
        index = target.by_color
        for color in (1, 2):
            find_homomorphism(EdgeColoredGraph(g, 2, {e: color for e in g.edges}), target)
    assert built == [target]
    assert target.by_color is index


def test_search_oracles_reject_a_palette_mismatch():
    source = EdgeColoredGraph(path(5), 3, {e: 1 for e in path(5).edges})
    for target in (build_universal(2, 1, 2), build_universal(2, 1, 2).to_edge_colored_graph()):
        with pytest.raises(ValueError, match="palette mismatch"):
            find_homomorphism(source, target)
        with pytest.raises(ValueError, match="palette mismatch"):
            check_universal(target, path(5), 3)
    with pytest.raises(ValueError, match="palette mismatch"):
        check_universal(build_universal(2, 1, 3), path(5), 2)
    # refused as input before the 2^29 colorings are weighed against their limit
    with pytest.raises(ValueError, match="palette mismatch"):
        check_universal(build_universal(2, 1, 3), path(30), 2)


def test_check_universal_path_target_for_single_edge():
    tgt = EdgeColoredGraph(path(3), 2, {(0, 1): 1, (1, 2): 2})
    assert check_universal(tgt, Graph(2, [(0, 1)]), 2) is None


def test_check_universal_counterexample_is_lexicographically_least():
    g = Graph(2, [(0, 1)])
    tgt = EdgeColoredGraph(g, 2, {(0, 1): 1})
    counterexample = check_universal(tgt, g, 2)
    assert counterexample is not None
    assert counterexample.colors == (2,)


def test_check_universal_repairs_from_the_first_recolored_edge():
    # on the path 3-0-2-1 the leaders (1, 1, 2) and (1, 2, 2) first differ at
    # edge (0, 3), whose ends no later edge touches: a repair from a later
    # edge keeps both their images and misses the counterexample
    source = Graph(4, [(0, 2), (0, 3), (1, 2)])
    target = EdgeColoredGraph(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 2, {(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1})
    assert source.edge_automorphisms
    counterexample = check_universal(target, source, 2)
    assert counterexample == memoryless_check_universal(target, source, 2)
    assert counterexample.colors == (1, 2, 2)


def test_check_universal_full_pipeline_target():
    g = clique(3)
    _, oriented = min_orientation(g)
    star = greedy_star_coloring(g)
    cert = build_out_coloring(oriented, star)
    target = build_universal(cert.coloring.palette, oriented.max_in_degree, 2)
    assert check_universal(target, g, 2) is None


# sources with many automorphisms, so that few colorings lead their orbits
SYMMETRIC = [cycle(4), cycle(5), cycle(6), grid(2, 2), grid(2, 3), clique(3), clique(4), star(5), star(6)]
# sources whose only automorphism is the identity, so that every coloring leads
ASYMMETRIC = [
    Graph(6, [(0, 4), (0, 5), (1, 4), (2, 3), (2, 5), (4, 5)]),
    Graph(6, [(0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]),
    Graph(7, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 6), (2, 4)]),
    Graph(7, [(0, 2), (0, 4), (0, 6), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (4, 6)]),
]


def check_pairs(count: int, seed: int):
    """Seeded (target, graph, k): k in {2, 3}, a source of up to 7 vertices
    with at most 3^6 colorings, two fifths of them from SYMMETRIC and one
    fifth from ASYMMETRIC, and an explicit target of up to 6 vertices or a
    tuple target of at most 57."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice((2, 3))
        draw = rng.random()
        if draw < 0.6:
            graph = rng.choice([g for g in (SYMMETRIC if draw < 0.4 else ASYMMETRIC) if k**g.m <= 729])
        else:
            graph = random_graph(rng.randint(1, 6), rng.uniform(0.2, 0.8), rng)
        while k**graph.m > 729:
            graph = random_graph(graph.n, 0.4, rng)
        if rng.random() < 0.5:
            target = build_universal(rng.randint(1, 3), rng.randint(0, 2), k)
        else:
            target = random_coloring(random_graph(rng.randint(1, 6), rng.uniform(0.4, 1), rng), k, rng)
        yield target, graph, k


def test_check_universal_agrees_with_the_memoryless_reference():
    outcomes = set()
    for target, graph, k in check_pairs(200, seed=18):
        counterexample = check_universal(target, graph, k)
        assert counterexample == memoryless_check_universal(target, graph, k)
        outcomes.add((counterexample is None, graph in SYMMETRIC, graph in ASYMMETRIC))
    assert outcomes == {(found, *kind) for found in (True, False) for kind in ((True, False), (False, True), (False, False))}


@pytest.mark.parametrize(
    "graph, header, searched",
    [(grid(2, 4), (4, 2, 2), 312), (clique(4), (3, 2, 3), 66), (cycle(8), (3, 1, 3), 498)],
)
def test_check_universal_searches_one_coloring_per_orbit(monkeypatch, graph, header, searched):
    # the orbit counts under the full automorphism group (of 1,024, 729 and
    # 6,561 colorings): a part of the group searches more
    words, generate = [], ectarget.universal._canonical_words

    def recorded(*args):
        for word in generate(*args):
            words.append(word)
            yield word

    monkeypatch.setattr(ectarget.universal, "_canonical_words", recorded)
    assert check_universal(build_universal(*header), graph, header[2]) is None
    assert len(words) == searched


@pytest.mark.parametrize("graph, leaders_only", [(cycle(5), True)] + [(graph, False) for graph in ASYMMETRIC])
def test_check_universal_walks_every_coloring_where_no_automorphism_is_found(monkeypatch, graph, leaders_only):
    # every coloring leads its orbit then, and itertools.product walks them faster
    calls, generate = [], ectarget.universal._canonical_words
    monkeypatch.setattr(ectarget.universal, "_canonical_words", lambda *args: calls.append(args) or generate(*args))
    assert (graph.edge_automorphisms == ()) != leaders_only
    for target, universal in ((build_universal(3, 1, 2), True), (build_universal(2, 1, 2), False)):
        counterexample = check_universal(target, graph, 2)
        assert counterexample == memoryless_check_universal(target, graph, 2)
        assert (counterexample is None) == universal
    assert len(calls) == 2 * leaders_only


@pytest.mark.parametrize(
    "graph, k",
    [(cycle(5), 3), (grid(2, 3), 2), (clique(4), 2), (star(6), 2), (Graph(6, [(0, 1), (2, 3), (3, 4)]), 3)],
)
def test_colorings_searched_are_those_no_automorphism_makes_smaller(graph, k):
    # brute force over every coloring and every automorphism found
    maps = graph.edge_automorphisms
    leaders = [
        word
        for word in itertools.product(range(1, k + 1), repeat=graph.m)
        if all(word <= tuple(word[i] for i in perm) for perm in maps)
    ]
    assert list(_canonical_words(graph.m, range(1, k + 1), maps, False)) == leaders


@pytest.mark.parametrize("graph", [star(12), Graph(12, [(0, 1)]), Graph(12, [(v, v + 1) for v in range(0, 12, 2)])])
def test_check_universal_bounds_the_automorphism_search(graph):
    # K1,11 has 11! automorphisms, the edge with ten isolated vertices 2·10!
    # vertex maps and the perfect matching 2^6·6!
    for target in (build_universal(2, 1, 2), build_universal(1, 1, 2)):
        start = time.perf_counter()
        counterexample = check_universal(target, graph, 2)
        assert time.perf_counter() - start < 2.0
        assert counterexample == memoryless_check_universal(target, graph, 2)
    assert len(graph.edge_automorphisms) <= AUTOMORPHISM_NODES
    assert graph.edge_automorphisms or graph.m == 1


def test_check_universal_seeks_no_automorphisms_for_a_failing_all_one_coloring_or_one_edge():
    edge = Graph(2, [(0, 1)])
    with counting_index_builds(Graph.edge_automorphisms) as built:
        counterexample = check_universal(EdgeColoredGraph(edge, 2, {(0, 1): 2}), clique(3), 2)
        assert counterexample.colors == (1, 1, 1)
        assert check_universal(EdgeColoredGraph(path(3), 2, {(0, 1): 1, (1, 2): 2}), edge, 2) is None
    assert built == []


@contextlib.contextmanager
def counting_colored_graphs():
    """Yield the list of EdgeColoredGraph objects built meanwhile."""
    built = []
    init = EdgeColoredGraph.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EdgeColoredGraph, "__init__", counted)
        yield built


def test_check_universal_builds_only_the_counterexample():
    target = build_universal(2, 1, 2).to_edge_colored_graph()
    with counting_colored_graphs() as built:
        assert check_universal(target, cycle(6), 2) is None
    assert built == []
    with counting_colored_graphs() as built:
        counterexample = check_universal(target, grid(2, 3), 2)
    assert counterexample is not None
    assert len(built) == 1 and built[0] is counterexample


def test_check_universal_guard():
    g = clique(5)
    tgt = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1})
    with pytest.raises(GuardExceeded):
        check_universal(tgt, g, 2, Limits(colorings=100))


def pair_maps(p: int) -> tuple[int, list]:
    """The number of vertex pairs, and each vertex permutation as a map of pair slots."""
    pairs = list(itertools.combinations(range(p), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    return len(pairs), [
        tuple(index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
        for perm in itertools.permutations(range(p))
    ]


@pytest.mark.parametrize("p, k", [(1, 5), (2, 2), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_min_target_candidates_are_the_least_word_of_each_class(p, k):
    # brute force over every word and every vertex and color map
    length, vertex_maps = pair_maps(p)
    color_maps = [(0, *perm) for perm in itertools.permutations(range(1, k + 1))]
    least = {
        min(tuple(cmap[word[slot]] for slot in vmap) for vmap in vertex_maps for cmap in color_maps)
        for word in itertools.product(range(k + 1), repeat=length)
    }
    assert list(_canonical_words(length, range(k + 1), vertex_maps, True)) == sorted(least)


@pytest.mark.parametrize("p, k", [(3, 3), (4, 2), (4, 3)])
def test_canonical_ignores_the_order_of_the_vertex_maps(p, k):
    length, vertex_maps = pair_maps(p)
    words = list(_canonical_words(length, range(k + 1), vertex_maps, True))
    rng = random.Random(p * 10 + k)
    for _ in range(3):
        assert list(_canonical_words(length, range(k + 1), rng.sample(vertex_maps, len(vertex_maps)), True)) == words


# canonical words on p vertices with k colors, by p, for k = 2, 3, 4, 5
CANONICAL_WORD_COUNTS = {1: (1, 1, 1, 1), 2: (2, 2, 2, 2), 3: (6, 7, 7, 7), 4: (36, 64, 77, 80), 5: (406, 1908, 4317)}


@pytest.mark.parametrize("p, k", [(p, k) for p, counts in CANONICAL_WORD_COUNTS.items() for k in range(2, 2 + len(counts))])
def test_canonical_words_match_the_reference_in_order(p, k):
    length, vertex_maps = pair_maps(p)
    words = list(_canonical_words(length, range(k + 1), vertex_maps, True))
    assert len(words) == CANONICAL_WORD_COUNTS[p][k - 2]
    if p <= 4 or k <= 3:  # the reference tests every restricted-growth word on its own
        assert words == [w for w in _restricted_growth(length, k) if _canonical(w, list(vertex_maps))]


def min_target_lists(count: int, seed: int, k: int | None = None, p_max: int | None = None):
    """Seeded (graphs, k, p_max): one to three graphs of up to 4 vertices,
    with k and p_max drawn where they are not given."""
    rng = random.Random(seed)
    for _ in range(count):
        kk = k or rng.choice((2, 3))
        graphs = [random_graph(rng.randint(1, 4), rng.uniform(0.2, 0.9), rng) for _ in range(rng.randint(1, 3))]
        yield graphs, kk, p_max or rng.randint(1, 4 if kk == 2 else 3)


def test_min_universal_size_agrees_with_the_memoryless_reference():
    sizes = set()
    for graphs, k, p_max in min_target_lists(60, seed=18):
        result = min_universal_size(graphs, k, p_max)
        assert result == memoryless_min_universal_size(graphs, k, p_max)
        sizes.add(None if result is None else result[0])
    assert sizes == {None, 1, 3, 4}


@pytest.mark.parametrize("k, p_max, seed, sizes", [(2, 5, 23, {None, 1, 3, 4, 5}), (3, 4, 24, {None, 1, 3, 4})])
def test_min_universal_size_agrees_with_the_reference_on_larger_targets(k, p_max, seed, sizes):
    found = set()
    for graphs, _, _ in min_target_lists(20, seed, k, p_max):
        result = min_universal_size(graphs, k, p_max)
        assert result == memoryless_min_universal_size(graphs, k, p_max)
        found.add(None if result is None else result[0])
    assert found == sizes


def test_min_universal_size_replays_a_counterexample_under_the_search_guards(monkeypatch):
    # the first search at p = 3 replays, through find_homomorphism, the
    # counterexample that refuted the last 2-vertex candidate, so the target
    # guard is met before any full check
    checked, replayed = [], []
    check, find = ectarget.universal.check_universal, ectarget.universal.find_homomorphism

    def check_spy(target, *rest):
        checked.append(target.graph.n)
        return check(target, *rest)

    def search_spy(source, target, *rest):
        replayed.append(target.graph.n)
        return find(source, target, *rest)

    monkeypatch.setattr(ectarget.universal, "check_universal", check_spy)
    monkeypatch.setattr(ectarget.universal, "find_homomorphism", search_spy)
    graphs, limits = [Graph(2, [(0, 1)])], Limits(search_target_n=2)
    messages = []
    for search in (min_universal_size, memoryless_min_universal_size):
        with pytest.raises(GuardExceeded, match="search_target_n") as raised:
            search(graphs, 2, 3, limits)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == "search target of 3 vertices exceeds the limit search_target_n=2"
    assert checked == [1, 2]
    assert replayed[-1] == 3


@pytest.mark.parametrize(
    "second, limits, name",
    [(path(13), Limits(), "search_source_n"), (path(6), Limits(colorings=16), "colorings")],
)
def test_min_universal_size_meets_a_guard_where_the_reference_does(second, limits, name):
    # the single edge is first admitted at p = 3, and only then is the second graph checked
    graphs = [Graph(2, [(0, 1)]), second]
    messages = []
    for search in (min_universal_size, memoryless_min_universal_size):
        with pytest.raises(GuardExceeded, match=name) as raised:
            search(graphs, 2, 3, limits)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_min_universal_size_builds_each_graph_index_once(monkeypatch):
    # every replay and every full check of a graph reads the same edge slots
    # and automorphisms
    graphs, replayed = [path(3), cycle(4)], []
    find = ectarget.universal.find_homomorphism

    def search_spy(source, *rest):
        replayed.append(source)
        return find(source, *rest)

    monkeypatch.setattr(ectarget.universal, "find_homomorphism", search_spy)
    with counting_index_builds(Graph.edge_slots) as slots, counting_index_builds(Graph.edge_automorphisms) as groups:
        assert min_universal_size(graphs, 2, 4) == memoryless_min_universal_size(graphs, 2, 4)
    assert len(replayed) > 10
    assert sorted(map(id, slots)) == sorted(map(id, groups)) == sorted(map(id, graphs))


def test_min_universal_size_never_reaches_a_graph_after_one_no_candidate_admits():
    # no target on 3 vertices admits every coloring of the triangle, so the
    # 13-vertex path, over the search limit, is never checked
    graphs = [clique(3), path(13)]
    assert min_universal_size(graphs, 2, 3) is None
    assert memoryless_min_universal_size(graphs, 2, 3) is None


def test_min_universal_single_edge_needs_three_vertices():
    result = min_universal_size([Graph(2, [(0, 1)])], k=2, p_max=3)
    assert result is not None
    size, target = result
    assert size == 3
    assert check_universal(target, Graph(2, [(0, 1)]), 2) is None


def test_min_universal_edgeless_needs_one_vertex():
    for k in (2, 3):
        size, target = min_universal_size([Graph(3)], k=k, p_max=2)
        assert size == 1
        assert target.graph.n == 1


def test_min_universal_path3():
    size, target = min_universal_size([path(3)], k=2, p_max=3)
    assert size == 3
    assert check_universal(target, path(3), 2) is None


def test_min_universal_guard():
    with pytest.raises(GuardExceeded):
        min_universal_size([Graph(2, [(0, 1)])], k=2, p_max=6)


def test_min_universal_respects_density_lower_bound():
    from ectarget.density import densest_subgraph

    for graphs, p_max in [([Graph(2, [(0, 1)])], 3), ([path(3)], 3), ([Graph(3)], 2)]:
        result = min_universal_size(graphs, k=2, p_max=p_max)
        assert result is not None
        size = result[0]
        for g in graphs:
            dens = densest_subgraph(g).value
            assert size ** dens.denominator >= 2**dens.numerator


@given(edge_colored_graphs(max_n=5, max_k=3))
@settings(max_examples=40, deadline=None)
def test_pipeline_soundness_random_sources(source):
    g = source.graph
    _, oriented = min_orientation(g)
    star = greedy_star_coloring(g)
    cert = build_out_coloring(oriented, star)
    target = build_universal(cert.coloring.palette, oriented.max_in_degree, source.k)
    hom = build_homomorphism(source, oriented, cert.coloring, target)
    assert verify_homomorphism(source, target, hom)
    if target.vertex_count <= 64:
        # the independent search agrees that an embedding exists
        assert find_homomorphism(source, target) is not None


def test_header_reconstructs_target_bit_exactly():
    target = build_universal(3, 2, 3)
    header = target.header()
    rebuilt = build_universal(header["q"], header["d"], header["k"])
    assert rebuilt.vertex_count == target.vertex_count
    assert listing(rebuilt) == listing(target)


def test_strict_size_bound_holds_below_the_diagonal():
    # count < q * C(q, d) * k^d for d < q; equality holds exactly at d = q
    for k in (2, 3, 4):
        for q in range(1, 7):
            for d in range(1, q + 1):
                count = build_universal(q, d, k).vertex_count
                bound = q * math.comb(q, d) * k**d
                if d < q:
                    assert count < bound
                else:
                    assert count == bound
