import contextlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings

import ectarget
from conftest import edge_colored_graphs
from ectarget.coloring import greedy_star_coloring
from ectarget.density import min_orientation
from ectarget.graphs import (
    EdgeColoredGraph,
    Graph,
    GuardExceeded,
    Homomorphism,
    Limits,
    OrientedGraph,
    VertexColoring,
)
from ectarget.out_coloring import build_out_coloring
from ectarget.universal import (
    _canonical,
    _restricted_growth,
    build_homomorphism,
    build_universal,
    check_universal,
    find_homomorphism,
    min_universal_size,
    verify_homomorphism,
)
from helpers import (
    DenseTupleOrder,
    clique,
    dense_rank,
    dense_unrank,
    edge_color,
    grid,
    path,
    random_coloring,
    recursion_limit,
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
        colors = target.to_edge_colored_graph().color
        assert len(colors) == math.comb(len(vertices), 2)
        for (a, b), c in colors.items():
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
    mono = EdgeColoredGraph(g, 2, {e: 1 for e in g.sorted_edges})
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
        {e: 1 + (i % k) for i, e in enumerate(clique(4).sorted_edges)},
    )
    hom = find_homomorphism(source, target)
    if hom is not None:
        assert verify_homomorphism(source, target, hom)


@contextlib.contextmanager
def counting_index_builds():
    """Yield the list of graphs whose colored adjacency gets built meanwhile."""
    built = []
    index = EdgeColoredGraph.by_color
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
    assert counterexample.color == {(0, 1): 2}


def test_check_universal_full_pipeline_target():
    g = clique(3)
    _, oriented = min_orientation(g)
    star = greedy_star_coloring(g)
    cert = build_out_coloring(oriented, star)
    target = build_universal(cert.coloring.palette, oriented.max_in_degree, 2)
    assert check_universal(target, g, 2) is None


def test_check_universal_guard():
    g = clique(5)
    tgt = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1})
    with pytest.raises(GuardExceeded):
        check_universal(tgt, g, 2, Limits(colorings=100))


@pytest.mark.parametrize("p, k", [(1, 5), (2, 2), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_min_target_candidates_are_the_least_word_of_each_class(p, k):
    # brute force over every word and every vertex and color map
    pairs = list(itertools.combinations(range(p), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    vertex_maps = [
        tuple(index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
        for perm in itertools.permutations(range(p))
    ]
    color_maps = [(0, *perm) for perm in itertools.permutations(range(1, k + 1))]
    least = {
        min(tuple(cmap[word[slot]] for slot in vmap) for vmap in vertex_maps for cmap in color_maps)
        for word in itertools.product(range(k + 1), repeat=len(pairs))
    }
    candidates = [w for w in _restricted_growth(len(pairs), k) if _canonical(w, vertex_maps)]
    assert candidates == sorted(least)


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
