import itertools
import random
import re
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

import ectarget
from conftest import edge_colored_graphs, graphs, oriented_graphs
from ectarget.density import find_orientation, min_orientation
from ectarget.graphs import (
    EdgeColoredGraph,
    Graph,
    GraphFormatError,
    Homomorphism,
    OrientedGraph,
    VertexColoring,
    parse_edge_colored,
    parse_graph,
    parse_homomorphism,
    parse_oriented,
    serialize,
    serialize_coloring,
    serialize_graph,
    serialize_homomorphism,
    serialize_oriented,
)
from ectarget.universal import build_universal
from helpers import arc_map, clique, cycle, grid, random_coloring, random_graph, stacked_triangulation, transpose


TRIANGLE_TEXT = "3 3 2\n0 1 1\n1 2 2\n0 2 1"


def test_parse_triangle():
    ecg = parse_edge_colored(TRIANGLE_TEXT)
    assert ecg.graph.n == 3
    assert ecg.k == 2
    assert ecg.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert ecg.colors == (1, 1, 2)


def test_parse_single_vertex_no_edges():
    ecg = parse_edge_colored("1 0 2")
    assert ecg.graph.n == 1
    assert ecg.graph.m == 0
    assert ecg.k == 2


def test_parse_rejects_loop():
    with pytest.raises(GraphFormatError, match="loop"):
        parse_edge_colored("2 1 2\n0 0 1")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_edge_colored("3 2 2\n0 1 1\n1 0 2")


def test_parse_rejects_color_out_of_range():
    with pytest.raises(GraphFormatError, match="color"):
        parse_edge_colored("2 1 2\n0 1 3")
    with pytest.raises(GraphFormatError, match="color"):
        parse_edge_colored("2 1 2\n0 1 0")


def test_parse_rejects_bad_vertex_id():
    with pytest.raises(GraphFormatError, match="endpoint"):
        parse_edge_colored("2 1 2\n0 2 1")


def test_parse_rejects_malformed_header():
    for text in ["", "2 1", "a b c", "0 0 2", "2 -1 2", "3 1 2\n0 1 1\n0 2 1"]:
        with pytest.raises(GraphFormatError):
            parse_edge_colored(text)


def test_parse_rejects_k1_for_edge_colored():
    with pytest.raises(GraphFormatError, match="k >= 2"):
        parse_edge_colored("2 1 1\n0 1 1")


def test_parse_graph_requires_k1():
    with pytest.raises(GraphFormatError, match="k = 1"):
        parse_graph("2 1 2\n0 1 1")
    g = parse_graph("3 2 1\n0 1 1\n# a comment\n1 2 1")
    assert g.edges == ((0, 1), (1, 2))


def test_comments_and_blank_lines_are_skipped():
    text = "# triangle\n\n3 3 2\n0 1 1\n\n# middle\n1 2 2\n0 2 1\n"
    assert parse_edge_colored(text) == parse_edge_colored(TRIANGLE_TEXT)


def test_serialize_round_trip_triangle():
    ecg = parse_edge_colored(TRIANGLE_TEXT)
    text = serialize(ecg)
    assert text == "3 3 2\n0 1 1\n0 2 1\n1 2 2\n"
    assert parse_edge_colored(text) == ecg


def test_serialize_single_edge_large_palette():
    ecg = EdgeColoredGraph(Graph(2, [(0, 1)]), 5, {(0, 1): 4})
    assert serialize(ecg) == "2 1 5\n0 1 4\n"


def test_graph_rejects_zero_vertices():
    with pytest.raises(ValueError):
        Graph(0)


def test_graph_rejects_loops_and_bad_ids():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="endpoint"):
        Graph(3, [(0, 3)])


def test_graph_rejects_non_integer_vertex_ids():
    for edges in ([(0.0, 1), (1, 2)], [(0, "1")], [(None, 2)]):
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, edges)


def test_edge_colored_graph_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="k >= 2"):
        EdgeColoredGraph(g, 1, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="cover exactly"):
        EdgeColoredGraph(g, 2, {(0, 1): 1})
    with pytest.raises(ValueError, match="outside"):
        EdgeColoredGraph(g, 2, {(0, 1): 1, (1, 2): 3})
    with pytest.raises(ValueError, match=r"^color 3 on edge 1 2 outside 1\.\.2$"):
        EdgeColoredGraph(g, 2, [((2, 1), 3), ((1, 0), 1)])
    with pytest.raises(ValueError, match=r"^edge 0 1 colored twice$"):
        EdgeColoredGraph(g, 2, [((0, 1), 1), ((1, 0), 1)])
    # any pairs dict() accepts, stored in sorted edge order
    colored = EdgeColoredGraph(g, 2, [((2, 1), 2), ((1, 0), 1)])
    assert colored.colors == (1, 2)


def test_edge_colored_graph_rejects_non_integer_colors_and_palettes():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match=r"^color 1\.5 on edge 0 1 outside 1\.\.2$"):
        EdgeColoredGraph(g, 2, {(0, 1): 1.5})
    with pytest.raises(ValueError, match=r"^edge palette must be an integer k >= 2, got 2\.0$"):
        EdgeColoredGraph(g, 2.0, {(0, 1): 1})


def test_colored_adjacency_groups_neighbors_by_edge_color():
    colored = EdgeColoredGraph(Graph(4, [(0, 1), (1, 2), (1, 3)]), 3, {(0, 1): 1, (1, 2): 3, (1, 3): 1})
    assert colored.by_color == ({1: {1}}, {1: {0, 3}, 3: {2}}, {3: {1}}, {1: {1}})
    assert EdgeColoredGraph(Graph(2), 2, {}).by_color == ({}, {})


def test_oriented_graph_validation():
    g = Graph(2, [(0, 1)])
    og = OrientedGraph(g, {(0, 1): (1, 0)})
    assert og.parents[0] == (1,)
    assert og.parents[1] == ()
    with pytest.raises(ValueError, match="does not match"):
        OrientedGraph(g, {(0, 1): (0, 0)})
    with pytest.raises(ValueError, match="cover exactly"):
        OrientedGraph(g, {})


def test_oriented_graph_spells_arcs_with_the_graph_ids():
    og = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), {(0, 1): (1.0, 0), (2, 1): (1, 2.0)})
    assert list(map(type, og.heads)) == [int, int]
    assert og.heads == (0, 2)


def test_vertex_coloring_validation():
    with pytest.raises(ValueError):
        VertexColoring(0, [])
    with pytest.raises(ValueError, match="outside"):
        VertexColoring(2, [1, 3])
    col = VertexColoring(2, [1, 2, 1])
    assert col[2] == 1 and len(col) == 3


def test_vertex_coloring_rejects_non_integer_colors_and_palettes():
    with pytest.raises(ValueError, match=r"^vertex 1 colored 2\.0 outside 1\.\.2$"):
        VertexColoring(2, [1, 2.0])
    with pytest.raises(ValueError, match=r"^palette must be a positive integer, got 2\.5$"):
        VertexColoring(2.5, [1, 2])


@given(edge_colored_graphs())
def test_round_trip_any_edge_colored_graph(ecg):
    assert parse_edge_colored(serialize(ecg)) == ecg


@given(edge_colored_graphs())
def test_plain_round_trip(ecg):
    g = ecg.graph
    assert parse_graph(serialize_graph(g)) == g


@given(oriented_graphs())
def test_oriented_round_trip(og):
    assert parse_oriented(serialize_oriented(og)) == og


@given(oriented_graphs())
def test_parents_and_children_ascend_whatever_the_input_order(og):
    arcs = arc_map(og)
    backwards = OrientedGraph(og.graph, {(v, u): arc for (u, v), arc in reversed(arcs.items())})
    for v in range(og.graph.n):
        assert backwards.parents[v] == tuple(sorted(t for t, h in arcs.values() if h == v))
        assert backwards.children[v] == tuple(sorted(h for t, h in arcs.values() if t == v))


def test_oriented_parse_direction_flags():
    og = parse_oriented("3 2 1\n0 1 1 >\n1 2 1 <")
    assert og.heads == (1, 1)
    with pytest.raises(GraphFormatError, match="flag"):
        parse_oriented("2 1 1\n0 1 1 x")


def test_coloring_round_trip():
    assert serialize_coloring(VertexColoring(3, [1, 3, 2, 1])) == "palette 3\n0 1\n1 3\n2 2\n3 1\n"


def test_homomorphism_round_trip():
    hom = Homomorphism([2, 0, 1])
    assert parse_homomorphism(serialize_homomorphism(hom)) == hom
    with pytest.raises(GraphFormatError):
        parse_homomorphism("0 1\n2 0")


def test_transpose_flips_every_edge():
    og = parse_oriented("3 2 1\n0 1 1 >\n1 2 1 <")
    back = transpose(og)
    assert back.heads == (0, 2)
    assert transpose(back) == og


@given(graphs())
def test_neighbors_ascend(g):
    for v in range(g.n):
        assert g.adjacency[v] == tuple(sorted(b if a == v else a for a, b in g.edges if v in (a, b)))


# ---------------------------------------------------------------------------
# records built without the constructors' checks
# ---------------------------------------------------------------------------


def assert_same_graph(got, want):
    assert got == want and type(got.edges) is tuple and list(got.edges) == sorted(got.edges)
    assert got.edges == want.edges and got.adjacency == want.adjacency


def assert_same_colored(got, want):
    assert got == want
    assert_same_graph(got.graph, want.graph)
    assert type(got.colors) is tuple and got.colors == want.colors
    assert got.by_color == want.by_color


def assert_same_oriented(got, want):
    assert got == want
    assert_same_graph(got.graph, want.graph)
    assert type(got.heads) is tuple and got.heads == want.heads
    assert got.parents == want.parents and got.children == want.children


@st.composite
def shuffled_lines(draw):
    """An edge-colored graph and one (u, v, color, (tail, head)) row per
    edge, in a random order with the endpoints either way round, plus the
    positions of comment lines among the rows."""
    ecg = draw(edge_colored_graphs())
    color = dict(zip(ecg.graph.edges, ecg.colors))
    rows = []
    for u, v in draw(st.permutations(ecg.graph.edges)):
        arc = (u, v) if draw(st.booleans()) else (v, u)
        a, b = (u, v) if draw(st.booleans()) else (v, u)
        rows.append((a, b, color[(u, v)], arc))
    comments = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return ecg, rows, comments


def _file(header, lines, comments):
    lines = list(lines)
    for at in sorted(comments, reverse=True):
        lines.insert(at, "# a comment")
    return "\n".join([header, *lines]) + "\n"


@given(shuffled_lines())
def test_parsers_build_the_records_the_constructors_build(case):
    ecg, rows, comments = case
    n, m = ecg.graph.n, ecg.graph.m
    graph = Graph(n, [(a, b) for a, b, _, _ in rows])
    assert graph.edges == ecg.graph.edges and graph == ecg.graph and hash(graph) == hash(ecg.graph)
    colored = EdgeColoredGraph(graph, ecg.k, {(a, b): c for a, b, c, _ in rows})
    oriented = OrientedGraph(graph, {(a, b): arc for a, b, _, arc in rows})
    colored_text = _file(f"{n} {m} {ecg.k}", (f"{a} {b} {c}" for a, b, c, _ in rows), comments)
    plain_text = _file(f"{n} {m} 1", (f"{a} {b} 1" for a, b, _, _ in rows), comments)
    flags = (f"{a} {b} 1 {'>' if arc == (a, b) else '<'}" for a, b, _, arc in rows)
    assert_same_colored(parse_edge_colored(colored_text), colored)
    assert_same_graph(parse_graph(plain_text), graph)
    assert_same_oriented(parse_oriented(_file(f"{n} {m} 1", flags, comments)), oriented)


@given(shuffled_lines())
def test_serialize_after_parse_writes_the_canonical_file(case):
    ecg, rows, comments = case
    n, m = ecg.graph.n, ecg.graph.m
    oriented = OrientedGraph(ecg.graph, {(a, b): arc for a, b, _, arc in rows})
    flags = (f"{a} {b} 1 {'>' if arc == (a, b) else '<'}" for a, b, _, arc in rows)
    colored_text = _file(f"{n} {m} {ecg.k}", (f"{a} {b} {c}" for a, b, c, _ in rows), comments)
    for parse, write, record, text in [
        (parse_edge_colored, serialize, ecg, colored_text),
        (parse_oriented, serialize_oriented, oriented, _file(f"{n} {m} 1", flags, comments)),
    ]:
        canonical = write(record)
        assert write(parse(text)) == canonical
        assert write(parse(canonical)) == canonical


def test_parsed_edges_share_one_object_per_vertex_id():
    # ints above 256 are not cached, so reading each endpoint's digits alone
    # would make one object per occurrence
    graph = stacked_triangulation(600, seed=1)
    oriented = OrientedGraph(graph, {(u, v): (v, u) for u, v in graph.edges})
    texts = {
        parse_edge_colored: serialize(random_coloring(graph, 3, random.Random(1))),
        parse_graph: serialize_graph(graph),
        parse_oriented: serialize_oriented(oriented),
    }
    for parse, text in texts.items():
        parsed = parse(text)
        ids = [v for e in getattr(parsed, "graph", parsed).edges for v in e] + list(getattr(parsed, "heads", ()))
        large = [v for v in ids if v >= 257]
        assert len(set(large)) > 300
        assert len({id(v) for v in large}) == len(set(large)), parse.__name__


def test_a_header_with_far_more_vertices_than_edges_allocates_nothing_per_vertex():
    tracemalloc.start()
    try:
        graph = parse_graph("1000000 1 1\n0 999999 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edges == ((0, 999999),)
    assert peak < 64 * 1024


@given(graphs())
def test_find_orientation_builds_the_record_the_constructor_builds(g):
    _, oriented = min_orientation(g)
    for got in (oriented, find_orientation(g, g.n)):
        assert_same_oriented(got, OrientedGraph(Graph(g.n, g.edges), list(arc_map(got).items())[::-1]))


@pytest.mark.parametrize("q, d, k", [(1, 0, 2), (2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2)])
def test_explicit_target_is_the_record_the_constructor_builds(q, d, k):
    got = build_universal(q, d, k).to_edge_colored_graph()
    pairs = list(zip(got.graph.edges, got.colors))[::-1]
    assert_same_colored(got, EdgeColoredGraph(Graph(got.graph.n, [e for e, _ in pairs]), k, pairs))


# Files with two faults, one for each pair of adjacent checks in the
# parser's order: line count, fields, integers, flag, loop, range,
# duplicate, color, then the palette of the file kind. Within a line the
# earlier check is reported, and across lines the earlier line, whatever
# its check. Fields and integers share one message.
FIRST_FAULT = [
    # the earlier check wins, on one line or where its fault hides the other's
    (parse_edge_colored, "3 2 2\n0 1\n", "header promises 2 edge lines, found 1"),
    (parse_edge_colored, "3 1 2\n0 1 1 >", "malformed edge line '0 1 1 >'"),
    (parse_oriented, "3 1 1\n0 x 1 ?", "malformed edge line '0 x 1 ?'"),
    (parse_oriented, "3 1 1\n1 1 1 ?", "direction flag must be '>' or '<' in '1 1 1 ?'"),
    (parse_edge_colored, "3 1 2\n3 3 1", "loop edge 3 3"),
    (parse_edge_colored, "3 2 2\n0 3 1\n3 0 1", "edge 0 3 has an endpoint outside 0..2"),
    (parse_edge_colored, "3 2 2\n0 1 1\n1 0 3", "duplicate edge 0 1"),
    (parse_edge_colored, "3 1 1\n0 1 2", "color 2 outside 1..1"),
    (parse_graph, "3 1 2\n0 1 3", "color 3 outside 1..2"),
    (parse_edge_colored, "3 1 1\n0 1", "malformed edge line '0 1'"),
    # the earlier line wins, whatever its check
    (parse_edge_colored, "3 2 2\n0 x 1\n0 1", "malformed edge line '0 x 1'"),
    (parse_oriented, "3 2 1\n0 1 1 ?\n0 x 1 >", "direction flag must be '>' or '<' in '0 1 1 ?'"),
    (parse_oriented, "3 2 1\n1 1 1 >\n0 1 1 ?", "loop edge 1 1"),
    (parse_edge_colored, "3 2 2\n0 4 1\n1 1 1", "edge 0 4 has an endpoint outside 0..2"),
    (parse_edge_colored, "3 3 2\n0 1 1\n2 2 1\n1 0 1", "loop edge 2 2"),
    (parse_edge_colored, "3 3 2\n0 1 1\n1 0 1\n0 5 1", "duplicate edge 0 1"),
    (parse_edge_colored, "3 2 2\n0 1 3\n0 5 1", "color 3 outside 1..2"),
]


@pytest.mark.parametrize("parse, text, message", FIRST_FAULT)
def test_the_first_fault_is_reported(parse, text, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse(text)


def brute_edge_automorphisms(graph: Graph) -> set:
    """The edge permutation of every vertex permutation that keeps the edge set, but the identity."""
    index = {e: i for i, e in enumerate(graph.edges)}
    found = set()
    for perm in itertools.permutations(range(graph.n)):
        images = [tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges]
        if all(e in index for e in images):
            found.add(tuple(map(index.__getitem__, images)))
    found.discard(tuple(range(graph.m)))
    return found


def test_edge_automorphisms_of_small_graphs_are_the_group_or_a_part_of_it():
    rng = random.Random(27)
    # isolated vertices, several components, an edge whose endpoints swap
    # to the same edge permutation, and dense and sparse random graphs
    fixed = [cycle(6), clique(4), grid(2, 3), Graph(7, [(0, 1), (3, 4), (4, 5), (5, 3)]), Graph(4, [(1, 2)]), Graph(3)]
    capped = []
    for graph in fixed + [random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.9), rng) for _ in range(40)]:
        group, perms = brute_edge_automorphisms(graph), graph.edge_automorphisms
        assert len(perms) == len(set(perms)) and set(perms) <= group
        capped.append(len(perms) < len(group))
        # with no cap in reach, the backtrack finds the whole group
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ectarget.graphs, "AUTOMORPHISM_NODES", 10**6)
            perms = Graph(graph.n, graph.edges).edge_automorphisms
        assert len(perms) == len(set(perms)) and set(perms) == group
    assert True in capped and False in capped


def test_edge_automorphisms_leave_isolated_vertices_out():
    # mapping the nine isolated vertices too would spend the search's node
    # budget on their 9! permutations under the first map of the triangle
    triangle = Graph(12, [(9, 10), (9, 11), (10, 11)])
    assert set(triangle.edge_automorphisms) == brute_edge_automorphisms(clique(3))
