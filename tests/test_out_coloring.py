import hashlib
import random
import time
import tracemalloc
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import oriented_graphs, oriented_with_coloring
from ectarget.coloring import greedy_star_coloring, verify_acyclic, verify_star
from ectarget import out_coloring
from ectarget.density import find_orientation, min_orientation
from ectarget.graphs import EdgeColoredGraph, Graph, OrientedGraph, VertexColoring, smallest_last_order
from ectarget.out_coloring import (
    TargetNotUniversal,
    _degeneracy_greedy,
    build_out_coloring,
    out_coloring_from_universal,
    serialize_certificate,
    verify_out_coloring,
)
from ectarget.universal import build_universal, min_universal_size
from helpers import (
    acceptance_corpus,
    aux_triples,
    clique,
    each_aux_triple,
    grid,
    pair_list_out_coloring,
    path,
    random_graph,
    scan_degeneracy_greedy,
    stacked_triangulation,
    transpose,
    tuple_key_smallest_last_order,
    two_stage_palette,
    verify_in_coloring,
)


def directed_path(n):
    g = path(n)
    return OrientedGraph(g, {(i, i + 1): (i, i + 1) for i in range(n - 1)})


def test_out_coloring_rejects_grandparent_conflict():
    og = directed_path(3)
    assert not verify_out_coloring(og, VertexColoring(2, [1, 2, 1]))


def test_out_coloring_rejects_parent_conflict():
    g = Graph(3, [(0, 2), (1, 2)])
    og = OrientedGraph(g, {(0, 2): (0, 2), (1, 2): (1, 2)})
    assert not verify_out_coloring(og, VertexColoring(2, [1, 1, 2]))


def test_out_coloring_accepts_rainbow_path():
    assert verify_out_coloring(directed_path(3), VertexColoring(3, [1, 2, 3]))


def test_out_coloring_rejects_improper():
    og = directed_path(2)
    assert not verify_out_coloring(og, VertexColoring(1, [1, 1]))


@given(oriented_with_coloring(max_n=7))
@settings(max_examples=200)
def test_out_coloring_equals_in_coloring_of_transpose(pair):
    og, col = pair
    assert verify_out_coloring(og, col) == verify_in_coloring(transpose(og), col)


@given(oriented_with_coloring(max_n=7))
@settings(max_examples=200)
def test_out_colorings_are_star_colorings(pair):
    og, col = pair
    if verify_out_coloring(og, col):
        assert verify_star(og.graph, col)
        assert verify_acyclic(og.graph, col)


def test_build_out_coloring_single_edge():
    og = directed_path(2)
    cert = build_out_coloring(og, VertexColoring(2, [1, 2]))
    assert cert.coloring.palette == 2
    assert verify_out_coloring(og, cert.coloring)


def test_build_out_coloring_shared_child_uses_rule_one():
    # two parents of one vertex with equal star colors trigger rule R1
    g = Graph(3, [(0, 2), (1, 2)])
    og = OrientedGraph(g, {(0, 2): (0, 2), (1, 2): (1, 2)})
    cert = build_out_coloring(og, VertexColoring(2, [1, 1, 2]))
    rules = set(cert.rule_counts)
    assert rules == {"R1"}
    assert cert.coloring[0] != cert.coloring[1]
    assert verify_out_coloring(og, cert.coloring)


def test_build_out_coloring_path_uses_rule_two():
    og = directed_path(3)
    cert = build_out_coloring(og, VertexColoring(2, [1, 2, 1]))
    rules = set(cert.rule_counts)
    assert rules == {"R2"}
    # the rule forces the endpoints of the 2-path apart
    assert cert.coloring[0] != cert.coloring[2]
    assert verify_out_coloring(og, cert.coloring)


def test_build_out_coloring_edgeless():
    og = OrientedGraph(Graph(4), {})
    cert = build_out_coloring(og, VertexColoring(1, [1, 1, 1, 1]))
    assert cert.coloring.palette == 1
    assert cert.rule_counts == {}


def test_build_out_coloring_rejects_non_star_coloring():
    og = directed_path(4)
    with pytest.raises(ValueError, match="star"):
        build_out_coloring(og, VertexColoring(2, [1, 2, 1, 2]))


def test_build_out_coloring_budgets_on_pipeline():
    for n, seed in [(12, 0), (20, 1), (30, 2)]:
        g = stacked_triangulation(n, seed)
        d, og = min_orientation(g)
        star = greedy_star_coloring(g, seed=seed)
        cert = build_out_coloring(og, star)
        d_used = og.max_in_degree
        s = star.palette
        assert cert.budget == 2 * d_used * s * s
        assert cert.coloring.palette <= cert.budget
        rules, heads = aux_triples(og, star)
        assert cert.rule_counts == rules
        if heads:
            assert max(heads.values()) <= d_used * (s - 1)
        assert verify_out_coloring(og, cert.coloring)


@given(oriented_graphs(max_n=8))
@settings(max_examples=200)
def test_rule_counts_match_the_rule_definitions(og):
    star = greedy_star_coloring(og.graph)
    cert = build_out_coloring(og, star)
    rules, _ = aux_triples(og, star)
    assert cert.rule_counts == rules
    assert verify_out_coloring(og, cert.coloring)


@given(oriented_graphs(max_n=8))
@settings(max_examples=200)
def test_emitted_palette_is_at_most_the_two_stage_palette(og):
    star = greedy_star_coloring(og.graph)
    cert = build_out_coloring(og, star)
    assert cert.coloring.palette <= two_stage_palette(og, star) <= cert.budget
    assert verify_in_coloring(transpose(og), cert.coloring)


def test_fitted_palette_never_exceeds_the_two_stage_palette_on_the_corpus():
    for name, graph in acceptance_corpus():
        _, og = min_orientation(graph)
        star = greedy_star_coloring(graph, seed=0)
        assert build_out_coloring(og, star).coloring.palette <= two_stage_palette(og, star), name


@pytest.mark.parametrize(
    "graph, d",
    [pytest.param(stacked_triangulation(n, seed), 3, id=f"tri{n}-{seed}") for n in (30, 100, 300) for seed in range(5)]
    + [pytest.param(grid(r, c), d, id=f"grid{r}x{c}-d{d}") for r, c in ((4, 4), (6, 9), (12, 12)) for d in (2, 3)],
)
def test_palette_at_a_header_in_degree_never_exceeds_the_two_stage_palette(graph, d):
    # map --target orients at the header's d, not at the least feasible one
    og = find_orientation(graph, d)
    star = greedy_star_coloring(graph, seed=0)
    assert build_out_coloring(og, star).coloring.palette <= two_stage_palette(og, star)


@pytest.mark.parametrize("n, seed", [(60, 7), (1500, 4)])
def test_direct_coloring_fits_triangulations_in_ten_colors(n, seed):
    # the two-stage construction alone needs 17 and 35 colors here
    g = stacked_triangulation(n, seed)
    _, og = min_orientation(g)
    star = greedy_star_coloring(g, seed=0)
    cert = build_out_coloring(og, star)
    assert cert.coloring.palette == 10
    assert two_stage_palette(og, star) == {60: 17, 1500: 35}[n]
    assert cert.budget == 2 * og.max_in_degree * star.palette**2


@st.composite
def adjacency_dicts(draw):
    """(n, adjacency, max_colors) with relabeled vertices, some isolated
    vertices left out of the dict, and either random edges or disjoint equal
    cliques, where every vertex ties on degree."""
    n = draw(st.integers(0, 30))
    if draw(st.booleans()):
        pairs = list(combinations(range(n), 2))
        edges = draw(st.sets(st.sampled_from(pairs), max_size=60)) if pairs else set()
    else:
        size = draw(st.integers(1, 5))
        edges = {(u, v) for u, v in combinations(range(n), 2) if u // size == v // size}
    label = draw(st.permutations(range(n)))
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[label[u]].add(label[v])
        adjacency[label[v]].add(label[u])
    for v in range(n):
        if not adjacency[v] and draw(st.booleans()):
            del adjacency[v]
    return n, adjacency, draw(st.integers(1, 6))


@given(adjacency_dicts())
@settings(max_examples=300)
def test_heap_order_colors_exactly_as_the_scan(case):
    n, adjacency, max_colors = case
    try:
        expected = scan_degeneracy_greedy(n, adjacency, max_colors)
    except AssertionError:
        with pytest.raises(AssertionError, match=f"exceeded {max_colors} colors"):
            _degeneracy_greedy([adjacency.get(v, set()) for v in range(n)], max_colors)
    else:
        assert _degeneracy_greedy([adjacency.get(v, set()) for v in range(n)], max_colors) == expected


@pytest.mark.parametrize("kind", ["path", "edgeless"])
def test_smallest_last_order_on_twenty_thousand_vertices_is_fast(kind):
    n = 20000
    if kind == "path":
        adjacency = {v: {u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)}
    else:
        adjacency = {}
    start = time.perf_counter()
    colors = _degeneracy_greedy([adjacency.get(v, set()) for v in range(n)], 2)
    assert time.perf_counter() - start < 2.0
    assert len(colors) == n
    assert max(colors) == (2 if kind == "path" else 1)


@given(adjacency_dicts())
@settings(max_examples=300)
def test_smallest_last_order_matches_the_tuple_key_heap(case):
    n, adjacency, _ = case
    adjacency = [adjacency.get(v, set()) for v in range(n)]
    assert smallest_last_order(adjacency) == tuple_key_smallest_last_order(adjacency)


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_smallest_last_order_matches_the_tuple_key_heap_on_ties(n):
    """Edgeless graphs, paths, disjoint equal cliques and a random graph, on
    their own vertex ids and relabeled, where many vertices tie on degree."""
    graphs = [Graph(n), path(n), random_graph(n, 0.1, random.Random(n))]
    for size in (2, 3, 5):
        graphs.append(Graph(n, [(u, v) for u, v in combinations(range(n), 2) if u // size == v // size]))
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    for label in (range(n), shuffled):
        for g in graphs:
            adjacency = [set() for _ in range(n)]
            for u, v in g.edges:
                adjacency[label[u]].add(label[v])
                adjacency[label[v]].add(label[u])
            assert smallest_last_order(adjacency) == tuple_key_smallest_last_order(adjacency)


def graph_adjacency(g):
    adjacency = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def path_and_k6(path_first):
    """A 5-vertex path and a disjoint K6: once the path is gone the least
    degree jumps from 0 to 5, so the search climbs five empty buckets."""
    path_at, clique_at = (0, 5) if path_first else (6, 0)
    edges = [(path_at + i, path_at + i + 1) for i in range(4)]
    edges += [(clique_at + u, clique_at + v) for u, v in combinations(range(6), 2)]
    return graph_adjacency(Graph(11, edges))


@pytest.mark.parametrize(
    "adjacency",
    [
        [],
        [set() for _ in range(6)],
        graph_adjacency(Graph(8, [(0, v) for v in range(1, 8)])),
        graph_adjacency(Graph(8, [(7, v) for v in range(7)])),
        path_and_k6(path_first=True),
        path_and_k6(path_first=False),
    ],
    ids=["empty", "isolated", "star-center-first", "star-center-last", "path-then-k6", "k6-then-path"],
)
def test_smallest_last_order_matches_the_tuple_key_heap_on_edge_cases(adjacency):
    assert smallest_last_order(adjacency) == tuple_key_smallest_last_order(adjacency)


def test_smallest_last_order_keeps_a_few_words_per_vertex_and_edge(monkeypatch):
    """Buckets hold ids that already exist, one list slot per entry. The
    tuple-key heap's tuples come from the interpreter's free list, which
    tracemalloc does not see, so the bound is absolute: a heap allocating
    one fresh int key per entry (about 60 KiB here) does not fit under it."""
    g = stacked_triangulation(220, 0)
    calls = []
    recording_greedy(monkeypatch, calls)
    build_out_coloring(find_orientation(g, 3), greedy_star_coloring(g))
    [conflicts] = calls
    entries = len(conflicts) + sum(map(len, conflicts)) // 2
    tracemalloc.start()
    try:
        order = smallest_last_order(conflicts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == tuple_key_smallest_last_order(conflicts)
    assert peak <= 24 * entries


@st.composite
def oriented_with_star(draw):
    """A random oriented graph with a greedy star coloring of a drawn seed."""
    oriented = draw(oriented_graphs(max_n=14))
    return oriented, greedy_star_coloring(oriented.graph, seed=draw(st.integers(0, 1000)))


@given(oriented_with_star())
@settings(max_examples=300)
def test_build_out_coloring_matches_the_pair_list_construction(case):
    oriented, star = case
    cert = build_out_coloring(oriented, star)
    reference = pair_list_out_coloring(oriented, star)
    assert cert.coloring == reference.coloring
    assert cert.budget == reference.budget
    assert list(cert.rule_counts.items()) == list(reference.rule_counts.items())


def aux_adjacency(oriented, star):
    """The undirected R1/R2 auxiliary graph as a list of neighbor sets."""
    adjacency = [set() for _ in range(oriented.graph.n)]
    for _, b, a in each_aux_triple(oriented, star):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def recording_greedy(monkeypatch, calls, shift_first=0):
    """Patch out_coloring._degeneracy_greedy to record each adjacency it is
    given, adding shift_first to every color of the first call's answer."""
    greedy = out_coloring._degeneracy_greedy

    def record(adjacency, max_colors):
        colors = greedy(adjacency, max_colors)
        shift = shift_first if not calls else 0
        calls.append(adjacency)
        return [c + shift for c in colors]

    monkeypatch.setattr(out_coloring, "_degeneracy_greedy", record)


@given(oriented_with_star())
@settings(max_examples=300)
def test_the_auxiliary_graph_is_the_conflict_graph_within_each_star_color(case):
    oriented, star = case
    assume(oriented.max_in_degree > 0)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        recording_greedy(mp, calls)
        build_out_coloring(oriented, star)
    # the direct coloring fits the budget here (at most 14 vertices, and
    # 2*d*s*s >= 16 once d >= 2), so one greedy call and no auxiliary sets
    [conflicts] = calls
    col = star.assign
    same = [{a for a in near if col[a] == col[x]} for x, near in enumerate(conflicts)]
    assert same == aux_adjacency(oriented, star)


@given(oriented_with_star())
@settings(max_examples=200)
def test_a_direct_coloring_above_the_budget_falls_back_to_the_two_stage_one(case):
    oriented, star = case
    assume(oriented.max_in_degree > 0)
    n, d, s = oriented.graph.n, oriented.max_in_degree, star.palette
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        recording_greedy(mp, calls, shift_first=2 * d * s * s)
        cert = build_out_coloring(oriented, star)
    assert len(calls) == 2
    aux = scan_degeneracy_greedy(n, dict(enumerate(aux_adjacency(oriented, star))), 2 * d * s)
    tuples = [(star[v], aux[v]) for v in range(n)]
    ranks = {t: i + 1 for i, t in enumerate(sorted(set(tuples)))}
    assert cert.coloring == VertexColoring(len(ranks), [ranks[t] for t in tuples])
    assert cert.budget == 2 * d * s * s
    reference = pair_list_out_coloring(oriented, star)
    assert list(cert.rule_counts.items()) == list(reference.rule_counts.items())
    assert verify_out_coloring(oriented, cert.coloring)


# sha256 of the certificate file and the rule_counts repr, recorded from the
# construction over a pair list and dicts of sets
TRIANGULATION_CERTIFICATES = {
    0: "645ba235f1f51868b4b7a4be130399d771ce99e0eae3e6141ae34246940e4483",
    1: "06f8efcbbe974522322e9afc4bee55709d4d7be25abeb89d67d3d8e193e3b5f0",
    2: "fdca9c1612fe51fa2e72fc8ab663b75517365a93190a44e17305bce6463ca63f",
}


@pytest.mark.parametrize("seed", sorted(TRIANGULATION_CERTIFICATES))
def test_out_coloring_of_a_large_triangulation_is_pinned(seed):
    graph = stacked_triangulation(1500, seed)
    _, oriented = min_orientation(graph)
    cert = build_out_coloring(oriented, greedy_star_coloring(graph, seed=seed))
    text = serialize_certificate(cert) + repr(cert.rule_counts)
    assert hashlib.sha256(text.encode()).hexdigest() == TRIANGULATION_CERTIFICATES[seed]


def test_certificate_serialization_header():
    og = directed_path(3)
    cert = build_out_coloring(og, VertexColoring(2, [1, 2, 1]))
    text = serialize_certificate(cert)
    header = text.splitlines()[0]
    assert '"budget"' in header and '"rule_counts"' in header
    assert len(text.splitlines()) == 1 + 3


def test_reverse_construction_single_edge():
    og = directed_path(2)
    size, target = min_universal_size([Graph(2, [(0, 1)])], k=2, p_max=3)
    assert size == 3
    cert = out_coloring_from_universal(og, target, 2)
    assert verify_out_coloring(og, cert.coloring)
    assert cert.budget == (2 * 1 + 1) * 3  # d=1, one digit coloring
    assert cert.coloring.palette <= cert.budget


def test_reverse_construction_in_degree_two():
    g = path(3)
    og = OrientedGraph(g, {(0, 1): (0, 1), (1, 2): (2, 1)})  # both edges into 1
    size, target = min_universal_size([g], k=2, p_max=3)
    assert size == 3
    cert = out_coloring_from_universal(og, target, 2)
    assert verify_out_coloring(og, cert.coloring)
    assert cert.budget == (2 * 2 + 1) * 3
    assert cert.coloring.palette <= cert.budget


def test_reverse_construction_edgeless():
    og = OrientedGraph(Graph(3), {})
    target = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1})
    cert = out_coloring_from_universal(og, target, 2)
    assert cert.coloring.palette == 1
    assert verify_out_coloring(og, cert.coloring)


def test_reverse_construction_reports_non_universal_target():
    og = directed_path(2)
    bad = EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 2})
    with pytest.raises(TargetNotUniversal) as exc_info:
        out_coloring_from_universal(og, bad, 2)
    # the witness is the derived coloring that found no homomorphism
    assert exc_info.value.witness.color == {(0, 1): 1}


def test_reverse_construction_triangle_against_tuple_target():
    g = clique(3)
    og = OrientedGraph(g, {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 2)})
    assert og.max_in_degree == 2
    target = build_universal(3, 1, 2).to_edge_colored_graph()
    cert = out_coloring_from_universal(og, target, 2)
    assert verify_out_coloring(og, cert.coloring)
    assert cert.budget == (2 * 2 + 1) * target.graph.n
    assert cert.coloring.palette <= cert.budget
