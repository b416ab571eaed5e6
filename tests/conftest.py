import os
import sys
from itertools import combinations

import hypothesis.strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from ectarget.graphs import EdgeColoredGraph, Graph, OrientedGraph, VertexColoring


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = set()
    return Graph(n, edges)


@st.composite
def edge_colored_graphs(draw, min_n=1, max_n=7, max_k=4):
    graph = draw(graphs(min_n=min_n, max_n=max_n))
    k = draw(st.integers(2, max_k))
    color = {e: draw(st.integers(1, k)) for e in graph.edges}
    return EdgeColoredGraph(graph, k, color)


@st.composite
def oriented_graphs(draw, min_n=1, max_n=8):
    graph = draw(graphs(min_n=min_n, max_n=max_n))
    direction = {}
    for u, v in graph.edges:
        direction[(u, v)] = (u, v) if draw(st.booleans()) else (v, u)
    return OrientedGraph(graph, direction)


@st.composite
def colorings_for(draw, graph, max_palette=4):
    palette = draw(st.integers(1, max_palette))
    assign = [draw(st.integers(1, palette)) for _ in range(graph.n)]
    return VertexColoring(palette, assign)


@st.composite
def oriented_with_coloring(draw, max_n=7, max_palette=4):
    oriented = draw(oriented_graphs(max_n=max_n))
    coloring = draw(colorings_for(oriented.graph, max_palette=max_palette))
    return oriented, coloring


@st.composite
def graph_with_coloring(draw, max_n=8, max_palette=4):
    graph = draw(graphs(max_n=max_n))
    coloring = draw(colorings_for(graph, max_palette=max_palette))
    return graph, coloring
