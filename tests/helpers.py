"""Shared test fixtures: graph families, random corpora, brute-force oracles.

The oracles here deliberately avoid the library's own algorithms so they can
serve as independent ground truth: density by subset enumeration, orientation
existence by pruned exhaustive assignment, star validity by the
every-bicolored-component-is-a-star characterization.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ectarget.graphs import EdgeColoredGraph, Graph, VertexColoring


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------


def clique(t: int) -> Graph:
    return Graph(t, itertools.combinations(range(t), 2))


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def subdivided_clique(t: int) -> Graph:
    """Clique on t vertices with every edge subdivided exactly once."""
    pairs = list(itertools.combinations(range(t), 2))
    edges = []
    for i, (u, v) in enumerate(pairs):
        mid = t + i
        edges.append((u, mid))
        edges.append((v, mid))
    return Graph(t + len(pairs), edges)


def stacked_triangulation(n: int, seed: int) -> Graph:
    """Random maximal planar graph grown by splitting faces of a triangle."""
    assert n >= 3
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {tuple(sorted((a, v))), tuple(sorted((b, v))), tuple(sorted((c, v)))}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_coloring(graph: Graph, k: int, rng: random.Random) -> EdgeColoredGraph:
    return EdgeColoredGraph(graph, k, {e: rng.randint(1, k) for e in graph.sorted_edges})


def acceptance_corpus() -> list:
    """Thirty named graphs: triangulations, grids, cliques, subdivided cliques."""
    corpus = []
    sizes = [8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 50]
    for i, n in enumerate(sizes):
        corpus.append((f"triangulation-{n}", stacked_triangulation(n, seed=100 + i)))
    for rows, cols in [(2, 5), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)]:
        corpus.append((f"grid-{rows}x{cols}", grid(rows, cols)))
    for t in range(2, 8):
        corpus.append((f"clique-{t}", clique(t)))
    for t in range(3, 9):
        corpus.append((f"subdivided-clique-{t}", subdivided_clique(t)))
    assert len(corpus) == 30
    return corpus


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def edges_within(graph: Graph, vertices) -> int:
    inside = set(vertices)
    return sum(1 for u, v in graph.edges if u in inside and v in inside)


def brute_density(graph: Graph) -> Fraction:
    """Maximum |E'| / |V'| by enumerating every nonempty vertex subset."""
    best = Fraction(0)
    vertices = list(range(graph.n))
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(vertices, size):
            ratio = Fraction(edges_within(graph, subset), size)
            if ratio > best:
                best = ratio
    return best


def brute_witness(graph: Graph) -> tuple:
    """Union of every nonempty vertex subset whose ratio equals brute_density."""
    best = brute_density(graph)
    union = set()
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            if Fraction(edges_within(graph, subset), size) == best:
                union.update(subset)
    return tuple(sorted(union))


def orientation_exists_bruteforce(graph: Graph, d: int) -> bool:
    """Complete search over edge head assignments with in-degree pruning."""
    edges = graph.sorted_edges
    in_deg = [0] * graph.n
    capacity_left = d * graph.n

    def rec(i: int, remaining: int) -> bool:
        if remaining > capacity_left - sum(in_deg):
            return False
        if i == len(edges):
            return True
        u, v = edges[i]
        for head in (u, v):
            if in_deg[head] < d:
                in_deg[head] += 1
                if rec(i + 1, remaining - 1):
                    in_deg[head] -= 1
                    return True
                in_deg[head] -= 1
        return False

    return rec(0, len(edges))


def star_ok_by_components(graph: Graph, coloring: VertexColoring) -> bool:
    """Star-coloring check via components: proper, and every bicolored
    component has at most one vertex of degree two or more."""
    if len(coloring) != graph.n:
        return False
    if any(coloring[u] == coloring[v] for u, v in graph.edges):
        return False
    palettes = sorted({coloring[v] for v in range(graph.n)})
    for a, b in itertools.combinations(palettes, 2):
        keep = [v for v in range(graph.n) if coloring[v] in (a, b)]
        keep_set = set(keep)
        adj = {v: [] for v in keep}
        for u, v in graph.edges:
            if u in keep_set and v in keep_set:
                adj[u].append(v)
                adj[v].append(u)
        seen = set()
        for start in keep:
            if start in seen:
                continue
            component = []
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                component.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if sum(1 for v in component if len(adj[v]) >= 2) > 1:
                return False
    return True
