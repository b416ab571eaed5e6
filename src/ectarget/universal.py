"""Universal targets over structured tuples, with homomorphisms and oracles.

A target with parameters (q, d, k) is the complete k-edge-colored graph whose
vertices are the (q+1)-tuples (i, x_1, ..., x_q) with i in 1..q, every x_j in
1..k, and at most d of the x_j different from k. The color of the edge
between two distinct tuples u and v is min(v[u[0]], u[v[0]]): each endpoint's
leading coordinate selects one coordinate of the other.

Vertex ids follow the lexicographic order of the tuples. Ranking and
unranking use precomputed prefix counts, so colors and homomorphism images
are available without materializing the vertex list; explicit enumeration is
lazy and guarded.

The module also hosts the search oracles: complete backtracking homomorphism
search, exhaustive universality checking over all k-edge-colorings of a
graph, and exhaustive minimum-universal-target search over tiny instances.
"""

from __future__ import annotations

import itertools
import math

from .graphs import (
    EdgeColoredGraph,
    Graph,
    GuardExceeded,
    Homomorphism,
    OrientedGraph,
    VertexColoring,
)
from .out_coloring import verify_out_coloring


def edge_color(u: tuple, v: tuple) -> int:
    """Color between two distinct target tuples; symmetric in its arguments."""
    if u == v:
        raise ValueError("no loops: target tuples must differ")
    return min(v[u[0]], u[v[0]])


class UniversalTarget:
    """Complete k-edge-colored target over the (q, d, k) tuple vertex set."""

    def __init__(self, q: int, d: int, k: int, materialize_guard: int = 10**6):
        if q < 1:
            raise ValueError(f"palette q must be at least 1, got {q}")
        if k < 2:
            raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
        if d < 0:
            raise ValueError(f"in-degree bound must be nonnegative, got {d}")
        self.q = q
        self.k = k
        self.d = min(d, q)  # at most q coordinates exist
        self.materialize_guard = materialize_guard
        # counts[t][r] = number of length-t suffixes with at most r non-k entries
        counts = []
        for t in range(q + 1):
            row = []
            for r in range(self.d + 1):
                row.append(
                    sum(math.comb(t, j) * (k - 1) ** j for j in range(min(r, t) + 1))
                )
            counts.append(row)
        self._counts = counts
        self.block = counts[q][self.d]
        self.vertex_count = q * self.block
        self._vertices = None

    def __repr__(self):
        return f"UniversalTarget(q={self.q}, d={self.d}, k={self.k}, vertices={self.vertex_count})"

    def header(self) -> dict:
        return {"q": self.q, "d": self.d, "k": self.k}

    def _suffix_count(self, length: int, budget: int) -> int:
        if budget < 0:
            return 0
        return self._counts[length][min(budget, self.d)]

    def is_vertex(self, vertex: tuple) -> bool:
        if len(vertex) != self.q + 1 or not (1 <= vertex[0] <= self.q):
            return False
        if any(not (1 <= x <= self.k) for x in vertex[1:]):
            return False
        return sum(1 for x in vertex[1:] if x != self.k) <= self.d

    def rank(self, vertex: tuple) -> int:
        """Lexicographic id of a tuple vertex."""
        if not self.is_vertex(vertex):
            raise ValueError(f"not a vertex of this target: {vertex!r}")
        acc = (vertex[0] - 1) * self.block
        budget = self.d
        for t in range(1, self.q + 1):
            x = vertex[t]
            if x > 1:
                acc += (x - 1) * self._suffix_count(self.q - t, budget - 1)
            if x != self.k:
                budget -= 1
        return acc

    def unrank(self, idx: int) -> tuple:
        """Tuple vertex with the given lexicographic id."""
        if not (0 <= idx < self.vertex_count):
            raise ValueError(f"vertex id {idx} outside 0..{self.vertex_count - 1}")
        lead, rem = divmod(idx, self.block)
        out = [lead + 1]
        budget = self.d
        for t in range(1, self.q + 1):
            for x in range(1, self.k + 1):
                if x == self.k:
                    cnt = self._suffix_count(self.q - t, budget)
                else:
                    cnt = self._suffix_count(self.q - t, budget - 1)
                if rem < cnt:
                    out.append(x)
                    if x != self.k:
                        budget -= 1
                    break
                rem -= cnt
            else:
                raise AssertionError("unrank walked past the digit range")
        return tuple(out)

    def _generate(self):
        prefix = [0] * self.q

        def emit(t, budget):
            if t == self.q:
                yield tuple(prefix)
                return
            for x in range(1, self.k + 1):
                cost = 0 if x == self.k else 1
                if budget - cost < 0:
                    continue
                prefix[t] = x
                yield from emit(t + 1, budget - cost)

        for lead in range(1, self.q + 1):
            for xs in emit(0, self.d):
                yield (lead,) + xs

    @property
    def vertices(self) -> tuple:
        """All tuple vertices in lexicographic order (materialized lazily)."""
        if self._vertices is None:
            if self.vertex_count > self.materialize_guard:
                raise GuardExceeded(
                    f"enumerating {self.vertex_count} vertices exceeds the guard "
                    f"of {self.materialize_guard}"
                )
            self._vertices = tuple(self._generate())
            if len(self._vertices) != self.vertex_count:
                raise AssertionError("vertex enumeration disagrees with the closed form")
        return self._vertices

    def to_edge_colored_graph(self, vertex_guard: int = 1000) -> EdgeColoredGraph:
        """Explicit complete edge-colored graph; only sensible for small targets."""
        if self.vertex_count > vertex_guard:
            raise GuardExceeded(
                f"explicit target with {self.vertex_count} vertices exceeds the guard "
                f"of {vertex_guard}"
            )
        vs = self.vertices
        p = len(vs)
        edges = {}
        for a in range(p):
            for b in range(a + 1, p):
                edges[(a, b)] = edge_color(vs[a], vs[b])
        return EdgeColoredGraph(Graph(p, edges.keys()), self.k, edges)


def build_universal(q: int, d: int, k: int, materialize_guard: int = 10**6) -> UniversalTarget:
    """Target with parameters (q, d, k); d is capped at q."""
    return UniversalTarget(q, d, k, materialize_guard=materialize_guard)


def build_homomorphism(
    source: EdgeColoredGraph,
    oriented: OrientedGraph,
    out_col: VertexColoring,
    target: UniversalTarget,
) -> Homomorphism:
    """Map a k-edge-colored graph into a tuple target along an out-coloring.

    Vertex u goes to (f(u), x_1, ..., x_q) where f is the out-coloring and
    x_i records the color of the edge to u's parent colored i, defaulting to
    k when no such parent exists. Condition C2 makes the parent colored i
    unique, C1 separates endpoints, and C3 guarantees the matching coordinate
    of the parent side stays k, so edge colors are preserved.
    """
    graph = source.graph
    if oriented.graph != graph:
        raise ValueError("orientation is over a different graph than the source")
    if source.k != target.k:
        raise ValueError(f"edge palette mismatch: source k={source.k}, target k={target.k}")
    if len(out_col) != graph.n:
        raise ValueError("out-coloring must assign a color to every vertex")
    if not verify_out_coloring(oriented, out_col):
        raise ValueError("coloring is not an out-coloring of the orientation")
    if out_col.palette > target.q:
        raise ValueError(
            f"out-coloring palette {out_col.palette} exceeds target q={target.q}"
        )
    if oriented.max_in_degree > target.d:
        raise ValueError(
            f"orientation in-degree {oriented.max_in_degree} exceeds target d={target.d}"
        )
    k = target.k
    images = []
    for u in range(graph.n):
        xs = [k] * target.q
        for parent in oriented.parents(u):
            xs[out_col[parent] - 1] = source.edge_color(u, parent)
        images.append(target.rank((out_col[u], *xs)))
    return Homomorphism(images)


def verify_homomorphism(source: EdgeColoredGraph, target, hom: Homomorphism) -> bool:
    """True iff every source edge maps to a target edge of the same color.

    The target may be an explicit EdgeColoredGraph or a UniversalTarget.
    """
    graph = source.graph
    if len(hom) != graph.n:
        raise ValueError("homomorphism must be total over the source vertices")
    if isinstance(target, UniversalTarget):
        tuples = [target.unrank(i) for i in hom.mapping]
        for u, v in graph.edges:
            tu, tv = tuples[u], tuples[v]
            if tu == tv or edge_color(tu, tv) != source.edge_color(u, v):
                return False
        return True
    tgraph = target.graph
    for i in hom.mapping:
        if not (0 <= i < tgraph.n):
            raise ValueError(f"image {i} is not a target vertex id")
    for u, v in graph.edges:
        hu, hv = hom[u], hom[v]
        if hu == hv or not tgraph.has_edge(hu, hv):
            return False
        if target.edge_color(hu, hv) != source.edge_color(u, v):
            return False
    return True


def find_homomorphism(
    source: EdgeColoredGraph,
    target,
    source_guard: int = 12,
    target_guard: int = 64,
) -> Homomorphism | None:
    """Complete backtracking search for a homomorphism, or None.

    Source vertices are assigned in descending degree order, candidates in
    ascending id order, with forward checking against the colored adjacency
    of already-assigned neighbors. Guards bound both graph sizes.
    """
    if isinstance(target, UniversalTarget):
        if target.vertex_count > target_guard:
            raise GuardExceeded(
                f"target size {target.vertex_count} exceeds the search guard {target_guard}"
            )
        target = target.to_edge_colored_graph(vertex_guard=target_guard)
    graph = source.graph
    tgraph = target.graph
    if graph.n > source_guard:
        raise GuardExceeded(f"source size {graph.n} exceeds the search guard {source_guard}")
    if tgraph.n > target_guard:
        raise GuardExceeded(f"target size {tgraph.n} exceeds the search guard {target_guard}")
    by_color = [dict() for _ in range(tgraph.n)]
    for (a, b), c in target.color.items():
        by_color[a].setdefault(c, set()).add(b)
        by_color[b].setdefault(c, set()).add(a)
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    assigned = [-1] * graph.n
    all_targets = frozenset(range(tgraph.n))

    def candidates(v):
        domain = None
        for u in graph.neighbors(v):
            if assigned[u] < 0:
                continue
            allowed = by_color[assigned[u]].get(source.edge_color(u, v))
            if not allowed:
                return ()
            domain = allowed if domain is None else domain & allowed
        return sorted(all_targets if domain is None else domain)

    def viable(v, image):
        # forward check: every unassigned neighbor keeps at least one option
        for w in graph.neighbors(v):
            if assigned[w] >= 0:
                continue
            if not by_color[image].get(source.edge_color(v, w)):
                return False
        return True

    def rec(pos):
        if pos == graph.n:
            return True
        v = order[pos]
        for image in candidates(v):
            if not viable(v, image):
                continue
            assigned[v] = image
            if rec(pos + 1):
                return True
            assigned[v] = -1
        return False

    if rec(0):
        return Homomorphism(assigned)
    return None


def check_universal(
    target,
    graph: Graph,
    k: int,
    enumeration_guard: int = 10**6,
    source_guard: int = 12,
    target_guard: int = 64,
) -> EdgeColoredGraph | None:
    """First k-edge-coloring of the graph with no homomorphism, or None.

    Colorings are enumerated lexicographically over the sorted edge list, so
    a returned counterexample is the lexicographically least one.
    """
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    m = graph.m
    if k**m > enumeration_guard:
        raise GuardExceeded(
            f"enumerating {k}^{m} colorings exceeds the guard of {enumeration_guard}"
        )
    if isinstance(target, UniversalTarget):
        target = target.to_edge_colored_graph(vertex_guard=target_guard)
    edges = graph.sorted_edges
    for combo in itertools.product(range(1, k + 1), repeat=m):
        colored = EdgeColoredGraph(graph, k, dict(zip(edges, combo)))
        if find_homomorphism(colored, target, source_guard, target_guard) is None:
            return colored
    return None


def _canonical(assign, vertex_maps, color_maps) -> bool:
    for vmap in vertex_maps:
        for cmap in color_maps:
            # lazy lexicographic comparison of the transformed assignment
            for j, slot in enumerate(vmap):
                x = cmap[assign[slot]]
                if x != assign[j]:
                    if x < assign[j]:
                        return False
                    break
    return True


def min_universal_size(
    graphs,
    k: int = 2,
    p_max: int = 3,
    p_guard: int = 5,
    enumeration_guard: int = 10**6,
    source_guard: int = 12,
) -> tuple[int, EdgeColoredGraph] | None:
    """Smallest universal target for a list of graphs, by exhaustive search.

    Tries every k-edge-colored target on p = 1, 2, ... vertices (one
    representative per vertex/color symmetry class) until one admits all
    k-edge-colorings of every listed graph, and returns (p, target). Returns
    None when no target with at most p_max vertices works. Tiny instances
    only; the guard rejects p_max above p_guard.
    """
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    if p_max < 1:
        raise ValueError(f"p_max must be at least 1, got {p_max}")
    if p_max > p_guard:
        raise GuardExceeded(f"exhaustive target search guarded at p <= {p_guard}, got {p_max}")
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph to search against")
    for p in range(1, p_max + 1):
        pairs = list(itertools.combinations(range(p), 2))
        pair_index = {pair: i for i, pair in enumerate(pairs)}
        vertex_maps = []
        for perm in itertools.permutations(range(p)):
            vertex_maps.append(
                tuple(pair_index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
            )
        color_maps = [(0,) + perm for perm in itertools.permutations(range(1, k + 1))]
        for assign in itertools.product(range(k + 1), repeat=len(pairs)):
            if not _canonical(assign, vertex_maps, color_maps):
                continue
            edges = {pairs[i]: c for i, c in enumerate(assign) if c}
            candidate = EdgeColoredGraph(Graph(p, edges.keys()), k, edges)
            if all(
                check_universal(
                    candidate,
                    g,
                    k,
                    enumeration_guard=enumeration_guard,
                    source_guard=source_guard,
                    target_guard=max(p, 1),
                )
                is None
                for g in graphs
            ):
                return p, candidate
    return None
