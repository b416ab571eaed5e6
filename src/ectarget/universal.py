"""Universal targets over structured tuples, with homomorphisms and oracles.

A target with parameters (q, d, k) is the complete k-edge-colored graph whose
vertices are the (q+1)-tuples (i, x_1, ..., x_q) with i in 1..q, every x_j in
1..k, and at most d of the x_j different from k. The color of the edge
between two distinct tuples u and v is min(v[u[0]], u[v[0]]): each endpoint's
leading coordinate selects one coordinate of the other.

Vertex ids follow the lexicographic order of the tuples. A vertex is kept
in sparse form only: its lead and the at most d (position, value) pairs
where it differs from k. One table of suffix counts, stored by
budget, ranks that form in O(d) and unranks an id in O(d log q), and one
color rule applies to two sparse vertices, so homomorphism images and edge
colors never walk all q coordinates. The explicit graph of a small target
comes from the same _unrank and _color; no dense tuple is ever built.

The module also hosts the search oracles: fail-first backtracking homomorphism
search, exhaustive universality checking over all k-edge-colorings of a
graph, and exhaustive minimum-universal-target search over tiny instances,
which generates only the least candidate of each symmetry class.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .graphs import (
    LIMITS,
    EdgeColoredGraph,
    Graph,
    Homomorphism,
    Limits,
    OrientedGraph,
    VertexColoring,
    _check_ints,
)
from .out_coloring import verify_out_coloring


class UniversalTarget:
    """Complete k-edge-colored target over the (q, d, k) tuple vertex set."""

    def __init__(self, q: int, d: int, k: int, limits: Limits = LIMITS):
        _check_ints(q=q, d=d, k=k)
        if q < 1:
            raise ValueError(f"palette q must be at least 1, got {q}")
        if k < 2:
            raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
        if d < 0:
            raise ValueError(f"in-degree bound must be nonnegative, got {d}")
        self.q = q
        self.k = k
        self.d = min(d, q)  # at most q coordinates exist
        self.limits = limits
        # every count is at most (1 + q(k-1))^d; each entry also costs a
        # reference and an object header, counted as 32 bytes
        bits = self.d * (1 + q * (k - 1)).bit_length() + 1
        size = (q + 1) * (self.d + 1) * (32 + (bits + 7) // 8)
        limits.check("count_table_bytes", size, f"a count table of about {size} bytes")
        # cols[b][L] = number of length-L words over 1..k with at most b
        # letters other than k: the first letter is k or one of k - 1 others,
        # so cols[b][L] = cols[b][L-1] + (k-1)·cols[b-1][L-1], increasing in L
        cols = [[1] * (q + 1)]
        for _ in range(self.d):
            cols.append(list(itertools.accumulate(((k - 1) * c for c in itertools.islice(cols[-1], q)), initial=1)))
        self._cols = cols
        self.block = cols[self.d][q]
        self.vertex_count = q * self.block

    def __repr__(self):
        return f"UniversalTarget(q={self.q}, d={self.d}, k={self.k}, vertices={self.vertex_count})"

    def header(self) -> dict:
        return {"q": self.q, "d": self.d, "k": self.k}

    def _rank(self, lead: int, coords: list[tuple[int, int]]) -> int:
        """Id of the vertex with the given lead whose non-k coordinates are
        the (position, value) pairs coords, in increasing position order.

        Below a budget b, the (k-1)·cols[b-1][L-1] words that put a smaller
        letter than k first are cols[b][L] - cols[b][L-1], so the words
        skipped by a run of k's telescope to one difference per run.
        """
        cols = self._cols
        acc = (lead - 1) * self.block
        b, rest = self.d, self.q  # budget left, and coordinates from here on
        for p, x in coords:
            after = self.q - p
            acc += cols[b][rest] - cols[b][after + 1] + (x - 1) * cols[b - 1][after]
            b, rest = b - 1, after
        return acc + cols[b][rest] - 1  # k's to the end: the last word

    def _unrank(self, idx: int) -> tuple[int, dict]:
        """(lead, {position: value}) of the vertex with the given id, the
        non-k coordinates in increasing position order."""
        if not (0 <= idx < self.vertex_count):
            raise ValueError(f"vertex id {idx} outside 0..{self.vertex_count - 1}")
        lead, rem = divmod(idx, self.block)
        coords = {}
        b, rest = self.d, self.q
        while b:
            col = self._cols[b]
            # back counts the words from here on that do not come before this
            # one: it lies in (col[L-1], col[L]] when the next non-k letter is
            # L coordinates from the end, and is 1 when none is left
            back = col[rest] - rem
            length = bisect_left(col, back, 0, rest + 1)
            if length == 0:
                break
            x, rem = divmod(col[length] - back, self._cols[b - 1][length - 1])
            coords[self.q + 1 - length] = x + 1
            b, rest = b - 1, length - 1
        return lead + 1, coords

    def _color(self, a: tuple[int, dict], b: tuple[int, dict]) -> int:
        """Color of the edge between two distinct sparse vertices: each lead
        selects a coordinate of the other vertex, k where none is stored."""
        (la, ca), (lb, cb) = a, b
        return min(cb.get(la, self.k), ca.get(lb, self.k))

    def to_edge_colored_graph(self) -> EdgeColoredGraph:
        """Explicit complete edge-colored graph; only sensible for small targets."""
        p = self.vertex_count
        self.limits.check("explicit_vertices", p, f"explicit target with {p} vertices")
        vs = [self._unrank(i) for i in range(p)]
        edges = {(a, b): self._color(vs[a], vs[b]) for a in range(p) for b in range(a + 1, p)}
        return _explicit(p, self.k, edges)


def _explicit(p: int, k: int, edges: dict) -> EdgeColoredGraph:
    """Edge-colored graph on p vertices from a dict whose pairs a < b ascend,
    so it is already canonical and the trusted constructors may store it."""
    return EdgeColoredGraph._trusted(Graph._trusted(p, tuple(edges)), k, tuple(edges.values()))


def build_universal(q: int, d: int, k: int, limits: Limits = LIMITS) -> UniversalTarget:
    """Target with parameters (q, d, k); d is capped at q."""
    return UniversalTarget(q, d, k, limits)


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
        raise ValueError(f"out-coloring palette {out_col.palette} exceeds target q={target.q}")
    if oriented.max_in_degree > target.d:
        raise ValueError(f"orientation in-degree {oriented.max_in_degree} exceeds target d={target.d}")
    k, col = target.k, out_col.assign
    coords = [[] for _ in range(graph.n)]  # (out color of a parent, edge color) pairs
    for (u, v), head, c in zip(graph.edges, oriented.heads, source.colors):
        if c != k:
            coords[head].append((col[u if head == v else v], c))
    return Homomorphism(target._rank(col[u], sorted(pairs)) for u, pairs in enumerate(coords))


def verify_homomorphism(source: EdgeColoredGraph, target, hom: Homomorphism) -> bool:
    """True iff every source edge maps to a target edge of the same color.

    The target may be an explicit EdgeColoredGraph or a UniversalTarget; a
    target with another edge palette than the source is a ValueError.
    """
    graph = source.graph
    if len(hom) != graph.n:
        raise ValueError("homomorphism must be total over the source vertices")
    if source.k != target.k:
        raise ValueError(f"edge palette mismatch: source k={source.k}, target k={target.k}")
    edges = zip(graph.edges, source.colors)
    ids = hom.mapping
    if isinstance(target, UniversalTarget):
        sparse = [target._unrank(i) for i in ids]
        return all(ids[u] != ids[v] and target._color(sparse[u], sparse[v]) == c for (u, v), c in edges)
    for i in ids:
        if not (0 <= i < target.graph.n):
            raise ValueError(f"image {i} is not a target vertex id")
    # a pair that is no target edge, a loop included, has no color
    by_color = target.by_color
    return all(ids[v] in by_color[ids[u]].get(c, ()) for (u, v), c in edges)


def _search_target(target, source_n: int, limits: Limits) -> EdgeColoredGraph:
    """The target as an explicit graph, once both graph sizes pass the search limits."""
    tuples = isinstance(target, UniversalTarget)
    n = target.vertex_count if tuples else target.graph.n
    limits.check("search_target_n", n, f"search target of {n} vertices")
    limits.check("search_source_n", source_n, f"search source of {source_n} vertices")
    return target.to_edge_colored_graph() if tuples else target


_EMPTY = frozenset()


def _edge_slots(graph: Graph) -> list:
    """For each vertex, its (neighbor, index in graph.edges) pairs."""
    index = {e: i for i, e in enumerate(graph.edges)}
    return [[(w, index[min(v, w), max(v, w)]) for w in nbrs] for v, nbrs in enumerate(graph.adjacency)]


def _extend(slots, colors, by_color, domains, assigned) -> bool:
    """Fail-first search: True iff each vertex of domains (owned) can take an
    id from its set, written to assigned, with edge slot i colored colors[i].
    It branches on the vertex with the fewest ids (ties to the lower vertex)
    in ascending id order, and each choice narrows every neighbor still in
    domains, backing up when a set is empty (Haralick and Elliott 1980)."""
    if not domains:
        return True
    _, v = min(zip(map(len, domains.values()), domains))
    for image in sorted(domains.pop(v)):
        allowed = by_color[image]
        narrowed = dict(domains)
        for w, slot in slots[v]:
            if w in narrowed:
                narrowed[w] &= allowed.get(colors[slot], _EMPTY)
                if not narrowed[w]:
                    break
        else:
            assigned[v] = image
            if _extend(slots, colors, by_color, narrowed, assigned):
                return True
    return False


def find_homomorphism(source: EdgeColoredGraph, target, limits: Limits = LIMITS) -> Homomorphism | None:
    """Complete fail-first backtracking search (_extend) for a homomorphism,
    or None. An explicit target's colored adjacency is built once and reused
    by every later search into it; a tuple target is written out anew on
    each call. Limits bound both graph sizes, and a target with another edge
    palette than the source is a ValueError.
    """
    if source.k != target.k:
        raise ValueError(f"edge palette mismatch: source k={source.k}, target k={target.k}")
    graph = source.graph
    target = _search_target(target, graph.n, limits)
    assigned = [-1] * graph.n
    everything = frozenset(range(target.graph.n))
    if _extend(_edge_slots(graph), source.colors, target.by_color, dict.fromkeys(range(graph.n), everything), assigned):
        return Homomorphism(assigned)
    return None


def check_universal(
    target,
    graph: Graph,
    k: int,
    limits: Limits = LIMITS,
) -> EdgeColoredGraph | None:
    """First k-edge-coloring of the graph with no homomorphism, or None.

    Colorings are enumerated lexicographically over the sorted edge list, so
    a returned counterexample is the lexicographically least one. Each first
    repairs the last one's homomorphism, searching only the endpoints of the
    recolored edges, then searches from scratch. A k other than the target's
    edge palette is a ValueError.
    """
    _check_ints(k=k)
    if k != target.k:
        raise ValueError(f"edge palette mismatch: k={k}, target k={target.k}")
    m = graph.m
    # k >= 2, so k^m is above the limit exactly when this capped power is
    limits.check("colorings", k ** min(m, limits.colorings.bit_length()), f"enumerating {k}^{m} colorings")
    target = _search_target(target, graph.n, limits)
    edges = graph.edges
    slots = _edge_slots(graph)
    by_color = target.by_color
    everything = frozenset(range(target.graph.n))
    # frees[j]: each endpoint of edges[j:] with its slots to the other vertices
    frees = []
    for j in range(m + 1):
        free = set().union(*edges[j:])
        frees.append([(v, [(w, i) for w, i in slots[v] if w not in free]) for v in free])
    assigned = [0] * graph.n  # any image serves a vertex that no edge touches

    def search(j, colors):  # the endpoints of edges[j:] anew, every other vertex kept
        domains = {}
        for v, fixed in frees[j]:
            domain = everything
            for w, i in fixed:
                domain = domain & by_color[assigned[w]].get(colors[i], _EMPTY)
            domains[v] = domain
        return _extend(slots, colors, by_color, domains, assigned)

    for colors in itertools.product(range(1, k + 1), repeat=m):
        # this coloring recolors edges[j:] of the last one (all at first;
        # j = -1 only when m = 0, and frees[-1] = frees[m] is empty)
        j = m - 1
        while j > 0 and colors[j] == 1:
            j -= 1
        if not (search(j, colors) or j and search(0, colors)):
            return EdgeColoredGraph(graph, k, dict(zip(edges, colors)))
    return None


def _canonical_words(length: int, k: int, vertex_maps):
    """Lazily, in lexicographic order, each word over 0..k that no vertex map,
    its colors then relabeled in order of first appearance, makes smaller.

    Orderly generation (Read 1978): a depth-first walk over the words whose
    colors first appear in increasing order. Each prefix keeps the maps still
    tied with it, with the next image position j to compare and the relabeling
    so far (-1 for a color not yet seen). Image position j is fixed once
    assign[vmap[:j + 1]] is: a smaller one prunes the subtree, a larger one drops the map.
    """
    assign = [0] * length

    def grow(t, tied, top):
        if t == length:
            yield tuple(assign)
            return
        for x in range(min(top + 1, k) + 1):
            assign[t] = x
            still = []
            for entry in tied:
                vmap, j, relabel, labels = entry
                while j <= t and vmap[j] <= t:
                    c = assign[vmap[j]]
                    y = relabel[c]
                    if y < 0:
                        labels = y = labels + 1
                        relabel = relabel[:c] + (y,) + relabel[c + 1:]
                    if y != assign[j]:
                        break
                    j += 1
                else:  # still tied: a map with no new position keeps its entry
                    still.append(entry if j == entry[1] else (vmap, j, relabel, labels))
                    continue
                if y < assign[j]:
                    break
            else:
                yield from grow(t + 1, still, max(top, x))

    start = (0,) + (-1,) * min(k, length)  # a word has at most min(k, length) colors
    yield from grow(0, [(vmap, 0, start, 0) for vmap in vertex_maps], 0)


def min_universal_size(
    graphs,
    k: int = 2,
    p_max: int = 3,
    limits: Limits = LIMITS,
) -> tuple[int, EdgeColoredGraph] | None:
    """Smallest universal target for a list of graphs, by exhaustive search.

    Tries every k-edge-colored target on p = 1, 2, ... vertices (the least
    word of each vertex/color symmetry class, from _canonical_words) until
    one admits all k-edge-colorings of every listed graph, and returns
    (p, target). Returns None when no target with at most p_max vertices
    works. Tiny instances only; p_max above limits.min_target_p is refused.
    Each graph keeps the counterexamples its full checks returned, newest
    first, and a candidate meets them before the graph's next full check.
    """
    _check_ints(k=k, p_max=p_max)
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    if p_max < 1:
        raise ValueError(f"p_max must be at least 1, got {p_max}")
    limits.check("min_target_p", p_max, f"target search up to p={p_max}")
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph to search against")
    refuted = [[] for _ in graphs]
    for p in range(1, p_max + 1):
        pairs = list(itertools.combinations(range(p), 2))
        pair_index = {pair: i for i, pair in enumerate(pairs)}
        vertex_maps = [
            tuple(pair_index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
            for perm in itertools.permutations(range(p))
        ]
        for assign in _canonical_words(len(pairs), k, vertex_maps):
            candidate = _explicit(p, k, {pairs[i]: c for i, c in enumerate(assign) if c})
            for g, seen in zip(graphs, refuted):
                if any(find_homomorphism(c, candidate, limits) is None for c in seen):
                    break
                counterexample = check_universal(candidate, g, k, limits)
                if counterexample is not None:
                    seen.insert(0, counterexample)
                    break
            else:
                return p, candidate
    return None
