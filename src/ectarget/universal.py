"""Universal targets over structured tuples, with homomorphisms and oracles.

A target with parameters (q, d, k) is the complete k-edge-colored graph whose
vertices are the (q+1)-tuples (i, x_1, ..., x_q) with i in 1..q, every x_j in
1..k, and at most d of the x_j different from k. The color of the edge
between two distinct tuples u and v is min(v[u[0]], u[v[0]]): each endpoint's
leading coordinate selects one coordinate of the other.

Vertex ids follow the lexicographic order of the tuples. A vertex is kept
in sparse form only: its lead and the at most d (position, value) pairs
where it differs from k. One table of suffix counts, a column per
budget indexed by the position the suffix follows, ranks that form in O(d)
and unranks an id in O(d log q), and one color rule applies to two sparse
vertices, so homomorphism images and edge colors never walk all q
coordinates. A target starts with the count of every full-length word
alone, from the closed form, and appends to each column, at least doubling
its length, only up to the last position a query reaches;
count_table_bytes still bounds the table a query that reaches every
position grows it to. The explicit graph of a small target comes from the
same _unrank and _color; no dense tuple is ever built.

``build_homomorphism`` maps a source along an out-coloring of its
orientation, which it checks first with ``verify_out_coloring``, kept here.

The module also hosts the search oracles: fail-first backtracking homomorphism
search, exhaustive universality checking over the k-edge-colorings of a
graph, one per class under the graph's automorphisms, and exhaustive
minimum-universal-target search over tiny instances, which generates only the
least candidate of each symmetry class.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import neg

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
        # reference and an object header, counted as 32 bytes. This bounds
        # the table a target grows to when its queries reach every position.
        bits = self.d * (1 + q * (k - 1)).bit_length() + 1
        size = (q + 1) * (self.d + 1) * (32 + (bits + 7) // 8)
        limits.check("count_table_bytes", size, f"a count table of about {size} bytes")
        # cols[b][p] = number of words of length q - p over 1..k with at most
        # b letters other than k, sum of C(q - p, t)(k-1)^t over t <= b. Only
        # p = 0 is built here; _grow appends the positions a query reaches.
        term, count = 1, 0
        cols = []
        for t in range(self.d + 1):
            count += term
            cols.append([count])
            term = term * (q - t) // (t + 1) * (k - 1)
        self._cols = cols
        self.block = count
        self.vertex_count = q * count

    def __repr__(self):
        return f"UniversalTarget(q={self.q}, d={self.d}, k={self.k}, vertices={self.vertex_count})"

    def header(self) -> dict:
        return {"q": self.q, "d": self.d, "k": self.k}

    def _grow(self, p: int):
        """Append to every column up to position p or further, at least
        doubling its length, so each entry is computed once. The first letter
        of a word is k or one of k - 1 others, so
        cols[b][p] = cols[b][p-1] - (k-1)·cols[b-1][p]."""
        km, cols = self.k - 1, self._cols
        end = min(max(p + 1, 2 * len(cols[0])), self.q + 1)
        cols[0].extend([1] * (end - len(cols[0])))  # the all-k word alone
        for below, col in zip(cols, cols[1:]):
            c = col[-1]
            for i in range(len(col), end):
                c -= km * below[i]
                col.append(c)

    def _rank(self, lead: int, coords: list[tuple[int, int]]) -> int:
        """Id of the vertex with the given lead whose non-k coordinates are
        the (position, value) pairs coords, in increasing position order.

        Below a budget b, the (k-1)·cols[b-1][p] words that put a smaller
        letter than k at position p are cols[b][p-1] - cols[b][p], so the
        words skipped by a run of k's telescope to one difference per run.
        """
        cols = self._cols
        if coords and coords[-1][0] >= len(cols[0]):
            self._grow(coords[-1][0])
        acc = (lead - 1) * self.block
        b, rest = self.d, 0  # budget left, and the positions already placed
        for p, x in coords:
            acc += cols[b][rest] - cols[b][p - 1] + (x - 1) * cols[b - 1][p]
            b, rest = b - 1, p
        return acc + cols[b][rest] - 1  # k's to the end: the last word

    def _unrank(self, idx: int) -> tuple[int, dict]:
        """(lead, {position: value}) of the vertex with the given id, the
        non-k coordinates in increasing position order, each found by one
        bisection of its budget's column, which falls as the position grows."""
        if not (0 <= idx < self.vertex_count):
            raise ValueError(f"vertex id {idx} outside 0..{self.vertex_count - 1}")
        lead, rem = divmod(idx, self.block)
        coords = {}
        cols = self._cols
        b, rest = self.d, 0
        while b:
            # back counts the words after position rest that do not come
            # before this one: it lies in (col[p], col[p-1]] when the next
            # non-k letter is at position p, and is 1 when none is left
            col = cols[b]
            back = col[rest] - rem
            if back == 1:
                break
            while col[-1] >= back:  # ends by p = q, where col[q] = 1
                self._grow(len(col))
            p = bisect_right(col, -back, rest, key=neg)
            x, rem = divmod(col[p - 1] - back, cols[b - 1][p])
            coords[p] = x + 1
            b, rest = b - 1, p
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


def verify_out_coloring(oriented: OrientedGraph, coloring: VertexColoring) -> bool:
    """Check the out-coloring conditions C1, C2 and C3 (see ``out_coloring``)."""
    if len(coloring) != oriented.graph.n:
        return False
    col = coloring.assign
    for u, v in oriented.graph.edges:
        if col[u] == col[v]:
            return False
    parents = oriented.parents
    for v, ps in enumerate(parents):
        c = col[v]
        if len(ps) > 1 and len({col[p] for p in ps}) < len(ps):
            return False
        for p in ps:
            for gp in parents[p]:
                if col[gp] == c:
                    return False
    return True


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
    if _extend(graph.edge_slots, source.colors, target.by_color, dict.fromkeys(range(graph.n), everything), assigned):
        return Homomorphism(assigned)
    return None


def check_universal(
    target,
    graph: Graph,
    k: int,
    limits: Limits = LIMITS,
) -> EdgeColoredGraph | None:
    """First k-edge-coloring of the graph with no homomorphism, or None.

    Colorings are words over the sorted edge list. Only the leaders are
    searched, in lexicographic order: the words that no permutation in
    graph.edge_automorphisms makes smaller (Crawford, Ginsberg, Luks and Roy
    1996). A coloring and its image under an automorphism have a
    homomorphism or not together, so, with any subset of the automorphisms,
    the first leader that fails is the lexicographically least coloring with
    no homomorphism: the counterexample returned. Each coloring first
    repairs the last one's homomorphism, searching only the endpoints of the
    edges from the first recolored one on, then searches from scratch. The
    all-1 coloring, always a leader, is searched before the automorphisms
    are sought; where none is found, every coloring leads and
    itertools.product walks them. A k other than the target's edge palette
    is a ValueError.
    """
    _check_ints(k=k)
    if k != target.k:
        raise ValueError(f"edge palette mismatch: k={k}, target k={target.k}")
    m = graph.m
    # k >= 2, so k^m is above the limit exactly when this capped power is
    limits.check("colorings", k ** min(m, limits.colorings.bit_length()), f"enumerating {k}^{m} colorings")
    target = _search_target(target, graph.n, limits)
    edges = graph.edges
    slots = graph.edge_slots
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

    colors = (1,) * m
    if search(0, colors):
        maps, letters = graph.edge_automorphisms if m > 1 else (), range(1, k + 1)
        words = _canonical_words(m, letters, maps, False) if maps else itertools.product(letters, repeat=m)
        next(words)  # the all-1 coloring, searched above
        for word in words:  # j: the first edge that word recolors
            if maps:
                j = 0
                while word[j] == colors[j]:
                    j += 1
            else:  # product changes no letter before its last one above 1
                j = m - 1
                while word[j] == 1:
                    j -= 1
            colors = word
            if not (search(j, colors) or j and search(0, colors)):
                break
        else:
            return None
    return EdgeColoredGraph(graph, k, dict(zip(edges, colors)))


def _canonical_words(length: int, letters: range, vertex_maps, relabel: bool):
    """Lazily, in lexicographic order, each word over letters that no vertex
    map makes smaller, its colors then relabeled in order of first appearance
    where relabel is set (letters then start at 0, a letter kept as it is).

    Orderly generation (Read 1978): a depth-first walk over the words, with
    colors first appearing in increasing order where relabel is set. Each
    prefix keeps the maps still tied with it, with the next image position j
    to compare and its relabeling table so far (-1 for a color not yet
    seen). Image position j is fixed once assign[vmap[:j + 1]] is: a smaller
    one prunes the subtree, a larger one drops the map.
    """
    assign = [0] * length

    def grow(t, tied, top):
        if t == length:
            yield tuple(assign)
            return
        for x in letters[:top + 2] if relabel else letters:
            assign[t] = x
            still = []
            for entry in tied:
                vmap, j, table, labels = entry
                while j <= t and vmap[j] <= t:
                    c = assign[vmap[j]]
                    y = table[c]
                    if y < 0:
                        labels = y = labels + 1
                        table = table[:c] + (y,) + table[c + 1:]
                    if y != assign[j]:
                        break
                    j += 1
                else:  # still tied: a map with no new position keeps its entry
                    still.append(entry if j == entry[1] else (vmap, j, table, labels))
                    continue
                if y < assign[j]:
                    break
            else:
                yield from grow(t + 1, still, max(top, x))

    # a relabeled word has at most min(k, length) colors; otherwise each keeps its letter
    start = (0,) + (-1,) * min(len(letters) - 1, length) if relabel else range(letters.stop)
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
        for assign in _canonical_words(len(pairs), range(k + 1), vertex_maps, True):
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
