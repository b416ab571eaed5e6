"""Shared test fixtures: graph families, random corpora, brute-force oracles.

The oracles here deliberately avoid the library's own algorithms so they can
serve as independent ground truth: density by subset enumeration, density
and orientations by flows on the edge/vertex network, orientation
existence by pruned exhaustive assignment, star validity by the
every-bicolored-component-is-a-star characterization, out-colorings as
in-colorings of the transpose, tuple-target ids by a walk over every
coordinate and letter, tuple-target edge colors on dense tuples,
smallest-last order by a scan of every remaining vertex and by one heap of
(degree, id) tuples in place of degree buckets, the two-stage out-coloring
from a list of conflict pairs with the scan's greedy, star colorings by
enumerating 4-vertex paths, the greedy and exact star colorings by walking
three steps out from each vertex for every candidate color, homomorphisms by
a search over a static degree order, universality by searching every
coloring from scratch, and minimum targets by testing every restricted-growth
word for canonicity on its own and checking every candidate in full against
every graph.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import random
import sys
from fractions import Fraction

from ectarget.density import Density, OrientationInfeasible, _Dinic
from ectarget.graphs import (
    LIMITS,
    EdgeColoredGraph,
    Graph,
    Homomorphism,
    Limits,
    OrientedGraph,
    VertexColoring,
)
from ectarget.out_coloring import OutColoringCertificate
from ectarget.universal import _search_target


@contextlib.contextmanager
def recursion_limit(limit: int):
    """Run the block under a lowered interpreter recursion limit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------


def clique(t: int) -> Graph:
    return Graph(t, itertools.combinations(range(t), 2))


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    return Graph(n, [(0, v) for v in range(1, n)])


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
    return EdgeColoredGraph(graph, k, {e: rng.randint(1, k) for e in graph.edges})


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
    edges = graph.edges
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


_INF = 1 << 62


def _density_network(graph: Graph, bound: Fraction) -> tuple[int, _Dinic]:
    """Max flow on the scaled network deciding whether some subgraph beats bound.

    Source feeds each edge node bound.denominator units; edge nodes fan out to
    their endpoints; vertices drain bound.numerator to the sink. The flow
    saturates (equals m * denominator) exactly when no nonempty subgraph has
    density strictly above bound.
    """
    num, den = bound.numerator, bound.denominator
    m, n = graph.m, graph.n
    net = _Dinic(2 + m + n)
    src, sink = 0, 1 + m + n
    for i, (u, v) in enumerate(graph.edges):
        net.add_edge(src, 1 + i, den)
        net.add_edge(1 + i, 1 + m + u, _INF)
        net.add_edge(1 + i, 1 + m + v, _INF)
    for v in range(n):
        net.add_edge(1 + m + v, sink, num)
    flow = net.max_flow(src, sink)
    return flow, net


def edge_network_density(graph: Graph) -> Density:
    """Dinkelbach's iteration on the edge/vertex network (n + m + 2 nodes):
    the reference for the library's densest_subgraph on the n + 2 load
    network, with the same value and the same maximal witness."""
    n, m = graph.n, graph.m
    if m == 0:
        return Density(Fraction(0), (0,))
    value = Fraction(m, n)
    while True:
        flow, net = _density_network(graph, value)
        if flow == m * value.denominator:
            break
        # the source side of the min cut beats value; its ratio is the next guess
        side = net.reach(0)
        inside = {v for v in range(n) if (1 + m + v) in side}
        del net, side  # hold one network at a time
        value = Fraction(edges_within(graph, inside), len(inside))
    # every densest set is a min cut at the density; the maximal min cut, all
    # nodes cut off from the sink, is their union
    to_sink = net.reach(1 + m + n, backward=True)
    witness = [v for v in range(n) if (1 + m + v) not in to_sink]
    if not witness or Fraction(edges_within(graph, witness), len(witness)) != value:
        raise AssertionError("density witness mismatch")
    return Density(value, tuple(witness))


def edge_network_orientation(graph: Graph, d: int) -> OrientedGraph:
    """Orientation with in-degree at most d from one max-flow on the
    edge/vertex network (n + m + 2 nodes), where each edge node sends its
    unit to the endpoint that becomes its head: the reference for the
    library's smallest-last start with a vertex-only repair flow. Raises
    OrientationInfeasible with the source side of the minimal min cut."""
    m, n = graph.m, graph.n
    if m == 0:
        return OrientedGraph(graph, {})
    flow, net = _density_network(graph, Fraction(d))
    if flow < m:
        side = net.reach(0)
        raise OrientationInfeasible(d, tuple(sorted(v for v in range(n) if (1 + m + v) in side)))
    direction = {}
    for i, (u, v) in enumerate(graph.edges):
        # edge node i sends its unit either to u (arc 1) or to v (arc 2)
        direction[(u, v)] = (v, u) if net.adj[1 + i][1][1] < _INF else (u, v)
    return OrientedGraph(graph, direction)


def each_aux_triple(oriented: OrientedGraph, star: VertexColoring):
    """Every R1 and R2 triple (b, x, a) as (rule, b, a), from every ordered
    pair of arcs: R1 when b -> x and a -> x with a != b, R2 when b -> x -> a,
    in both cases with star[a] == star[b]."""
    arcs = list(arc_map(oriented).values())
    for b, x in arcs:
        for tail, head in arcs:
            if head == x and tail != b and star[tail] == star[b]:
                yield "R1", b, tail
            elif tail == x and star[head] == star[b]:
                yield "R2", b, head


def aux_triples(oriented: OrientedGraph, star: VertexColoring) -> tuple[dict, dict]:
    """Counts of R1 and R2 triples (b, x, a), and of triples per head a."""
    rules, heads = {}, {}
    for rule, _, a in each_aux_triple(oriented, star):
        rules[rule] = rules.get(rule, 0) + 1
        heads[a] = heads.get(a, 0) + 1
    return rules, heads


def two_stage_palette(oriented: OrientedGraph, star: VertexColoring) -> int:
    """Palette of the paper's two-stage out-coloring: the star color paired
    with a smallest-last greedy color of the R1/R2 auxiliary graph."""
    d, n = oriented.max_in_degree, oriented.graph.n
    if d == 0:
        return 1
    adjacency = {}
    for _, b, a in each_aux_triple(oriented, star):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    aux = scan_degeneracy_greedy(n, adjacency, 2 * d * star.palette)
    return len({(star[v], aux[v]) for v in range(n)})


def arc_map(oriented: OrientedGraph) -> dict:
    """The (tail, head) of each edge, keyed by the edge as graph.edges spells it."""
    return {(u, v): (u if head == v else v, head) for (u, v), head in zip(oriented.graph.edges, oriented.heads)}


def transpose(oriented: OrientedGraph) -> OrientedGraph:
    """The same graph with every edge reversed."""
    flipped = {e: (head, tail) for e, (tail, head) in arc_map(oriented).items()}
    return OrientedGraph(oriented.graph, flipped)


def verify_in_coloring(oriented: OrientedGraph, coloring: VertexColoring) -> bool:
    """Proper coloring where every bicolored 3-vertex path points at its middle.

    A coloring is an out-coloring of an oriented graph exactly when it is an
    in-coloring of the transpose, which makes the pair an independent
    reference for the library's out-coloring verifier.
    """
    if len(coloring) != oriented.graph.n:
        return False
    for u, v in oriented.graph.edges:
        if coloring[u] == coloring[v]:
            return False
    arcs = arc_map(oriented)
    for mid in range(oriented.graph.n):
        nbrs = sorted(set(oriented.graph.adjacency[mid]))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if coloring[a] != coloring[b]:
                    continue
                ea = arcs[(a, mid) if a < mid else (mid, a)]
                eb = arcs[(b, mid) if b < mid else (mid, b)]
                if ea != (a, mid) or eb != (b, mid):
                    return False
    return True


def scan_degeneracy_greedy(n: int, adjacency: dict, max_colors: int) -> list:
    """Greedy coloring in reverse smallest-last order, finding each next
    vertex by a min() over all remaining ones: the O(n²) reference for the
    library's heap-ordered _degeneracy_greedy, with the same (degree, id)
    tie-break and the same max_colors AssertionError."""
    degree = {v: len(adjacency.get(v, ())) for v in range(n)}
    remaining = set(range(n))
    removal = []
    while remaining:
        v = min(remaining, key=lambda x: (degree[x], x))
        removal.append(v)
        remaining.remove(v)
        for u in adjacency.get(v, ()):
            if u in remaining:
                degree[u] -= 1
    colors = [0] * n
    for v in reversed(removal):
        used = {colors[u] for u in adjacency.get(v, ()) if colors[u]}
        c = 1
        while c in used:
            c += 1
        if c > max_colors:
            raise AssertionError(f"greedy coloring exceeded {max_colors} colors")
        colors[v] = c
    return colors


def tuple_key_smallest_last_order(adjacency) -> list:
    """Smallest-last removal order from a lazy heap of (degree, id) tuples:
    the reference for the library's buckets of vertex ids, one per degree."""
    degree = [len(a) for a in adjacency]
    heap = [(deg, v) for v, deg in enumerate(degree)]
    heapq.heapify(heap)
    removed = [False] * len(degree)
    removal = []
    while heap:
        deg, v = heapq.heappop(heap)
        if deg != degree[v]:
            continue
        removed[v] = True
        removal.append(v)
        for u in adjacency[v]:
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return removal


def pair_list_out_coloring(oriented: OrientedGraph, star: VertexColoring) -> OutColoringCertificate:
    """The out-coloring of build_out_coloring, with its auxiliary and C1-C3
    conflict graphs built as dicts of sets from a list of pairs per vertex
    and colored by the scan's greedy: the direct coloring unless it is above
    the 2*d*s*s budget, then the two-stage one; unverified, for a valid star
    coloring only."""
    n, col = oriented.graph.n, star.assign
    d, s = oriented.max_in_degree, star.palette
    if d == 0:
        return OutColoringCertificate(VertexColoring(1, [1] * n), 1, {})
    rule_counts = {}
    in_degrees = [0] * n
    adjacency = {v: set() for v in range(n)}
    conflicts = {v: set() for v in range(n)}
    for x in range(n):
        ps = oriented.parents[x]
        for rule, heads in (("R1", ps), ("R2", oriented.children[x])):
            for b in ps:
                for a in heads:
                    if a != b and col[a] == col[b]:
                        rule_counts[rule] = rule_counts.get(rule, 0) + 1
                        in_degrees[a] += 1
                        adjacency[b].add(a)
                        adjacency[a].add(b)
        # the pairs C1, C2 and C3 keep apart: x and its parents, two parents, x and a grandparent
        pairs = [(x, p) for p in ps] + list(itertools.combinations(ps, 2))
        pairs += [(x, g) for p in ps for g in oriented.parents[p]]
        for u, v in pairs:
            conflicts[u].add(v)
            conflicts[v].add(u)
    assert max(in_degrees) <= d * (s - 1)
    tuples = list(zip(col, scan_degeneracy_greedy(n, adjacency, 2 * d * s)))
    direct = scan_degeneracy_greedy(n, conflicts, n)
    if max(direct) <= 2 * d * s * s:
        tuples = direct
    ranks = {t: i + 1 for i, t in enumerate(sorted(set(tuples)))}
    return OutColoringCertificate(VertexColoring(len(ranks), [ranks[t] for t in tuples]), 2 * d * s * s, rule_counts)


def _star_safe(graph: Graph, assign: list, v: int, c: int) -> bool:
    """Would coloring v with c keep the partial coloring star-valid?

    Checks properness and every 4-vertex path through v whose other vertices
    are already colored (0 marks uncolored). Checking each path when its last
    vertex is colored covers all paths exactly once over a full run.
    """
    for u in graph.adjacency[v]:
        if assign[u] == c:
            return False
    # v as an endpoint: paths v, x, y, z
    for x in graph.adjacency[v]:
        cx = assign[x]
        if not cx:
            continue
        for y in graph.adjacency[x]:
            if y == v or assign[y] != c:
                continue
            for z in graph.adjacency[y]:
                if z == v or z == x:
                    continue
                if assign[z] == cx:
                    return False
    # v as an inner vertex: paths x, v, w, z
    for x in graph.adjacency[v]:
        cx = assign[x]
        if not cx:
            continue
        for w in graph.adjacency[v]:
            if w == x or assign[w] != cx:
                continue
            for z in graph.adjacency[w]:
                if z == v or z == x:
                    continue
                if assign[z] == c:
                    return False
    return True


def three_step_exact_star(graph: Graph, c_max: int) -> VertexColoring | None:
    """Star coloring with at most c_max colors by backtracking that tests
    each candidate color with _star_safe: the reference for the library's
    exact_star_coloring, with the same (-degree, id) vertex order and the
    same colors tried in first-use order."""
    order = sorted(range(graph.n), key=lambda v: (-len(graph.adjacency[v]), v))
    assign = [0] * graph.n

    def rec(pos: int, used: int) -> bool:
        if pos == graph.n:
            return True
        v = order[pos]
        for c in range(1, min(used + 1, c_max) + 1):
            if _star_safe(graph, assign, v, c):
                assign[v] = c
                if rec(pos + 1, max(used, c)):
                    return True
                assign[v] = 0
        return False

    if c_max < 1 or not rec(0, 0):
        return None
    return VertexColoring(max(assign), assign)


def three_step_star_greedy(graph: Graph, seed: int = 0) -> VertexColoring:
    """Greedy star coloring that tests each candidate color with _star_safe,
    a walk three steps out from the vertex: the O(palette · deg³) reference
    for the library's greedy_star_coloring, with the same seeded
    degree-descending order and the same smallest-safe-color rule."""
    rng = random.Random(seed)
    order = list(range(graph.n))
    rng.shuffle(order)
    order.sort(key=lambda v: -len(graph.adjacency[v]))
    assign = [0] * graph.n
    for v in order:
        c = 1
        while not _star_safe(graph, assign, v, c):
            c += 1
        assign[v] = c
    return VertexColoring(max(assign), assign)


def edge_color(u: tuple, v: tuple) -> int:
    """Color between two distinct tuple-target vertices as the paper writes
    it, min(v[u[0]], u[v[0]]) on the dense tuples: the reference for the
    library's color rule on sparse vertices."""
    if u == v:
        raise ValueError("no loops: target tuples must differ")
    return min(v[u[0]], u[v[0]])


class DenseTupleOrder:
    """Lexicographic ids of (q, d, k) tuple vertices by walking all q
    coordinates and up to k letters at each: the O(q·k) reference for the
    library's sparse rank and unrank."""

    def __init__(self, q: int, d: int, k: int):
        self.q, self.d, self.k = q, min(d, q), k
        # counts[t][r] = number of length-t suffixes with at most r non-k entries
        counts = [[1] * (self.d + 1)]
        for _ in range(q):
            prev = counts[-1]
            counts.append([1] + [prev[r] + (k - 1) * prev[r - 1] for r in range(1, self.d + 1)])
        self.counts = counts
        self.block = counts[q][self.d]

    def _suffix_count(self, length: int, budget: int) -> int:
        return 0 if budget < 0 else self.counts[length][min(budget, self.d)]

    def rank(self, vertex: tuple) -> int:
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
        lead, rem = divmod(idx, self.block)
        out = [lead + 1]
        budget = self.d
        for t in range(1, self.q + 1):
            for x in range(1, self.k + 1):
                cnt = self._suffix_count(self.q - t, budget if x == self.k else budget - 1)
                if rem < cnt:
                    out.append(x)
                    budget -= x != self.k
                    break
                rem -= cnt
        return tuple(out)


def dense_unrank(target, idx: int) -> tuple:
    """The dense tuple (lead, x_1, ..., x_q) of a library target's vertex id,
    built from its sparse _unrank."""
    lead, coords = target._unrank(idx)
    xs = [target.k] * target.q
    for p, x in coords.items():
        xs[p - 1] = x
    return (lead, *xs)


def dense_rank(target, vertex: tuple) -> int:
    """A library target's id for a dense tuple, through its sparse _rank."""
    return target._rank(vertex[0], [(p, x) for p, x in enumerate(vertex[1:], 1) if x != target.k])


def paths_verify_star(graph: Graph, coloring: VertexColoring) -> bool:
    """Star-coloring check by enumerating, for each middle edge (b, c), every
    path a, b, c, d with col(a) == col(c): proper, and none has col(d) ==
    col(b). The O(sum of deg(b)·deg(c)) reference for the library's
    O(n + m) verify_star."""
    if len(coloring) != graph.n:
        return False
    if any(coloring[u] == coloring[v] for u, v in graph.edges):
        return False
    for b, c in graph.edges:
        for a in graph.adjacency[b]:
            if a == c or coloring[a] != coloring[c]:
                continue
            for d in graph.adjacency[c]:
                if d == b or d == a:
                    continue
                if coloring[d] == coloring[b]:
                    return False
    return True


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


def static_order_homomorphism(source: EdgeColoredGraph, target, limits: Limits = LIMITS) -> Homomorphism | None:
    """Complete backtracking search for a homomorphism, or None.

    Source vertices are assigned in descending degree order, candidates in
    ascending id order, with forward checking against the colored adjacency
    of already-assigned neighbors: the reference for the library's fail-first
    find_homomorphism, which agrees on whether a homomorphism exists.
    """
    if source.k != target.k:
        raise ValueError(f"edge palette mismatch: source k={source.k}, target k={target.k}")
    graph = source.graph
    target = _search_target(target, graph.n, limits)
    tgraph = target.graph
    by_color = target.by_color
    color = dict(zip(graph.edges, source.colors))
    order = sorted(range(graph.n), key=lambda v: (-len(graph.adjacency[v]), v))
    assigned = [-1] * graph.n
    all_targets = frozenset(range(tgraph.n))

    def candidates(v):
        domain = None
        for u in graph.adjacency[v]:
            if assigned[u] < 0:
                continue
            allowed = by_color[assigned[u]].get(color[(u, v) if u < v else (v, u)])
            if not allowed:
                return ()
            domain = allowed if domain is None else domain & allowed
        return sorted(all_targets if domain is None else domain)

    def viable(v, image):
        # forward check: every unassigned neighbor keeps at least one option
        for w in graph.adjacency[v]:
            if assigned[w] >= 0:
                continue
            if not by_color[image].get(color[(v, w) if v < w else (w, v)]):
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


def memoryless_check_universal(target, graph: Graph, k: int, limits: Limits = LIMITS) -> EdgeColoredGraph | None:
    """First k-edge-coloring of the graph, in lexicographic order over the
    sorted edges, that static_order_homomorphism maps nowhere, or None: the
    reference for check_universal, which repairs the last homomorphism."""
    if k != target.k:
        raise ValueError(f"edge palette mismatch: k={k}, target k={target.k}")
    m = graph.m
    limits.check("colorings", k ** min(m, limits.colorings.bit_length()), f"enumerating {k}^{m} colorings")
    for combo in itertools.product(range(1, k + 1), repeat=m):
        colored = EdgeColoredGraph(graph, k, dict(zip(graph.edges, combo)))
        if static_order_homomorphism(colored, target, limits) is None:
            return colored
    return None


def _restricted_growth(length: int, k: int):
    """Lazily, in lexicographic order, the words over 0..k whose colors 1..k
    first appear in increasing order: one per orbit of the color maps."""
    if length == 0:
        yield ()
        return
    for head in _restricted_growth(length - 1, k):
        for x in range(min(max(head, default=0) + 1, k) + 1):
            yield head + (x,)


def _canonical(assign, vertex_maps: list) -> bool:
    """True iff no vertex map, its colors then relabeled in order of first
    appearance (its least color map), makes assign lexicographically smaller.
    A map that refutes assign moves to the front; the order never changes the answer."""
    for i, vmap in enumerate(vertex_maps):
        relabel = {0: 0}
        for j, slot in enumerate(vmap):
            x = relabel.setdefault(assign[slot], len(relabel))
            if x != assign[j]:
                if x < assign[j]:
                    vertex_maps.insert(0, vertex_maps.pop(i))
                    return False
                break
    return True


def memoryless_min_universal_size(graphs, k: int = 2, p_max: int = 3, limits: Limits = LIMITS):
    """min_universal_size without its counterexample memory: every candidate
    (canonical against the vertex maps in their first order) is checked in
    full, with memoryless_check_universal, against each graph in turn."""
    limits.check("min_target_p", p_max, f"target search up to p={p_max}")
    graphs = list(graphs)
    for p in range(1, p_max + 1):
        pairs = list(itertools.combinations(range(p), 2))
        pair_index = {pair: i for i, pair in enumerate(pairs)}
        vertex_maps = [
            tuple(pair_index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
            for perm in itertools.permutations(range(p))
        ]
        for assign in _restricted_growth(len(pairs), k):
            if not _canonical(assign, list(vertex_maps)):
                continue
            edges = {pairs[i]: c for i, c in enumerate(assign) if c}
            candidate = EdgeColoredGraph(Graph(p, edges.keys()), k, edges)
            if all(memoryless_check_universal(candidate, g, k, limits) is None for g in graphs):
                return p, candidate
    return None
