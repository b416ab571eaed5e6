"""Shared test fixtures: graph families, random corpora, brute-force oracles.

The oracles here deliberately avoid the library's own algorithms so they can
serve as independent ground truth: density by subset enumeration, density
and orientations by flows on the edge/vertex network, orientation
existence by pruned exhaustive assignment, star validity by the
every-bicolored-component-is-a-star characterization, out-colorings as
in-colorings of the transpose, tuple-target ids by a walk over every
coordinate and letter, tuple-target edge colors on dense tuples,
smallest-last order by a scan of every remaining vertex, star colorings by
enumerating 4-vertex paths, the greedy and exact star colorings by walking
three steps out from each vertex for every candidate color.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from fractions import Fraction

from ectarget.density import Density, OrientationInfeasible, _Dinic
from ectarget.graphs import EdgeColoredGraph, Graph, OrientedGraph, VertexColoring


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
    for i, (u, v) in enumerate(graph.sorted_edges):
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
    for i, (u, v) in enumerate(graph.sorted_edges):
        # edge node i sends its unit either to u (arc 1) or to v (arc 2)
        direction[(u, v)] = (v, u) if net.adj[1 + i][1][1] < _INF else (u, v)
    return OrientedGraph(graph, direction)


def each_aux_triple(oriented: OrientedGraph, star: VertexColoring):
    """Every R1 and R2 triple (b, x, a) as (rule, b, a), from every ordered
    pair of arcs: R1 when b -> x and a -> x with a != b, R2 when b -> x -> a,
    in both cases with star[a] == star[b]."""
    arcs = list(oriented.direction.values())
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


def transpose(oriented: OrientedGraph) -> OrientedGraph:
    """The same graph with every edge reversed."""
    flipped = {e: (head, tail) for e, (tail, head) in oriented.direction.items()}
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
    for mid in range(oriented.graph.n):
        nbrs = sorted(set(oriented.graph.neighbors(mid)))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if coloring[a] != coloring[b]:
                    continue
                ea = oriented.direction[(a, mid) if a < mid else (mid, a)]
                eb = oriented.direction[(b, mid) if b < mid else (mid, b)]
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


def _star_safe(graph: Graph, assign: list, v: int, c: int) -> bool:
    """Would coloring v with c keep the partial coloring star-valid?

    Checks properness and every 4-vertex path through v whose other vertices
    are already colored (0 marks uncolored). Checking each path when its last
    vertex is colored covers all paths exactly once over a full run.
    """
    for u in graph.neighbors(v):
        if assign[u] == c:
            return False
    # v as an endpoint: paths v, x, y, z
    for x in graph.neighbors(v):
        cx = assign[x]
        if not cx:
            continue
        for y in graph.neighbors(x):
            if y == v or assign[y] != c:
                continue
            for z in graph.neighbors(y):
                if z == v or z == x:
                    continue
                if assign[z] == cx:
                    return False
    # v as an inner vertex: paths x, v, w, z
    for x in graph.neighbors(v):
        cx = assign[x]
        if not cx:
            continue
        for w in graph.neighbors(v):
            if w == x or assign[w] != cx:
                continue
            for z in graph.neighbors(w):
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
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
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
    order.sort(key=lambda v: -graph.degree(v))
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
    for b, c in graph.sorted_edges:
        for a in graph.neighbors(b):
            if a == c or coloring[a] != coloring[c]:
                continue
            for d in graph.neighbors(c):
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
