"""Acyclic and star vertex colorings: verifiers, exact star search, greedy heuristic.

A proper coloring is acyclic when every two color classes induce a forest,
and a star coloring when no path on four vertices is bicolored. The exact
star search is a guarded backtracker meant for small instances; the greedy
heuristic is total and its output always verifies. The greedy reads each
vertex's forbidden colors (F1-F3) from color bitmasks it keeps up to date,
in O(m * palette), where the exact search walks three steps out.
"""

from __future__ import annotations

import random

from .graphs import LIMITS, Graph, Limits, VertexColoring


def _is_proper(graph: Graph, coloring: VertexColoring) -> bool:
    return all(coloring[u] != coloring[v] for u, v in graph.edges)


def verify_acyclic(graph: Graph, coloring: VertexColoring) -> bool:
    """True iff the coloring is proper and every bicolored subgraph is a forest."""
    if len(coloring) != graph.n or not _is_proper(graph, coloring):
        return False
    groups = {}
    for u, v in graph.sorted_edges:
        cu, cv = coloring[u], coloring[v]
        pair = (cu, cv) if cu < cv else (cv, cu)
        groups.setdefault(pair, []).append((u, v))
    for edges in groups.values():
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def verify_star(graph: Graph, coloring: VertexColoring) -> bool:
    """True iff the coloring is proper and no 4-vertex path uses only 2 colors.

    In a proper coloring, a path a, b, c, d is bicolored exactly when the
    color of c repeats among the neighbors of b and the color of b repeats
    among the neighbors of c, so one pass over each vertex's neighbors
    decides it in O(n + m).
    """
    if len(coloring) != graph.n or not _is_proper(graph, coloring):
        return False
    col = coloring.assign
    repeats = []
    for v in range(graph.n):
        seen, repeated = set(), set()
        for u in graph.neighbors(v):
            (repeated if col[u] in seen else seen).add(col[u])
        repeats.append(repeated)
    return not any(col[c] in repeats[b] and col[b] in repeats[c] for b, c in graph.edges)


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


def exact_star_coloring(graph: Graph, c_max: int, limits: Limits = LIMITS) -> VertexColoring | None:
    """Star coloring with at most c_max colors, or None if none exists.

    Complete backtracking search; refuses graphs above limits.exact_coloring_n.
    """
    limits.check("exact_coloring_n", graph.n, f"exact star coloring of n={graph.n}")
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    assign = [0] * graph.n

    def rec(pos: int, used: int) -> bool:
        if pos == graph.n:
            return True
        v = order[pos]
        # new colors are tried in first-use order, which loses no solutions
        for c in range(1, min(used + 1, c_max) + 1):
            if _star_safe(graph, assign, v, c):
                assign[v] = c
                if rec(pos + 1, max(used, c)):
                    return True
                assign[v] = 0
        return False

    if c_max < 1 or not rec(0, 0):
        return None
    result = VertexColoring(max(assign), assign)
    if not verify_star(graph, result):
        raise AssertionError("exact star coloring failed its own verifier")
    return result


def greedy_star_coloring(graph: Graph, seed: int = 0) -> VertexColoring:
    """Star coloring by greedy assignment over a degree-descending order.

    The seed shuffles tie order among equal degrees; for a fixed seed the
    result is deterministic. Each vertex v takes the smallest color that
    keeps the partial coloring proper and free of bicolored 4-vertex paths,
    so the final coloring always verifies. Color sets are int bitmasks, bit
    c for color c: once[y] and twice[y] hold the colors on at least one and
    at least two of y's colored neighbors, and far[x] the colors of x's
    colored neighbors y with col(x) in twice[y]. The colors v may not take
    are
      F1  once[v] (paths v, x);
      F2  far[x] for each colored x in N(v) (paths v, x, y, z);
      F3  once[w] for each colored w in N(v) whose color is in twice[v]
          (paths x, v, w, z, where z = x only repeats F1).
    The masks only grow, and far[x] gains a color when x or y is colored
    or when col(x) enters twice[y], which scans N(y) once per (y, color)
    pair, so the run costs O(m * palette) word operations.
    """
    rng = random.Random(seed)
    order = list(range(graph.n))
    rng.shuffle(order)
    order.sort(key=lambda v: -graph.degree(v))
    adj = [graph.neighbors(v) for v in range(graph.n)]
    assign = [0] * graph.n
    once, twice, far = [0] * graph.n, [0] * graph.n, [0] * graph.n
    for v in order:
        around = twice[v]
        forbidden = 1 | once[v]  # bit 0 is no color, so color 0 is never free
        for w in adj[v]:
            cw = assign[w]
            if cw:
                forbidden |= far[w]
                if around >> cw & 1:
                    forbidden |= once[w]
        bit = ~forbidden & (forbidden + 1)
        c = assign[v] = bit.bit_length() - 1
        for y in adj[v]:
            seen = once[y] & bit
            second = seen & ~twice[y]  # c has just entered twice[y]
            once[y] |= bit
            twice[y] |= seen
            cy = assign[y]
            if not cy:
                continue
            if seen:
                far[v] |= 1 << cy
            if second:
                # the one other neighbor of y colored c gains col(y) too
                far[next(x for x in adj[y] if x != v and assign[x] == c)] |= 1 << cy
            if around >> cy & 1:
                far[y] |= bit
    return VertexColoring(max(assign), assign)
