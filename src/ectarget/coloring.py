"""Acyclic and star vertex colorings: verifiers, exact star search, greedy heuristic.

A proper coloring is acyclic when every two color classes induce a forest,
and a star coloring when no path on four vertices is bicolored. The exact
star search is a guarded backtracker meant for small instances; the greedy
heuristic is total and its output always verifies. Both read each vertex's
forbidden colors (F1-F3) from the same color bitmasks, which coloring a
vertex brings up to date, so the greedy runs in O(m * palette).
"""

from __future__ import annotations

import random

from .graphs import LIMITS, Graph, Limits, VertexColoring


def _is_proper(graph: Graph, col: tuple) -> bool:
    return all(col[u] != col[v] for u, v in graph.edges)


def verify_acyclic(graph: Graph, coloring: VertexColoring) -> bool:
    """True iff the coloring is proper and every bicolored subgraph is a forest."""
    if len(coloring) != graph.n or not _is_proper(graph, coloring.assign):
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
    col = coloring.assign
    if len(col) != graph.n or not _is_proper(graph, col):
        return False
    repeats = []
    for v in range(graph.n):
        seen, repeated = set(), set()
        for u in graph.neighbors(v):
            (repeated if col[u] in seen else seen).add(col[u])
        repeats.append(repeated)
    return not any(col[c] in repeats[b] and col[b] in repeats[c] for b, c in graph.edges)


def _forbidden(graph: Graph, tables: list, v: int) -> int:
    """Bitmask of the colors the uncolored vertex v may not take, bit c for
    color c and bit 0 (no color) always set. The tables are assign (0 while
    uncolored) and the masks once[y] and twice[y], the colors on at least one
    and at least two of y's colored neighbors, and far[x], the colors of x's
    colored neighbors y with col(x) in twice[y]:
      F1  once[v] (paths v, x);
      F2  far[x] for each colored x in N(v) (paths v, x, y, z);
      F3  once[w] for each colored w in N(v) whose color is in twice[v]
          (paths x, v, w, z, where z = x only repeats F1).
    """
    assign, once, twice, far = tables
    around = twice[v]
    forbidden = 1 | once[v]
    for w in graph.neighbors(v):
        cw = assign[w]
        if cw:
            forbidden |= far[w]
            if around >> cw & 1:
                forbidden |= once[w]
    return forbidden


def _assign(graph: Graph, tables: list, v: int, c: int) -> None:
    """Color the uncolored vertex v with c and bring the tables up to date."""
    assign, once, twice, far = tables
    bit = 1 << c
    around = twice[v]
    assign[v] = c
    for y in graph.neighbors(v):
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
            far[next(x for x in graph.neighbors(y) if x != v and assign[x] == c)] |= 1 << cy
        if around >> cy & 1:
            far[y] |= bit


def exact_star_coloring(graph: Graph, c_max: int, limits: Limits = LIMITS) -> VertexColoring | None:
    """Star coloring with at most c_max colors, or None if none exists.

    Complete backtracking search on the greedy's tables, restored after each
    failed color; refuses graphs above limits.exact_coloring_n.
    """
    limits.check("exact_coloring_n", graph.n, f"exact star coloring of n={graph.n}")
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    tables = assign, once, twice, far = [[0] * graph.n for _ in range(4)]

    def rec(pos: int, used: int) -> bool:
        if pos == graph.n:
            return True
        v = order[pos]
        forbidden = _forbidden(graph, tables, v)
        saved = once[:], twice[:], far[:]
        # new colors are tried in first-use order, which loses no solutions
        for c in range(1, min(used + 1, c_max) + 1):
            if not forbidden >> c & 1:
                _assign(graph, tables, v, c)
                if rec(pos + 1, max(used, c)):
                    return True
                assign[v] = 0
                once[:], twice[:], far[:] = saved
        return False

    if c_max < 1 or not rec(0, 0):
        return None
    return VertexColoring(max(assign), assign)


def greedy_star_coloring(graph: Graph, seed: int = 0) -> VertexColoring:
    """Star coloring by greedy assignment over a degree-descending order.

    The seed shuffles tie order among equal degrees; for a fixed seed the
    result is deterministic. Each vertex v takes the smallest color that
    keeps the partial coloring proper and free of bicolored 4-vertex paths,
    so the final coloring always verifies. The masks only grow, and the scan
    of N(y) for the other neighbor colored c runs once per (y, color) pair,
    so the run costs O(m * palette) word operations.
    """
    rng = random.Random(seed)
    order = list(range(graph.n))
    rng.shuffle(order)
    order.sort(key=lambda v: -graph.degree(v))
    tables = assign, once, twice, far = [[0] * graph.n for _ in range(4)]
    for v in order:
        forbidden = _forbidden(graph, tables, v)
        _assign(graph, tables, v, (~forbidden & (forbidden + 1)).bit_length() - 1)
    return VertexColoring(max(assign), assign)
