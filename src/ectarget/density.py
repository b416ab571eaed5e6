"""Exact maximum subgraph density and bounded in-degree orientations.

The density of a graph is the maximum of |E'| / |V'| over its nonempty
subgraphs. It is computed exactly by Dinkelbach's iteration: from the ratio
m/n, an integer max-flow either saturates, proving the ratio optimal, or its
min cut is a subgraph of strictly larger ratio, the next guess. The maximal
min cut of the last flow is the witness, the union of all densest sets.

An orientation with in-degree at most d exists exactly when no subgraph has
more than d edges per vertex. A saturating flow on the edge/vertex network
assigns every edge its head; when the flow falls short, the source side of a
min cut is a subgraph certifying infeasibility.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .coloring import verify_acyclic
from .graphs import Graph, OrientedGraph, VertexColoring

_INF = 1 << 62


class OrientationInfeasible(Exception):
    """No orientation with the requested in-degree bound exists.

    Carries a witness vertex set whose induced subgraph has more than
    d * |S| edges.
    """

    def __init__(self, d: int, witness: tuple[int, ...]):
        super().__init__(
            f"no orientation with in-degree <= {d}: vertices {list(witness)} induce too many edges"
        )
        self.d = d
        self.witness = witness


@dataclass(frozen=True)
class Density:
    """Exact maximum subgraph density together with a witness vertex set."""

    value: Fraction
    witness: tuple


class _Dinic:
    """Deterministic max-flow on integer capacities (arcs kept in insertion order)."""

    def __init__(self, n: int):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.level = []
        self.it = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> bool:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        self.level = level
        return level[t] >= 0

    def _dfs(self, u: int, t: int, f: int) -> int:
        if u == t:
            return f
        while self.it[u] < len(self.adj[u]):
            arc = self.adj[u][self.it[u]]
            v, cap, rev = arc
            if cap > 0 and self.level[v] == self.level[u] + 1:
                pushed = self._dfs(v, t, min(f, cap))
                if pushed:
                    arc[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    return pushed
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, _INF)
                if not pushed:
                    break
                flow += pushed
        return flow

    def reach(self, start: int, backward: bool = False) -> set:
        """Nodes reachable from start in the residual network, or with backward
        the nodes that can reach it. After max_flow, reach(source) is the source
        side of the minimal min cut and the complement of reach(sink, True) the
        source side of the maximal one."""
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, cap, rev in self.adj[u]:
                if (self.adj[v][rev][1] if backward else cap) > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


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


def _edges_within(graph: Graph, inside: set) -> int:
    return sum(1 for u, v in graph.edges if u in inside and v in inside)


def densest_subgraph(graph: Graph) -> Density:
    """Exact maximum density over nonempty subgraphs, with a witness set.

    Edgeless graphs have density 0, witnessed by a single vertex. Otherwise
    the witness is the largest vertex set achieving the maximum ratio.
    """
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
        value = Fraction(_edges_within(graph, inside), len(inside))
    # every densest set is a min cut at the density; the maximal min cut, all
    # nodes cut off from the sink, is their union
    to_sink = net.reach(1 + m + n, backward=True)
    witness = [v for v in range(n) if (1 + m + v) not in to_sink]
    if not witness or Fraction(_edges_within(graph, set(witness)), len(witness)) != value:
        raise AssertionError("density witness mismatch")
    return Density(value, tuple(witness))


def find_orientation(graph: Graph, d: int) -> OrientedGraph:
    """Orient every edge so that each in-degree is at most d.

    Raises OrientationInfeasible (with a violating vertex set) when some
    subgraph has more than d edges per vertex.
    """
    if d < 0:
        raise ValueError(f"in-degree bound must be nonnegative, got {d}")
    edges = graph.sorted_edges
    m, n = len(edges), graph.n
    if m == 0:
        return OrientedGraph(graph, {})
    net = _Dinic(2 + m + n)
    src, sink = 0, 1 + m + n
    arc_refs = []
    for i, (u, v) in enumerate(edges):
        net.add_edge(src, 1 + i, 1)
        to_u = len(net.adj[1 + i])
        net.add_edge(1 + i, 1 + m + u, 1)
        to_v = len(net.adj[1 + i])
        net.add_edge(1 + i, 1 + m + v, 1)
        arc_refs.append((to_u, to_v))
    for v in range(n):
        net.add_edge(1 + m + v, sink, d)
    flow = net.max_flow(src, sink)
    if flow < m:
        side = net.reach(src)
        witness = tuple(sorted(v for v in range(n) if (1 + m + v) in side))
        if _edges_within(graph, set(witness)) <= d * len(witness):
            raise AssertionError("infeasibility witness mismatch")
        raise OrientationInfeasible(d, witness)
    direction = {}
    for i, (u, v) in enumerate(edges):
        to_u, _ = arc_refs[i]
        # the unit of flow through edge node i saturates the arc to its head
        if net.adj[1 + i][to_u][1] == 0:
            direction[(u, v)] = (v, u)
        else:
            direction[(u, v)] = (u, v)
    return OrientedGraph(graph, direction)


def min_orientation(graph: Graph) -> tuple[int, OrientedGraph]:
    """Smallest feasible in-degree bound and an orientation achieving it.

    The bound is the ceiling of the exact maximum density (0 for edgeless
    graphs); the pigeonhole argument shows nothing smaller can work.
    """
    dens = densest_subgraph(graph)
    d = math.ceil(dens.value)
    return d, find_orientation(graph, d)


def orientation_from_acyclic(graph: Graph, coloring: VertexColoring) -> OrientedGraph:
    """Orient a graph with in-degrees below the palette of an acyclic coloring.

    For every pair of colors, the induced bicolored subgraph is a forest;
    each of its trees is rooted at its lowest id and oriented away from the
    root, giving every vertex at most one incoming edge per color pair and
    hence in-degree at most palette - 1 overall.
    """
    if len(coloring) != graph.n:
        raise ValueError("coloring must assign a color to every vertex")
    if not verify_acyclic(graph, coloring):
        raise ValueError("coloring failed acyclic verification")
    groups = {}
    for u, v in graph.sorted_edges:
        cu, cv = coloring[u], coloring[v]
        pair = (cu, cv) if cu < cv else (cv, cu)
        groups.setdefault(pair, []).append((u, v))
    direction = {}
    for pair in sorted(groups):
        adj = {}
        for u, v in groups[pair]:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        visited = set()
        for root in sorted(adj):
            if root in visited:
                continue
            visited.add(root)
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y in sorted(adj[x]):
                    if y in visited:
                        continue
                    visited.add(y)
                    e = (x, y) if x < y else (y, x)
                    direction[e] = (x, y)
                    queue.append(y)
    return OrientedGraph(graph, direction)
