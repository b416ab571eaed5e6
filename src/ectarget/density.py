"""Exact maximum subgraph density and bounded in-degree orientations.

Both ask whether the edges can be spread over the vertices with a load of at
most some bound on each, and both answer it with one max-flow on the n + 2
vertex nodes (Hakimi 1965; Goldberg 1984). Each edge starts on the endpoint
that smallest-last order removes first (Matula-Beck 1983); the flow moves
load from overloaded vertices to ones with room, and when it falls short,
the vertices it still reaches from the source form a subgraph beyond the
bound. The density, the maximum of |E'| / |V'| over nonempty subgraphs, is
exact by Dinkelbach's iteration: from m/n, each such subgraph's ratio is the
next guess until a flow saturates. The vertices that cannot reach the sink
in that last flow are the witness, the union of all densest sets.
``min_orientation`` takes its in-degree bound from the exact density.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .coloring import _color_pair_groups, verify_acyclic
from .graphs import Graph, OrientedGraph, Value, VertexColoring, _check_ints, smallest_last_order

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


class Density(Value):
    """Exact maximum subgraph density together with a witness vertex set."""

    _fields = ("value", "witness")


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

    def _dfs(self, s: int, t: int) -> int:
        """Push flow along one level-graph path from s to t; 0 when none is left.

        The path is a stack of arcs, not of Python frames. A dead end pops one
        arc and advances its tail's arc pointer, as a recursive search would."""
        adj, it, level = self.adj, self.it, self.level
        path, u = [], s
        while u != t:
            arcs = adj[u]
            while it[u] < len(arcs):
                arc = arcs[it[u]]
                if arc[1] > 0 and level[arc[0]] == level[u] + 1:
                    path.append(arc)
                    u = arc[0]
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                arc = path.pop()
                u = adj[arc[0]][arc[2]][0]  # the tail, through the reverse arc
                it[u] += 1
        pushed = min(arc[1] for arc in path)
        for arc in path:
            arc[1] -= pushed
            adj[arc[0]][arc[2]][1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._dfs(s, t)
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


def _smallest_last_start(graph: Graph) -> tuple[list, list]:
    """The head of each edge, the endpoint that smallest-last order
    removes first (Matula-Beck 1983), and the in-degrees this gives, none
    above the degeneracy."""
    rank = [0] * graph.n
    for i, v in enumerate(smallest_last_order(graph.adjacency)):
        rank[v] = i
    heads = [u if rank[u] < rank[v] else v for u, v in graph.edges]
    in_degrees = [0] * graph.n
    for head in heads:
        in_degrees[head] += 1
    return heads, in_degrees


def _load_flow(graph: Graph, start: tuple[list, list], bound: Fraction) -> tuple[_Dinic, list, list]:
    """Max flow on n + 2 nodes deciding whether the edges can be spread over
    the vertices with a load of at most bound = num / den on each.

    Each edge starts with den units on its head in start. Source n feeds
    each vertex its load above num, each vertex below num drains its spare
    to sink n + 1, and an arc head -> tail of capacity den moves units across
    the edge. A cut around a vertex set S costs the total excess minus
    den * |E(S)| - num * |S|, so the min cuts are the sets maximizing that.
    Returns the network, the arc of each edge, and the least such set,
    the residual reach of the source, which is empty exactly when no
    subgraph is denser than bound.
    """
    num, den = bound.numerator, bound.denominator
    heads, in_degrees = start
    net, src, sink = _Dinic(graph.n + 2), graph.n, graph.n + 1
    excess = 0
    for v, deg in enumerate(in_degrees):
        over = deg * den - num
        if over > 0:
            net.add_edge(src, v, over)
            excess += over
        elif over < 0:
            net.add_edge(v, sink, -over)
    arcs = []
    for (u, v), head in zip(graph.edges, heads):
        net.add_edge(head, u + v - head, den)
        arcs.append(net.adj[head][-1])
    beyond = net.max_flow(src, sink) < excess
    return net, arcs, sorted(net.reach(src) - {src}) if beyond else []


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
    start = _smallest_last_start(graph)
    value = Fraction(m, n)
    while True:
        net, _, beyond = _load_flow(graph, start, value)
        if not beyond:
            break
        del net  # hold one network at a time
        value = Fraction(_edges_within(graph, set(beyond)), len(beyond))
    # every densest set is a min cut at the density; the maximal min cut, all
    # vertices cut off from the sink, is their union
    to_sink = net.reach(n + 1, backward=True)
    witness = [v for v in range(n) if v not in to_sink]
    if not witness or Fraction(_edges_within(graph, set(witness)), len(witness)) != value:
        raise AssertionError("density witness mismatch")
    return Density(value, tuple(witness))


def find_orientation(graph: Graph, d: int) -> OrientedGraph:
    """Orient every edge so that each in-degree is at most d.

    Starts from the smallest-last orientation, whose in-degrees are at most
    the degeneracy. If some in-degree is still above d, one load flow with
    bound d repairs it: flow on a unit arc head -> tail reverses the edge,
    moving one unit of in-degree from head to tail. Raises
    OrientationInfeasible when some subgraph has more than d edges per
    vertex. Its witness is the least vertex set S maximizing |E(S)| - d * |S|.
    """
    _check_ints(d=d)
    if d < 0:
        raise ValueError(f"in-degree bound must be nonnegative, got {d}")
    start = heads, in_degrees = _smallest_last_start(graph)
    if max(in_degrees) > d:
        _, arcs, witness = _load_flow(graph, start, Fraction(d))
        if witness:
            # the reach is closed under parents once the flow is applied, and
            # every vertex in it keeps in-degree >= d, one of them more
            if _edges_within(graph, set(witness)) <= d * len(witness):
                raise AssertionError("infeasibility witness mismatch")
            raise OrientationInfeasible(d, tuple(witness))
        # a saturated arc head -> tail was reversed: its tail is the new head
        heads = [arc[0] if arc[1] == 0 else head for arc, head in zip(arcs, heads)]
    return OrientedGraph._trusted(graph, tuple(heads))  # canonical: edge order


def min_orientation(graph: Graph) -> tuple[int, OrientedGraph]:
    """Smallest feasible in-degree bound and an orientation achieving it.

    The bound is the ceiling of the exact maximum density (0 for edgeless
    graphs); the pigeonhole argument shows nothing smaller can work. The
    bound comes from densest_subgraph and the orientation from
    find_orientation, each through the same load flow.
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
    groups = _color_pair_groups(graph, coloring.assign)
    heads = {}
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
                    heads[(x, y) if x < y else (y, x)] = y
                    queue.append(y)
    return OrientedGraph._trusted(graph, tuple(map(heads.__getitem__, graph.edges)))  # all in the forests
