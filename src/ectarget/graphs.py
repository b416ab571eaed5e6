"""Immutable graph types and the shared text formats.

Vertices are dense integer ids ``0..n-1``; edge colors are 1-based, so a
k-edge-colored graph uses colors ``1..k``. A ``Graph`` holds its edges as one
ascending tuple of pairs ``(u, v)`` with ``u < v``. The color and the head of
``edges[i]`` are ``EdgeColoredGraph.colors[i]`` and ``OrientedGraph.heads[i]``:
tuples aligned with it, not maps keyed by edge. ``Graph.adjacency``,
``OrientedGraph.parents`` and ``OrientedGraph.children`` hold one ascending
tuple of ids per vertex, built on first use, as are the search oracles'
``Graph.edge_slots`` and ``Graph.edge_automorphisms``. All types are frozen
after construction, by the small ``Value`` base below, and can be shared
freely across threads.

Text format (UTF-8, LF newlines): first line ``n m k``, then ``m`` lines
``u v c`` with ``u != v``, both in ``0..n-1``, in either order, each edge
once. Lines starting with ``#`` are comments and may appear anywhere.
Plain graph files use ``k = 1`` and ``c = 1`` throughout. Oriented graph
files append a direction flag per edge line: ``u v c >`` orients the edge
from ``u`` to ``v``, ``u v c <`` the other way.

Input is validated once: text in one pass of the parsers, library values in
the public constructors. Records canonical by construction skip the checks.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property


class GraphFormatError(ValueError):
    """A graph text file violates the format or a type invariant."""


class GuardExceeded(RuntimeError):
    """An operation would exceed its configured size guard."""


def _check_ints(**values) -> None:
    """Raise ValueError for the first named value that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


_LIMIT_DEFAULTS = {
    "exact_coloring_n": 20,  # graph of an exact star coloring search
    "search_source_n": 12,  # source of a homomorphism search
    "search_target_n": 64,  # target of a homomorphism search
    "colorings": 10**6,  # k^m edge colorings a universality check enumerates
    "min_target_p": 5,  # largest target a minimum-target search tries
    "explicit_vertices": 1000,  # tuple target written out as an explicit graph
    "count_table_bytes": 2**25,  # estimated size of a tuple target's count table
    "graph_n": 10**6,  # vertices of a graph file the command line reads
}


class Limits(namedtuple("Limits", _LIMIT_DEFAULTS, defaults=_LIMIT_DEFAULTS.values())):
    """Size guards that keep the exhaustive operations at desk scale."""

    __slots__ = ()

    def check(self, name: str, value: int, what: str) -> None:
        """Raise GuardExceeded when value is above the limit called name.

        what describes the value for the message; the value itself is never
        formatted, since a count such as k**m may be too long to print.
        """
        limit = getattr(self, name)
        if value > limit:
            raise GuardExceeded(f"{what} exceeds the limit {name}={limit}")

    def raised(self, floor: int) -> Limits:
        """These limits with every one below floor raised to floor."""
        return Limits(*(max(limit, floor) for limit in self))


LIMITS = Limits()

AUTOMORPHISM_NODES = 150  # images a Graph.edge_automorphisms search may try


class Value:
    """A frozen record: equality, hashing and repr go by the attributes that
    _fields names, and none can be set or deleted once __init__ has stored
    them in the instance dict (where cached_property also writes)."""

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        vars(self).update(zip(names, args), **kwargs)  # past the frozen __setattr__

    @classmethod
    def _trusted(cls, *values):
        """A record of canonical field values, unchecked."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._fields, values))
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Value):
    """Simple undirected graph on vertex ids 0..n-1; no loops, no multi-edges."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        canon = set()
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge {u!r} {v!r} has an endpoint that is not an integer")
            if u == v:
                raise ValueError(f"loop edge {u} {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u} {v} has an endpoint outside 0..{n - 1}")
            canon.add((u, v) if u < v else (v, u))
        super().__init__(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # the edges ascend, so each vertex meets its lower neighbors (edges
        # (w, v)) before its higher ones (edges (v, u)) and each list ascends
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def edge_slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, its (neighbor, index in edges) pairs, in the order of adjacency."""
        slots = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            slots[u].append((v, i))
            slots[v].append((u, i))
        return tuple(map(tuple, slots))

    @cached_property
    def edge_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Automorphisms as the edge permutations they induce, other than the
        identity: perm[i] is the index in edges of the image of edges[i].

        One backtrack maps the vertices that have edges, each component in
        breadth-first order, to free vertices of the same degree joined to
        the images of their mapped neighbors, so every edge maps to an edge.
        It stops after AUTOMORPHISM_NODES images, so the tuple may hold only
        part of the group: a caller must be sound with any subset of it.
        The walk starts from the highest ids, so the backtrack varies the
        lowest ids first: the automorphisms found first move the first
        edges, which decide a lexicographic comparison soonest.
        """
        adj = self.adjacency
        order, free, head = [], [False] * self.n, 0
        for root in reversed(range(self.n)):
            if adj[root] and not free[root]:
                free[root] = True
                order.append(root)
                while head < len(order):
                    for w in reversed(adj[order[head]]):
                        if not free[w]:
                            free[w] = True
                            order.append(w)
                    head += 1
        # free now marks the vertices that have edges, none of them an image yet
        index = {}
        for i, (u, v) in enumerate(self.edges):
            index[u, v] = index[v, u] = i
        image, found, budget = [-1] * self.n, {}, AUTOMORPHISM_NODES

        def place(depth):
            nonlocal budget
            if depth == len(order):
                found[tuple(index[image[u], image[v]] for u, v in self.edges)] = None
                return
            v = order[depth]
            images = [image[w] for w in adj[v] if image[w] >= 0]
            for x in adj[images[0]] if images else order:
                if free[x] and len(adj[x]) == len(adj[v]) and all(y in adj[x] for y in images):
                    if not budget:
                        return
                    budget -= 1
                    image[v], free[x] = x, False
                    place(depth + 1)
                    image[v], free[x] = -1, True

        place(0)
        found.pop(tuple(range(self.m)), None)
        return tuple(found)


def smallest_last_order(adjacency) -> list:
    """Vertices in smallest-last removal order (Matula-Beck 1983).

    adjacency[v] holds the (deduplicated, undirected) neighbors of vertex v.
    Each step removes the remaining vertex of least (degree, id), so a vertex
    has at most the degeneracy neighbors removed after it. It is popped from
    one heap of ids per degree, in O((n + m) log n) overall: a degree fall
    pushes the id one bucket down and leaves a stale entry (a removed vertex
    has degree -1), and each removal lowers the least degree by at most one.
    """
    degree = [len(a) for a in adjacency]
    buckets = [[] for _ in range(max(degree, default=0) + 1)]
    for v, deg in enumerate(degree):
        buckets[deg].append(v)  # ascending ids: already a heap
    removal, low = [], 0
    for _ in degree:
        while True:
            while not buckets[low]:
                low += 1
            if degree[v := heapq.heappop(buckets[low])] == low:
                break
        degree[v] = -1
        removal.append(v)
        for u in adjacency[v]:
            if (deg := degree[u]) > 0:
                degree[u] = deg - 1
                heapq.heappush(buckets[deg - 1], u)
        low = low - 1 if low else 0  # v had the least degree
    return removal


class EdgeColoredGraph(Value):
    """A graph with a total edge coloring into 1..k, k >= 2: colors[i] is the
    color of graph.edges[i]. The constructor takes a map from edges to colors."""

    _fields = ("graph", "k", "colors")

    def __init__(self, graph: Graph, k: int, colors: Mapping[tuple[int, int], int]):
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"edge palette must be an integer k >= 2, got {k!r}")
        canon = {}
        for (u, v), c in dict(colors).items():
            e = (u, v) if u < v else (v, u)
            if e in canon:
                raise ValueError(f"edge {e[0]} {e[1]} colored twice")
            if not (isinstance(c, int) and 1 <= c <= k):
                raise ValueError(f"color {c!r} on edge {e[0]} {e[1]} outside 1..{k}")
            canon[e] = c
        if canon.keys() != set(graph.edges):
            raise ValueError("color map must cover exactly the edge set")
        super().__init__(graph, k, tuple(map(canon.__getitem__, graph.edges)))

    @cached_property
    def by_color(self) -> tuple[dict[int, set[int]], ...]:
        """For each vertex, its neighbors grouped by the color of the joining edge."""
        by_color = tuple({} for _ in range(self.graph.n))
        for (a, b), c in zip(self.graph.edges, self.colors):
            by_color[a].setdefault(c, set()).add(b)
            by_color[b].setdefault(c, set()).add(a)
        return by_color


class OrientedGraph(Value):
    """A graph with one direction per edge: heads[i] is the endpoint that
    graph.edges[i] points to. The constructor takes a map from edges to arcs."""

    _fields = ("graph", "heads")

    def __init__(self, graph: Graph, arcs: Mapping[tuple[int, int], tuple[int, int]]):
        forward = {}
        for (u, v), (tail, head) in dict(arcs).items():
            e = (u, v) if u < v else (v, u)
            if e in forward:
                raise ValueError(f"edge {e[0]} {e[1]} oriented twice")
            if {tail, head} != {e[0], e[1]}:
                raise ValueError(f"direction ({tail}, {head}) does not match edge {e[0]} {e[1]}")
            forward[e] = head == e[1]
        if forward.keys() != set(graph.edges):
            raise ValueError("direction map must cover exactly the edge set")
        super().__init__(graph, tuple(v if forward[u, v] else u for u, v in graph.edges))

    # heads follow the edge order, so each vertex meets its lower neighbors
    # first and every tuple below fills in ascending id order
    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """The tails of the edges directed into each vertex."""
        parents = [[] for _ in range(self.graph.n)]
        for (u, v), head in zip(self.graph.edges, self.heads):
            parents[head].append(u if head == v else v)
        return tuple(map(tuple, parents))

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """The heads of the edges directed out of each vertex."""
        children = [[] for _ in range(self.graph.n)]
        for (u, v), head in zip(self.graph.edges, self.heads):
            children[u if head == v else v].append(head)
        return tuple(map(tuple, children))

    @cached_property
    def max_in_degree(self) -> int:
        return max(map(len, self.parents))


class VertexColoring(Value):
    """Total vertex -> color map with a declared palette; colors are 1..palette."""

    _fields = ("palette", "assign")

    def __init__(self, palette: int, assign: Iterable[int]):
        if not isinstance(palette, int) or palette < 1:
            raise ValueError(f"palette must be a positive integer, got {palette!r}")
        assign = tuple(assign)
        for v, c in enumerate(assign):
            if not (isinstance(c, int) and 1 <= c <= palette):
                raise ValueError(f"vertex {v} colored {c!r} outside 1..{palette}")
        super().__init__(palette, assign)

    def __getitem__(self, v: int) -> int:
        return self.assign[v]

    def __len__(self) -> int:
        return len(self.assign)


class Homomorphism(Value):
    """A total vertex map into a target, as a tuple indexed by source id."""

    _fields = ("mapping",)

    def __init__(self, mapping: Iterable[int]):
        super().__init__(tuple(mapping))

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def __len__(self) -> int:
        return len(self.mapping)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]


def _parse_header(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise GraphFormatError(f"malformed header {line!r}, expected 'n m k'")
    try:
        n, m, k = (int(p) for p in parts)
    except ValueError:
        raise GraphFormatError(f"malformed header {line!r}, expected three integers") from None
    if n < 1:
        raise GraphFormatError(f"vertex count must be at least 1, got {n}")
    if m < 0:
        raise GraphFormatError(f"edge count must be nonnegative, got {m}")
    if k < 1:
        raise GraphFormatError(f"palette must be at least 1, got {k}")
    return n, m, k


def _parse_body(text: str, want_flag: bool = False):
    """(k, graph, values) of a graph file, checked in one pass in line order:
    values[i] is the color of graph.edges[i], or its head when the lines
    carry direction flags."""
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty input, expected an 'n m k' header")
    n, m, k = _parse_header(lines[0])
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edge lines, found {len(lines) - 1}")
    fields = 4 if want_flag else 3
    # one shared int per vertex id, so an id that recurs is not a new object at
    # each line; a range, which costs nothing, where the header promises more
    # vertices than the edges can name
    ids = range(n) if n > 2 * m else list(range(n))
    edges = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != fields:
            raise GraphFormatError(f"malformed edge line {line!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"malformed edge line {line!r}") from None
        if want_flag and parts[3] not in (">", "<"):
            raise GraphFormatError(f"direction flag must be '>' or '<' in {line!r}")
        if u == v:
            raise GraphFormatError(f"loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {u} {v} has an endpoint outside 0..{n - 1}")
        u, v = ids[u], ids[v]
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise GraphFormatError(f"duplicate edge {e[0]} {e[1]}")
        if not (1 <= c <= k):
            raise GraphFormatError(f"color {c} outside 1..{k}")
        edges[e] = (v if parts[3] == ">" else u) if want_flag else c
    graph = Graph._trusted(n, tuple(sorted(edges)))
    return k, graph, tuple(map(edges.__getitem__, graph.edges))


def parse_edge_colored(text: str) -> EdgeColoredGraph:
    """Parse an 'n m k' header plus 'u v c' lines into a k-edge-colored graph."""
    k, graph, colors = _parse_body(text)
    if k < 2:
        raise GraphFormatError(f"edge-colored graphs need k >= 2, got k={k}")
    return EdgeColoredGraph._trusted(graph, k, colors)


def parse_graph(text: str) -> Graph:
    """Parse a plain graph file (k = 1, all edge colors 1)."""
    k, graph, _ = _parse_body(text)
    if k != 1:
        raise GraphFormatError(f"plain graph files use k = 1, got k={k}")
    return graph


def parse_oriented(text: str) -> OrientedGraph:
    """Parse a plain graph file whose edge lines carry direction flags."""
    k, graph, heads = _parse_body(text, want_flag=True)
    if k != 1:
        raise GraphFormatError(f"oriented graph files use k = 1, got k={k}")
    return OrientedGraph._trusted(graph, heads)


def serialize(colored: EdgeColoredGraph) -> str:
    """Canonical text: header plus edge lines sorted lexicographically."""
    g = colored.graph
    lines = [f"{g.n} {g.m} {colored.k}"]
    lines += [f"{u} {v} {c}" for (u, v), c in zip(g.edges, colored.colors)]
    return "\n".join(lines) + "\n"


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m} 1"]
    lines += [f"{u} {v} 1" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def serialize_oriented(oriented: OrientedGraph) -> str:
    g = oriented.graph
    lines = [f"{g.n} {g.m} 1"]
    lines += [f"{u} {v} 1 {'>' if head == v else '<'}" for (u, v), head in zip(g.edges, oriented.heads)]
    return "\n".join(lines) + "\n"


def serialize_coloring(coloring: VertexColoring) -> str:
    lines = [f"palette {coloring.palette}"]
    lines += [f"{v} {c}" for v, c in enumerate(coloring.assign)]
    return "\n".join(lines) + "\n"


def serialize_homomorphism(hom: Homomorphism) -> str:
    return "\n".join(f"{u} {t}" for u, t in enumerate(hom.mapping)) + "\n"


def parse_homomorphism(text: str) -> Homomorphism:
    entries = {}
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed homomorphism line {line!r}")
        try:
            u, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"malformed homomorphism line {line!r}") from None
        if u in entries:
            raise GraphFormatError(f"vertex {u} mapped twice")
        entries[u] = t
    n = len(entries)
    if set(entries) != set(range(n)):
        raise GraphFormatError("homomorphism lines must cover vertex ids 0..n-1 exactly once")
    return Homomorphism(entries[u] for u in range(n))
