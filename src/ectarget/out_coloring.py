"""Out-colorings of oriented graphs: two verified constructions.

An out-coloring of an oriented graph satisfies three conditions:

    C1  adjacent vertices get different colors,
    C2  distinct parents of a vertex get different colors,
    C3  a vertex and each of its grandparents get different colors,

where a parent is the tail of an incoming edge and a grandparent sits two
steps back along incoming edges. Restricted to the underlying graph, every
out-coloring is a star coloring (and hence acyclic). A homomorphism of one
source with edge colors c needs only C1 and

    C2' parents p and p' of u get different colors if c(u, p) != c(u, p'),
    C3' u and a grandparent g reached through p get different colors if
        c(p, g) < c(u, p),

which every C1-C3 coloring satisfies. A fitted ``map`` asks for these;
``map --target``, ``out-color`` and ``out_coloring_from_universal`` keep
C1-C3. ``verify_out_coloring`` checks C1-C3, or C1, C2' and C3' when it is
given edge colors; it is defined in ``universal``, beside
``build_homomorphism``, which checks its out-coloring with it too, and is
importable from here.

``build_out_coloring`` colors the C1-C3 (or C1/C2'/C3') conflicts directly
in smallest-last order and emits that coloring when it fits the 2*d*s*s
palette budget of the two-stage construction (a star coloring of the
underlying graph paired with a greedy coloring of an auxiliary conflict
digraph), which it builds only when the direct one does not fit.
``out_coloring_from_universal`` goes the other way: given any target graph
that is universal for the underlying graph, it assembles an out-coloring
from homomorphism images and a small conflict repair, within a (2d+1)*p^m
budget.
"""

from __future__ import annotations

import json

from .coloring import verify_star
from .graphs import LIMITS, EdgeColoredGraph, Limits, OrientedGraph, Value, VertexColoring, _check_ints, smallest_last_order
from .universal import find_homomorphism, verify_out_coloring


class TargetNotUniversal(Exception):
    """A supposedly universal target admitted no homomorphism for a coloring.

    The offending edge-colored graph is attached as the witness.
    """

    def __init__(self, witness: EdgeColoredGraph):
        super().__init__(
            "target is not universal: a derived edge coloring admits no homomorphism"
        )
        self.witness = witness


class OutColoringCertificate(Value):
    """A verified out-coloring plus its declared palette budget.

    budget and rule_counts describe the construction that proves the budget;
    the palette may sit far below it. rule_counts maps each rule that added an
    auxiliary edge to the number of triples it fired on, in the order the
    rules first fired.
    """

    _fields = ("coloring", "budget", "rule_counts")


def _degeneracy_greedy(adjacency: list, max_colors: int) -> list:
    """Greedy coloring in reverse smallest-last order (Matula-Beck 1983).

    adjacency[v] is a sequence of the (deduplicated, undirected) neighbors of
    vertex v, in any order. Every vertex keeps at most max_colors - 1 colored
    neighbors at assignment time, which the caller guarantees via a degree bound.
    """
    colors = [0] * len(adjacency)
    for v in reversed(smallest_last_order(adjacency)):
        used = {colors[u] for u in adjacency[v]}
        c = 1
        while c in used:
            c += 1
        if c > max_colors:
            raise AssertionError(f"greedy coloring exceeded {max_colors} colors")
        colors[v] = c
    return colors


def _flatten(tuples: list) -> VertexColoring:
    """Map observed colors (tuples or integers) to integers by rank (1-based)."""
    ranks = {t: i + 1 for i, t in enumerate(sorted(set(tuples)))}
    return VertexColoring(len(ranks), [ranks[t] for t in tuples])


def _certify(oriented: OrientedGraph, tuples: list, budget: int, rule_counts: dict, colors=None) -> OutColoringCertificate:
    """Flatten per-vertex colors and verify the result before returning it."""
    coloring = _flatten(tuples)
    if coloring.palette > budget:
        raise AssertionError("out-coloring palette exceeded its budget")
    if not verify_out_coloring(oriented, coloring, colors):
        raise AssertionError("constructed out-coloring failed verification")
    return OutColoringCertificate(coloring, budget, rule_counts)


def build_out_coloring(oriented: OrientedGraph, star: VertexColoring, colors=None) -> OutColoringCertificate:
    """Out-coloring from a star coloring of the underlying graph, under
    C1-C3, or under C1, C2' and C3' for the edge colors colors, aligned
    with the graph's edges, when they are given.

    The budget comes from an auxiliary digraph on the vertex set, with two
    rules over triples (b, x, a) of vertices:

        R1  a and b are distinct parents of x with equal star colors,
        R2  b is a parent of x, x is a parent of a, and the star colors of a
            and b are equal,

    each adding the edge b -> a. Star colorings admit at most d * (s - 1)
    such triples per head, so a greedy coloring of the auxiliary graph in
    degeneracy order needs at most 2*d*s colors. Pairing it with the star
    coloring yields an out-coloring within the 2*d*s*s budget.

    The coloring emitted is the same greedy run on the C1-C3 conflict graph
    directly, whenever it fits that budget. Otherwise the two-stage coloring
    is built from the same conflict sets: the auxiliary graph is the
    conflict graph within each star color class, since C1 pairs differ in
    star color, equal-colored C2 pairs are R1 pairs and equal-colored C3
    pairs are R2 pairs. The budget and rule counts describe the two-stage
    construction either way. The C1/C2'/C3' conflicts are some of the
    C1-C3 ones, so within a star color class they still fit that budget.
    """
    graph = oriented.graph
    if colors is not None and len(colors) != graph.m:
        raise ValueError(f"expected {graph.m} edge colors, one per edge, got {len(colors)}")
    if not verify_star(graph, star):
        raise ValueError("star coloring failed verification")
    d = oriented.max_in_degree
    s, col = star.palette, star.assign
    if d == 0:
        return _certify(oriented, [()] * graph.n, 1, {})
    parents, children = oriented.parents, oriented.children
    rule_counts = {}
    in_degrees = [0] * graph.n
    conflicts = []
    if colors is not None:
        # each vertex's (parent, edge color) and (child, edge color) pairs
        up, down = [[] for _ in parents], [[] for _ in parents]
        for (u, v), head, c in zip(graph.edges, oriented.heads, colors):
            tail = u if head == v else v
            up[head].append((tail, c))
            down[tail].append((head, c))
    for x, ps in enumerate(parents):
        cs = children[x]
        # R1 fires tally[c] - 1 times at each parent of star color c, R2 tally[c] at each child
        tally = {}
        for b in ps:
            tally[col[b]] = tally.get(col[b], 0) + 1
        for rule, heads, self_pair in (("R1", ps, 1), ("R2", cs, 0)):
            for a in heads:
                if times := tally.get(col[a], 0) - self_pair:
                    rule_counts[rule] = rule_counts.get(rule, 0) + times
                    in_degrees[a] += times
        # C1, C2 and C3 keep x apart from its parents and children, the other
        # parents of its children, its grandparents and its grandchildren
        near = {*ps, *cs}
        if colors is None:
            for p in ps:
                near.update(parents[p])
            for c in cs:
                near.update(parents[c])
                near.update(children[c])
        else:  # C3' grandparents below, C2' co-parents across edge colors, C3' grandchildren above
            near.update([g for p, cx in up[x] for g, cg in up[p] if cg < cx])
            near.update([y for c, cx in down[x] for y, cy in up[c] if cy != cx])
            near.update([w for c, cx in down[x] for w, cw in down[c] if cw > cx])
        near.discard(x)
        conflicts.append(tuple(near))  # a quarter of the set's size
    if max(in_degrees) > d * (s - 1):
        raise AssertionError("auxiliary digraph in-degree bound violated")
    up = down = in_degrees = None  # each step below frees what it no longer needs
    budget = 2 * d * s * s
    tuples = _degeneracy_greedy(conflicts, graph.n)
    if max(tuples) > budget:
        same = [[a for a in near if col[a] == col[x]] for x, near in enumerate(conflicts)]
        tuples = list(zip(col, _degeneracy_greedy(same, 2 * d * s)))
    conflicts = same = None
    return _certify(oriented, tuples, budget, rule_counts, colors)


def out_coloring_from_universal(
    oriented: OrientedGraph,
    target: EdgeColoredGraph,
    k: int,
    limits: Limits = LIMITS,
) -> OutColoringCertificate:
    """Out-coloring assembled from homomorphisms into a universal target.

    Parents of each vertex are numbered in ascending id order. With
    m = max(1, ceil(log_k d)), the base-k digits of the parent numbers define
    m edge colorings of the underlying graph; a homomorphism into the target
    is found for each, and the image tuples already satisfy C1, C2 and every
    C3 pair with distinct parent numbers. The remaining conflicts (a vertex
    against the grandparent reached twice through the same parent number) form
    a digraph of in-degree at most d, repaired with a greedy 2d+1 coloring.
    The palette stays within (2d+1) * p^m for a p-vertex target.

    Raises TargetNotUniversal when one of the derived colorings admits no
    homomorphism, with that coloring as a witness.
    """
    from .bounds import ceil_log  # on first use: only this construction needs it

    _check_ints(k=k)
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    graph = oriented.graph
    d = oriented.max_in_degree
    p = target.graph.n
    digits = max(1, ceil_log(max(d, 1), k))
    parents = oriented.parents
    seen = [0] * graph.n  # the edges into a head come in the order of its parents
    numbers = []
    for head in oriented.heads:
        numbers.append(seen[head])
        seen[head] += 1
    hom_images = []
    for i in range(digits):
        derived = EdgeColoredGraph._trusted(graph, k, tuple(j // k**i % k + 1 for j in numbers))
        hom = find_homomorphism(derived, target, limits)
        if hom is None:
            raise TargetNotUniversal(derived)
        hom_images.append(hom.mapping)
    rule_counts = {}
    conflicts = [set() for _ in range(graph.n)]
    for w, ps in enumerate(parents):
        for a, mid in enumerate(ps, start=1):
            grand = parents[mid]
            if len(grand) >= a:
                u = grand[a - 1]
                rule_counts["C3"] = rule_counts.get("C3", 0) + 1
                conflicts[u].add(w)
                conflicts[w].add(u)
    repair = _degeneracy_greedy(conflicts, 2 * d + 1)
    tuples = [tuple(h[v] for h in hom_images) + (repair[v],) for v in range(graph.n)]
    return _certify(oriented, tuples, (2 * d + 1) * p**digits, rule_counts)


def serialize_certificate(certificate: OutColoringCertificate) -> str:
    """JSON header line with palette, budget and rule counts, then 'v c' lines."""
    header = json.dumps(
        {
            "palette": certificate.coloring.palette,
            "budget": certificate.budget,
            "rule_counts": certificate.rule_counts,
        },
        sort_keys=True,
    )
    lines = [header]
    lines += [f"{v} {c}" for v, c in enumerate(certificate.coloring.assign)]
    return "\n".join(lines) + "\n"
