"""Independent checks of the program's outputs.

None of this calls the program's own verifiers. Map results are checked by
unranking every image with a separate implementation of the tuple order and
re-deriving each edge color with the rule min(v[u0], u[v0]). Oracle answers
are checked against what the paper's theorems predict for the generated
inputs. Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from fractions import Fraction


class TupleTarget:
    """The (q, d, k) tuple target: vertices (i, x_1..x_q), i in 1..q, each
    x_j in 1..k, at most d of them different from k, in lexicographic order.

    counts[L][r] is the number of length-L suffixes with at most r entries
    other than k, from counts[L][r] = counts[L-1][r] + (k-1)*counts[L-1][r-1].
    """

    def __init__(self, q: int, d: int, k: int):
        self.q, self.d, self.k = q, min(d, q), k
        counts = [[1] * (self.d + 1)]
        for _ in range(q):
            prev = counts[-1]
            counts.append([prev[0]] + [prev[r] + (k - 1) * prev[r - 1] for r in range(1, self.d + 1)])
        self.counts = counts
        self.columns = [[row[r] for row in counts] for r in range(self.d + 1)]
        self.block = counts[q][self.d]
        self.vertex_count = q * self.block

    def unrank(self, idx: int) -> tuple:
        """Tuple with the given id, skipping each run of k digits by bisection.

        At position t with budget b the digits 1..k-1 cover the first
        (k-1)*counts[q-t][b-1] suffixes and k covers the rest; a run of k
        digits from t to s-1 therefore subtracts
        counts[q-t+1][b] - counts[q-s+1][b] from the remainder.
        """
        if not 0 <= idx < self.vertex_count:
            raise ValueError(f"vertex id {idx} outside 0..{self.vertex_count - 1}")
        q, k, c = self.q, self.k, self.counts
        lead, rem = divmod(idx, self.block)
        digits = [k] * q
        t, b = 1, self.d
        while b > 0 and t <= q:
            threshold = c[q - t + 1][b] - rem
            # largest suffix length L <= q - t with counts[L][b] < threshold
            length = bisect_left(self.columns[b], threshold, 0, q - t + 1) - 1
            if length < 0:
                break
            s = q - length
            rem -= c[q - t + 1][b] - c[q - s + 1][b]
            x, rem = divmod(rem, c[q - s][b - 1])
            digits[s - 1] = x + 1
            t, b = s + 1, b - 1
        return (lead + 1, *digits)


def edge_color(u: tuple, v: tuple) -> int:
    return min(v[u[0]], u[v[0]])


def _stdout_json(stdout: bytes, problems: list):
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append("stdout is not JSON")
        return None


def check_map(inp, stdout: bytes, hom_text: str, header: dict | None) -> tuple[list, float]:
    """Problems with one map result, and log2 of its target's vertex count."""
    problems = []
    out = _stdout_json(stdout, problems)
    if out is None:
        return problems, 0.0
    if out.get("verified") is not True:
        problems.append("verified is not true")
    if (out.get("n"), out.get("m"), out.get("k")) != (inp.n, inp.m, inp.k):
        problems.append("n, m or k differ from the input")
    spec = out.get("target", {})
    q, d, k = spec.get("q"), spec.get("d"), spec.get("k")
    if header is not None and (q, k) != (header["q"], header["k"]):
        problems.append("target differs from the header given")
    if header is not None and d != min(header["d"], header["q"]):
        problems.append("target d differs from the header given")
    target = TupleTarget(q, d, k)
    if spec.get("vertex_count") != target.vertex_count:
        problems.append("target vertex_count disagrees with the tuple count")
    palette = out.get("out_palette")
    if not isinstance(palette, int) or palette > q:
        problems.append(f"out palette {palette} exceeds q={q}")
    if header is None and (out.get("max_in_degree"), d) != (inp.d, inp.d):
        problems.append(f"fitted in-degree bound is not the minimum {inp.d}")
    if header is not None and out.get("max_in_degree", d + 1) > d:
        problems.append("orientation exceeds the target's in-degree bound")
    images = []
    for line in hom_text.splitlines():
        u, t = (int(x) for x in line.split())
        if u != len(images):
            problems.append("homomorphism file is not in vertex order")
            return problems, 0.0
        images.append(t)
    if images != out.get("homomorphism"):
        problems.append("homomorphism file differs from stdout")
    if len(images) != inp.n or not all(0 <= t < target.vertex_count for t in images):
        problems.append("homomorphism is not a total map into the target")
        return problems, 0.0
    tuples = [target.unrank(t) for t in images]
    if len({tup[0] for tup in tuples}) > palette:
        problems.append("images use more leading colors than the out palette")
    bad = sum(
        1
        for (u, v), c in zip(inp.edges, inp.colors)
        if tuples[u] == tuples[v] or edge_color(tuples[u], tuples[v]) != c
    )
    if bad:
        problems.append(f"{bad} source edges map to a missing or wrongly colored target edge")
    return problems, math.log2(target.vertex_count)


def check_verify(stdout: bytes) -> list:
    problems = []
    out = _stdout_json(stdout, problems)
    if out is not None and out != {"verified": True}:
        problems.append("verify did not accept the emitted homomorphism")
    return problems


def check_universal(inp, stdout: bytes, k: int, universal: bool) -> list:
    """The answer must match the prediction; a counterexample must be a
    k-edge-coloring of exactly the input graph."""
    problems = []
    out = _stdout_json(stdout, problems)
    if out is None:
        return problems
    if out.get("universal") is not universal:
        problems.append(f"expected universal={universal}, got {out.get('universal')}")
    if not universal:
        lines = out.get("counterexample") or ["0 0 0"]
        if lines[0] != f"{inp.n} {inp.m} {k}":
            problems.append("counterexample header does not match the input")
        edges, colors = _colored_edges(lines[1:])
        if sorted(edges) != sorted(inp.edges) or not all(1 <= c <= k for c in colors):
            problems.append("counterexample is not a k-coloring of the input graph")
    return problems


def check_min_target(inputs, stdout: bytes, k: int) -> list:
    """The found target must be at least k^density in size (the lower bound
    theorem) and admit a homomorphism from every k-coloring of every input,
    found here by brute force."""
    problems = []
    out = _stdout_json(stdout, problems)
    if out is None:
        return problems
    if out.get("found") is not True:
        return problems + ["no target found"]
    p = out["size"]
    lines = out["target"]
    if lines[0].split()[0] != str(p) or lines[0].split()[2] != str(k):
        problems.append("target header does not match its size")
    edges, colors = _colored_edges(lines[1:])
    adjacency = {}
    for (a, b), c in zip(edges, colors):
        adjacency[(a, b)] = adjacency[(b, a)] = c
    for inp in inputs:
        dens = max_density(inp.n, inp.edges)
        if p**dens.denominator < k**dens.numerator:
            problems.append(f"size {p} is below the k^density bound of {inp.name}")
        for combo in itertools.product(range(1, k + 1), repeat=inp.m):
            if not _has_hom(inp.n, list(zip(inp.edges, combo)), p, adjacency):
                problems.append(f"a coloring of {inp.name} has no homomorphism")
                break
    return problems


def _colored_edges(lines):
    edges, colors = [], []
    for line in lines:
        u, v, c = (int(x) for x in line.split())
        edges.append((u, v) if u < v else (v, u))
        colors.append(c)
    return edges, colors


def _has_hom(n: int, colored_edges, p: int, adjacency: dict) -> bool:
    assign = [-1] * n

    def rec(v):
        if v == n:
            return True
        for image in range(p):
            assign[v] = image
            if all(
                adjacency.get((assign[a], assign[b])) == c
                for (a, b), c in colored_edges
                if max(a, b) == v
            ):
                if rec(v + 1):
                    return True
        assign[v] = -1
        return False

    return rec(0)


def max_density(n: int, edges) -> Fraction:
    """Maximum |E'|/|V'| by enumerating vertex subsets (tiny graphs only)."""
    best = Fraction(0)
    masks = [(1 << u) | (1 << v) for u, v in edges]
    for subset in range(1, 1 << n):
        inside = sum(1 for e in masks if e & subset == e)
        best = max(best, Fraction(inside, bin(subset).count("1")))
    return best


def out_palette(n: int, edges, parents) -> int:
    """Fewest colors of an out-coloring of the given orientation (tiny graphs).

    Two vertices conflict when adjacent (C1), when both are parents of one
    vertex (C2) or when one is a grandparent of the other (C3); the answer is
    the chromatic number of that conflict graph, found by backtracking.
    """
    conflict = [set() for _ in range(n)]

    def add(a, b):
        if a != b:
            conflict[a].add(b)
            conflict[b].add(a)

    for u, v in edges:
        add(u, v)
    for v in range(n):
        for a, b in itertools.combinations(parents[v], 2):
            add(a, b)
        for p in parents[v]:
            for g in parents[p]:
                add(v, g)
    order = sorted(range(n), key=lambda v: -len(conflict[v]))
    colors = [0] * n

    def rec(i, q):
        if i == n:
            return True
        v = order[i]
        used = {colors[u] for u in conflict[v]}
        for c in range(1, q + 1):
            if c not in used:
                colors[v] = c
                if rec(i + 1, q):
                    return True
        colors[v] = 0
        return False

    q = 1
    while not rec(0, q):
        q += 1
    return q
