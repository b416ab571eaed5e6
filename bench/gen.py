"""Seeded inputs for the benchmark: graph families, exact in-degree bounds,
and the operation list of each workload.

Nothing here imports ``ectarget``; the program only ever sees the files this
module writes. Every family is built in a construction order that comes with
a cheap orientation, then relabelled by a seeded permutation so that vertex
ids carry no trace of that order. The minimum in-degree bound d of every
input is computed here by path reversal (Hakimi), independently of the
program's max-flow code.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import deque
from dataclasses import dataclass, field

import check

# ---------------------------------------------------------------------------
# families: each returns (n, arcs) with arcs as (tail, head) pairs
# ---------------------------------------------------------------------------


def stacked_triangulation(n: int, rng: random.Random):
    """Maximal planar graph grown by splitting a random face; each new vertex
    takes its three arcs from the corners of the split face."""
    arcs = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        faces[i], faces[-1] = faces[-1], faces[i]
        a, b, c = faces.pop()
        arcs += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return n, arcs


def grid(rows: int, cols: int):
    arcs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                arcs.append((v, v + 1))
            if r + 1 < rows:
                arcs.append((v, v + cols))
    return rows * cols, arcs


def planted_clique(n: int, t: int, rng: random.Random):
    """Stacked triangulation plus a clique on t random vertices.

    Clique pairs are oriented as a rotational tournament, so every clique
    vertex starts with in-degree about (t-1)/2 plus its triangulation arcs.
    """
    n, arcs = stacked_triangulation(n, rng)
    core = sorted(rng.sample(range(n), t))
    inside = set(core)
    arcs = [(a, b) for a, b in arcs if not (a in inside and b in inside)]
    for i, j in itertools.combinations(range(t), 2):
        # i beats j when j - i <= t // 2 going round the circle
        arcs.append((core[i], core[j]) if j - i <= t // 2 else (core[j], core[i]))
    return n, arcs


def subdivided_clique(t: int):
    """Clique on t branch vertices with every edge subdivided once."""
    arcs = []
    for i, (u, v) in enumerate(itertools.combinations(range(t), 2)):
        mid = t + i
        arcs += [(u, mid), (v, mid)]
    return t + t * (t - 1) // 2, arcs


def relabel(n: int, arcs, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in arcs]


# ---------------------------------------------------------------------------
# exact minimum in-degree bound
# ---------------------------------------------------------------------------


def min_in_degree(n: int, arcs, lower: int = 0) -> tuple[int, list]:
    """Smallest d such that the graph has an orientation with in-degree <= d,
    with such an orientation as the list of each vertex's parents.

    Starts from the given orientation and repeatedly reverses a path from an
    overloaded vertex to one with spare in-degree. When no such path exists,
    the vertices that reach the overloaded one carry more than d edges per
    vertex, so d goes up by one. ``lower`` is any known lower bound.
    """
    ins = [set() for _ in range(n)]
    for a, b in arcs:
        ins[b].add(a)
    d = max(lower, -(-len(arcs) // n))
    for v in range(n):
        while len(ins[v]) > d:
            if not _reverse_path(ins, v, d):
                d += 1
    return d, ins


def _reverse_path(ins, v: int, d: int) -> bool:
    prev = {v: None}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in ins[x]:
            if y in prev:
                continue
            prev[y] = x
            if len(ins[y]) < d:
                # reverse y -> x, then each arc on the way back to v
                while prev[y] is not None:
                    x = prev[y]
                    ins[x].remove(y)
                    ins[y].add(x)
                    y = x
                return True
            queue.append(y)
    return False


# ---------------------------------------------------------------------------
# inputs and operations
# ---------------------------------------------------------------------------


@dataclass
class Input:
    """One generated graph file with what the benchmark knows about it."""

    name: str
    n: int
    edges: list
    k: int
    d: int
    colors: list = field(default_factory=list)
    parents: list = field(default_factory=list, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        colors = self.colors or [1] * self.m
        lines = [f"{self.n} {self.m} {self.k}"]
        lines += [f"{u} {v} {c}" for (u, v), c in zip(self.edges, colors)]
        return "\n".join(lines) + "\n"

    def record(self) -> dict:
        return {"name": self.name, "n": self.n, "m": self.m, "k": self.k, "d": self.d}


@dataclass
class Op:
    """One CLI invocation: arguments after ``ectarget``, expected exit code,
    and what the independent checker needs to judge the output."""

    argv: list
    exit: int
    check: dict


def make_input(name, n, arcs, rng, k=1, lower=0) -> Input:
    arcs = relabel(n, arcs, rng)
    d, parents = min_in_degree(n, arcs, lower)
    edges = sorted((a, b) if a < b else (b, a) for a, b in arcs)
    rng.shuffle(edges)  # file order carries no structure either
    colors = [rng.randint(1, k) for _ in edges] if k > 1 else []
    return Input(name, n, edges, k, d, colors, parents)


# Sizes are scaled so that one pass of each workload takes a few seconds on
# one core. Where an input's cost depends on its random structure or vertex
# labels, the pass holds several smaller inputs of that kind, so that one
# seed's draw moves the pass time less.
SIZES = {
    "fit_target": {"tri": [220] * 3, "grid": [13] * 2, "planted": [(260, 20)] * 3},
    "class_target": {"tri": [20, 20]},
    "large_sparse": {"tri": [1500] * 4, "q": 64, "d": 3},
}

WORKLOADS = ("fit_target", "class_target", "large_sparse", "oracle")


def build(workload: str, seed: int, workdir: str, run_cli) -> tuple[list, list]:
    """Write the workload's input files into workdir and return (inputs, ops).

    run_cli(argv) runs the program and returns its stdout; it is used only
    to read the planar class parameters the target header is built from.
    """
    rng = random.Random(f"{workload}:{seed}")
    builder = {
        "fit_target": _fit_target,
        "class_target": _class_target,
        "large_sparse": _large_sparse,
        "oracle": _oracle,
    }[workload]
    inputs, ops = builder(rng, workdir, run_cli)
    for inp in inputs:
        _write(workdir, inp.name + ".txt", inp.text())
    return inputs, ops


def _write(workdir: str, name: str, text: str) -> None:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def _map_op(workdir, inp, seed, header=None):
    argv = ["map", os.path.join(workdir, inp.name + ".txt"), "--seed", str(seed)]
    if header is not None:
        argv += ["--target", os.path.join(workdir, header)]
    argv += ["--output", os.path.join(workdir, inp.name + ".hom")]
    return Op(argv, 0, {"kind": "map", "input": inp.name, "target": header})


def _fit_target(rng, workdir, run_cli):
    size = SIZES["fit_target"]
    k = 3
    inputs = [
        make_input(f"tri{i}", *stacked_triangulation(n, rng), rng, k)
        for i, n in enumerate(size["tri"])
    ]
    inputs += [make_input(f"grid{i}", *grid(s, s), rng, k) for i, s in enumerate(size["grid"])]
    for i, (n, t) in enumerate(size["planted"]):
        arcs = planted_clique(n, t, rng)[1]
        inputs.append(make_input(f"planted{i}", n, arcs, rng, k, lower=-(-(t - 1) // 2)))
    ops = [_map_op(workdir, inp, rng.randrange(1000)) for inp in inputs]
    return inputs, ops


def _class_target(rng, workdir, run_cli):
    k = 3
    report = json.loads(run_cli(["bounds", "planar", "--k", str(k)]))
    r, d = report["parameters"]["r"], report["parameters"]["d"]
    q = 8 * d * r**4
    _write(workdir, "class.json", json.dumps({"q": q, "d": d, "k": k}) + "\n")
    inputs, ops = [], []
    for i, n in enumerate(SIZES["class_target"]["tri"]):
        inp = make_input(f"tri{i}", *stacked_triangulation(n, rng), rng, k)
        inputs.append(inp)
        op = _map_op(workdir, inp, rng.randrange(1000), "class.json")
        ops.append(op)
        verify = ["verify", op.argv[1], os.path.join(workdir, "class.json"), op.argv[-1]]
        ops.append(Op(verify, 0, {"kind": "verify", "input": inp.name}))
    return inputs, ops


def _large_sparse(rng, workdir, run_cli):
    size = SIZES["large_sparse"]
    k = 3
    header = {"q": size["q"], "d": size["d"], "k": k}
    _write(workdir, "sparse.json", json.dumps(header) + "\n")
    inputs = [
        make_input(f"tri{i}", *stacked_triangulation(n, rng), rng, k) for i, n in enumerate(size["tri"])
    ]
    return inputs, [_map_op(workdir, inp, rng.randrange(1000), "sparse.json") for inp in inputs]


def _oracle(rng, workdir, run_cli):
    """Exhaustive searches whose answers the paper's theorems predict.

    Positive pairs use the (q, d, k) target with d the graph's minimum
    in-degree bound and q a palette for which an out-coloring exists, so the
    target is universal. Negative pairs use a target with fewer than
    k^density vertices, so a counterexample must exist.
    """
    inputs = [make_input(f"grid2x4_{i}", *grid(2, 4), rng) for i in range(3)]
    inputs += [
        make_input("grid2x3", *grid(2, 3), rng),
        make_input("subk3", *subdivided_clique(3), rng),
        make_input("tri6", *stacked_triangulation(6, rng), rng),
        make_input("grid2x2", *grid(2, 2), rng),
        make_input("path5", *grid(1, 5), rng),
        make_input("tri3", *stacked_triangulation(3, rng), rng),
    ]
    ops = []
    for inp in inputs[:5]:
        q = check.out_palette(inp.n, inp.edges, inp.parents)
        ops.append(_universal_op(workdir, inp, q, inp.d, 2, True))
    tri = inputs[5]
    dens = check.max_density(tri.n, tri.edges)
    for q, d, k in [(3, 0, 2), (1, 2, 3)]:
        # fewer than k^density vertices: p^den < k^num
        p = check.TupleTarget(q, d, k).vertex_count
        assert p**dens.denominator < k**dens.numerator
        ops.append(_universal_op(workdir, tri, q, d, k, False))
    small = inputs[6:]
    paths = [os.path.join(workdir, inp.name + ".txt") for inp in small]
    argv = ["min-target", *paths, "--k", "2", "--max-p", "5"]
    names = [inp.name for inp in small]
    ops.append(Op(argv, 0, {"kind": "min_target", "inputs": names, "k": 2}))
    return inputs, ops


def _universal_op(workdir, inp, q, d, k, universal):
    header = f"u{q}_{d}_{k}.json"
    _write(workdir, header, json.dumps({"q": q, "d": d, "k": k}) + "\n")
    argv = [
        "check-universal",
        os.path.join(workdir, header),
        "--graph",
        os.path.join(workdir, inp.name + ".txt"),
        "--k",
        str(k),
    ]
    check = {"kind": "check_universal", "input": inp.name, "k": k, "universal": universal}
    return Op(argv, 0 if universal else 1, check)
