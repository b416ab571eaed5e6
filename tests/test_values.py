"""Value semantics of the ten frozen record types, and the README's library
example run end to end.

Each record compares, hashes and prints by its fields, in the dataclass
format, and refuses assignment and deletion after construction.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ectarget.bounds import BoundReport, PowerBound
from ectarget.density import Density
from ectarget.graphs import EdgeColoredGraph, Graph, Homomorphism, Limits, OrientedGraph, VertexColoring
from ectarget.out_coloring import OutColoringCertificate

README = Path(__file__).resolve().parent.parent / "README.md"

# type -> (build(x), where build(0) == build(0) != build(1), repr of build(0))
RECORDS = {
    Graph: (
        lambda x: Graph(3, [(1, 0), (2, 1)][: 2 - x]),
        "Graph(n=3, edges=((0, 1), (1, 2)))",
    ),
    EdgeColoredGraph: (
        lambda x: EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(1, 0): 1 + x}),
        "EdgeColoredGraph(graph=Graph(n=2, edges=((0, 1),)), k=2, colors=(1,))",
    ),
    OrientedGraph: (
        lambda x: OrientedGraph(Graph(2, [(0, 1)]), {(0, 1): (1 - x, x)}),
        "OrientedGraph(graph=Graph(n=2, edges=((0, 1),)), heads=(0,))",
    ),
    VertexColoring: (
        lambda x: VertexColoring(2, [1 + x, 2 - x]),
        "VertexColoring(palette=2, assign=(1, 2))",
    ),
    Homomorphism: (
        lambda x: Homomorphism([x, 1 - x]),
        "Homomorphism(mapping=(0, 1))",
    ),
    Density: (
        lambda x: Density(Fraction(3 + x, 2), (0, 1, 2, 3)),
        "Density(value=Fraction(3, 2), witness=(0, 1, 2, 3))",
    ),
    PowerBound: (
        lambda x: PowerBound(3, Fraction(3, 2 + x)),
        "PowerBound(base=3, exponent=Fraction(3, 2))",
    ),
    BoundReport: (
        lambda x: BoundReport(1, 2 + x, {"k": 2}, {"note": "x"}),
        "BoundReport(lower=1, upper=2, parameters={'k': 2}, notes={'note': 'x'})",
    ),
    OutColoringCertificate: (
        lambda x: OutColoringCertificate(VertexColoring(2, [1, 2]), 8 + x, {"R1": 1}),
        "OutColoringCertificate(coloring=VertexColoring(palette=2, assign=(1, 2)), budget=8, rule_counts={'R1': 1})",
    ),
    Limits: (
        lambda x: Limits(graph_n=4 + x),
        "Limits(exact_coloring_n=20, search_source_n=12, search_target_n=64, colorings=1000000, "
        "min_target_p=5, explicit_vertices=1000, count_table_bytes=33554432, "
        "graph_n=4)",
    ),
}
HASHABLE = {Graph, EdgeColoredGraph, OrientedGraph, VertexColoring, Homomorphism, Density, PowerBound, Limits}
FIELD = {
    Graph: "n",
    EdgeColoredGraph: "k",
    OrientedGraph: "graph",
    VertexColoring: "palette",
    Homomorphism: "mapping",
    Density: "value",
    PowerBound: "base",
    BoundReport: "lower",
    OutColoringCertificate: "budget",
    Limits: "graph_n",
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_format(cls):
    build, text = RECORDS[cls]
    assert repr(build(0)) == text


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_is_by_fields(cls):
    build, _ = RECORDS[cls]
    a, b, other = build(0), build(0), build(1)
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and not a == "a record"


def test_edge_records_from_reordered_maps_are_equal_and_aligned_with_the_edges():
    graph = Graph(5, [(3, 4), (0, 1), (2, 0), (1, 3), (4, 1)])
    colors = {(0, 1): 2, (0, 2): 1, (1, 3): 3, (1, 4): 1, (3, 4): 2}
    arcs = {(0, 1): (1, 0), (0, 2): (0, 2), (1, 3): (3, 1), (1, 4): (1, 4), (3, 4): (4, 3)}
    reordered = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(random.Random(5).sample(sorted(colors), 5))]
    pairs = [(e, tuple(sorted(e))) for e in reordered]
    colored = {EdgeColoredGraph(graph, 3, colors), EdgeColoredGraph(graph, 3, {e: colors[s] for e, s in pairs})}
    oriented = {OrientedGraph(graph, arcs), OrientedGraph(graph, {e: arcs[s] for e, s in pairs})}
    assert len(colored) == len(oriented) == 1
    (colored,), (oriented,) = colored, oriented
    assert colored.colors == tuple(colors[e] for e in graph.edges) == (2, 1, 3, 1, 2)
    assert oriented.heads == tuple(arcs[e][1] for e in graph.edges) == (0, 2, 1, 4, 3)


def test_equal_looking_fields_of_another_type_differ():
    assert Homomorphism([0]) != VertexColoring(1, [1])
    assert not Homomorphism([0]) == VertexColoring(1, [1])
    assert Density(2, (0,)) != PowerBound(2, (0,))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_hash(cls):
    build, _ = RECORDS[cls]
    if cls in HASHABLE:
        assert hash(build(0)) == hash(build(0))
        assert len({build(0), build(0), build(1)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(build(0))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_frozen(cls):
    build, text = RECORDS[cls]
    record, name = build(0), FIELD[cls]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


def test_a_record_refuses_the_wrong_number_of_fields():
    with pytest.raises(TypeError, match=r"^Density takes the fields value, witness$"):
        Density(1)


@pytest.mark.parametrize(
    "record, name",
    [
        (Graph(3, [(1, 0), (2, 1)]), "adjacency"),
        (EdgeColoredGraph(Graph(2, [(0, 1)]), 2, {(0, 1): 1}), "by_color"),
        (OrientedGraph(Graph(3, [(0, 1), (1, 2)]), {(0, 1): (0, 1), (1, 2): (2, 1)}), "max_in_degree"),
    ],
)
def test_cached_attributes_are_computed_once(record, name):
    first = getattr(record, name)
    assert vars(record)[name] is first
    assert getattr(record, name) is first


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["d"] == 2
    assert namespace["target"].k == namespace["source"].k == 2
    assert len(namespace["hom"]) == namespace["g"].n == 4
