"""Every size limit at its boundary: a value equal to the limit passes, one above it is refused."""

from dataclasses import fields, replace

import pytest

from ectarget import cli
from ectarget.coloring import exact_star_coloring
from ectarget.graphs import LIMITS, EdgeColoredGraph, Graph, GuardExceeded, Limits
from ectarget.universal import build_universal, check_universal, find_homomorphism, min_universal_size
from helpers import path

POINT = EdgeColoredGraph(Graph(1), 2, {})
P3_TARGET = EdgeColoredGraph(path(3), 2, {(0, 1): 1, (1, 2): 2})


def read_by_cli(limits):
    """Check a parsed 5-vertex graph file as the command line does, which
    reads its limits from cli.LIMITS."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "LIMITS", limits)
        cli._sized(Graph(5))


# limit name -> (the value an operation measures against it, the operation)
OPERATIONS = {
    "exact_coloring_n": (5, lambda lim: exact_star_coloring(Graph(5), 1, lim)),
    "search_source_n": (5, lambda lim: find_homomorphism(EdgeColoredGraph(Graph(5), 2, {}), POINT, lim)),
    "search_target_n": (6, lambda lim: find_homomorphism(POINT, build_universal(2, 1, 2), lim)),
    "colorings": (2**3, lambda lim: check_universal(P3_TARGET, path(4), 2, lim)),
    "min_target_p": (2, lambda lim: min_universal_size([Graph(2)], 2, 2, lim)),
    "explicit_vertices": (6, lambda lim: build_universal(2, 1, 2, lim).to_edge_colored_graph()),
    "listed_vertices": (6, lambda lim: build_universal(2, 1, 2, lim).vertices),
    # 3 x 2 entries of 32 bytes and one byte of value bits each
    "count_table_bytes": (198, lambda lim: build_universal(2, 1, 2, lim)),
    "graph_n": (5, read_by_cli),
}


def test_defaults():
    assert LIMITS == Limits(20, 12, 64, 10**6, 5, 1000, 10**6, 2**25, 10**6)
    assert sorted(OPERATIONS) == sorted(f.name for f in fields(Limits))


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_limit_boundary(name):
    value, operation = OPERATIONS[name]
    operation(replace(LIMITS, **{name: value}))
    with pytest.raises(GuardExceeded, match=name):
        operation(replace(LIMITS, **{name: value - 1}))


def test_raised_lifts_only_the_lower_limits():
    assert LIMITS.raised(100) == Limits(100, 100, 100, 10**6, 100, 1000, 10**6, 2**25, 10**6)
    assert LIMITS.raised(0) == LIMITS


def test_check_never_prints_the_value():
    # 2**15000 has more digits than int-to-str conversion allows
    with pytest.raises(GuardExceeded, match=r"2\^15000"):
        LIMITS.check("colorings", 2**15000, "enumerating 2^15000 colorings")
