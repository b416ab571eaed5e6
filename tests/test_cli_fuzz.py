"""Malformed input never escapes ``cli.main`` as an exception.

Each example writes small graph, orientation, target-header and
homomorphism files, some well-formed and some not, and runs one command on
them. Whatever the input, the command must return one of the documented
exit codes. Every integer a file or argument can carry is small, except the
``bounds`` arguments, whose cost the command bounds itself, so no example
allocates much memory. The exhaustive searches of ``check-universal`` and
``min-target`` run under lowered limits, which keep each example short.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import edge_colored_graphs
from ectarget import cli
from ectarget.graphs import Limits, OrientedGraph, serialize, serialize_graph, serialize_oriented

SMALL = st.integers(-2, 9)
JUNK = st.sampled_from(["", "x", "-", ">", "<", "#", "1.5", "0x1", "1e3", "{", "}", "[]", "nan"])
TOKEN = st.one_of(SMALL.map(str), SMALL.map(str), JUNK)
LINE = st.lists(TOKEN, min_size=0, max_size=5).map(" ".join)


@st.composite
def spoiled(draw, text: str) -> str:
    """The well-formed text, the text with one line dropped, repeated or
    replaced, or lines of tokens."""
    lines = text.splitlines()
    action = draw(st.sampled_from(["keep", "keep", "drop", "repeat", "replace", "tokens"]))
    if action == "tokens":
        lines = draw(st.lists(LINE, max_size=8))
    elif action != "keep" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(LINE)
    return "\n".join(lines) + "\n"


@st.composite
def graph_files(draw) -> dict:
    """Plain, oriented and edge-colored files of one small graph, each maybe
    spoiled, and the plain and edge-colored files as written."""
    colored = draw(edge_colored_graphs(max_n=6, max_k=3))
    directions = draw(st.lists(st.booleans(), min_size=colored.graph.m, max_size=colored.graph.m))
    oriented = OrientedGraph(
        colored.graph,
        {(u, v): (u, v) if keep else (v, u) for (u, v), keep in zip(colored.graph.edges, directions)},
    )
    return {
        "g": draw(spoiled(serialize_graph(colored.graph))),
        "o": draw(spoiled(serialize_oriented(oriented))),
        "s": draw(spoiled(serialize(colored))),
        "G": serialize_graph(colored.graph),
        "C": serialize(colored),
    }


HEADER_VALUE = st.one_of(
    st.integers(-2, 6), st.booleans(), st.none(), st.floats(-2, 6), st.text(max_size=3), st.lists(SMALL, max_size=2)
)
HEADER = st.one_of(
    st.fixed_dictionaries({key: st.integers(-1, 6) for key in "qdk"}).map(json.dumps),
    st.dictionaries(st.sampled_from("qdkx"), HEADER_VALUE, max_size=4).map(json.dumps),
    st.lists(TOKEN, max_size=6).map(" ".join),
    edge_colored_graphs(max_n=4, max_k=3).map(serialize),
)
HOMOMORPHISM = st.one_of(
    st.lists(st.integers(-1, 40), max_size=7).map(lambda images: "".join(f"{u} {t}\n" for u, t in enumerate(images))),
    st.lists(st.lists(TOKEN, min_size=1, max_size=3).map(" ".join), max_size=8).map("\n".join),
)
BIG = st.one_of(st.integers(1, 9), SMALL, st.integers(-(10**7), 10**7), st.integers(-(10**500), 10**500)).map(str)

# values that let the exhaustive searches run, and limits that keep them short
PALETTE = st.sampled_from(["1", "2", "2", "3", "3"])
SIZE = st.sampled_from(["0", "1", "2", "3", "3", "4"])
SEARCH_LIMITS = Limits(colorings=256, min_target_p=3)

# argv lists in which {g}, {o}, {s}, {G}, {C}, {t} and {h} stand for the files
COMMANDS = st.one_of(
    st.just(["density", "{g}"]),
    st.lists(TOKEN, max_size=1).map(lambda d: ["orient", "{g}"] + (["--d"] + d if d else [])),
    st.tuples(st.sampled_from(["--exact", "--seed"]), TOKEN).map(lambda a: ["star-color", "{g}", *a]),
    st.just(["out-color", "{g}", "--orientation", "{o}"]),
    st.sampled_from([["map", "{s}"], ["map", "{s}", "--target", "{t}"], ["map", "{s}", "--k", "2"]]),
    st.just(["verify", "{s}", "{t}", "{h}"]),
    st.tuples(TOKEN, TOKEN, TOKEN).map(lambda a: ["build-target", "--q", a[0], "--d", a[1], "--k", a[2]]),
    st.tuples(st.sampled_from(["{t}", "{s}", "{C}"]), st.sampled_from(["{g}", "{G}"]), PALETTE).map(
        lambda a: ["check-universal", a[0], "--graph", a[1], "--k", a[2]]
    ),
    st.tuples(st.sampled_from(["{g}", "{G}"]), PALETTE, SIZE).map(
        lambda a: ["min-target", a[0], "--k", a[1], "--max-p", a[2]]
    ),
    TOKEN.map(lambda k: ["bounds", "planar", "--k", k]),
    BIG.map(lambda g: ["bounds", "genus", "--g", g]),
    st.tuples(BIG, BIG, BIG).map(lambda a: ["bounds", "upper", "--r", a[0], "--d", a[1], "--k", a[2]]),
)


@given(COMMANDS, graph_files(), HEADER, HOMOMORPHISM)
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_on_malformed_input(argv, files, header, homomorphism):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        files = {**files, "t": header, "h": homomorphism}
        for name, text in files.items():
            (root / name).write_text(text)
        for name in files:
            argv = [arg.replace("{%s}" % name, str(root / name)) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "LIMITS", SEARCH_LIMITS)
                code = cli.main(argv)
    assert code in (0, 1, 2, 3)
