import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ectarget import cli, out_coloring
from ectarget.bounds import universal_upper_bound
from ectarget.graphs import (
    Graph,
    Limits,
    OrientedGraph,
    parse_edge_colored,
    parse_homomorphism,
    parse_oriented,
    serialize,
    serialize_graph,
)
from helpers import grid, path, random_coloring, recursion_limit, stacked_triangulation
from test_golden import write_inputs

K4 = "4 6 1\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"
C5 = "5 5 1\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n0 4 1\n"
P4 = "4 3 1\n0 1 1\n1 2 1\n2 3 1\n"
TRIANGLE_ECG = "3 3 2\n0 1 1\n0 2 1\n1 2 2\n"
K2 = "2 1 1\n0 1 1\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_density_command(tmp_path, capsys):
    f = tmp_path / "k4.g"
    f.write_text(K4)
    code, payload = run_json(capsys, "density", str(f))
    assert code == 0
    assert payload == {"density": "3/2", "witness": [0, 1, 2, 3]}


def test_orient_feasible_and_output(tmp_path, capsys):
    f = tmp_path / "c5.g"
    f.write_text(C5)
    out_file = tmp_path / "c5.or"
    code, payload = run_json(capsys, "orient", str(f), "--d", "1", "--output", str(out_file))
    assert code == 0
    assert payload["feasible"] is True
    oriented = parse_oriented(out_file.read_text())
    assert oriented.max_in_degree <= 1


def test_orient_infeasible_exit_one(tmp_path, capsys):
    f = tmp_path / "k4.g"
    f.write_text(K4)
    code, payload = run_json(capsys, "orient", str(f), "--d", "1")
    assert code == 1
    assert payload["feasible"] is False
    assert payload["witness"] == [0, 1, 2, 3]


def test_orient_defaults_to_minimum(tmp_path, capsys):
    f = tmp_path / "k4.g"
    f.write_text(K4)
    code, payload = run_json(capsys, "orient", str(f))
    assert code == 0
    assert payload["d"] == 2


def test_star_color_greedy(tmp_path, capsys):
    f = tmp_path / "p4.g"
    f.write_text(P4)
    code, payload = run_json(capsys, "star-color", str(f))
    assert code == 0
    assert payload["verified"] is True
    assert payload["palette"] >= 3


def test_star_color_exact_negative(tmp_path, capsys):
    f = tmp_path / "p4.g"
    f.write_text(P4)
    code, payload = run_json(capsys, "star-color", str(f), "--exact", "2")
    assert code == 1
    assert payload["found"] is False


def test_out_color_command(tmp_path, capsys):
    g_file = tmp_path / "c5.g"
    g_file.write_text(C5)
    or_file = tmp_path / "c5.or"
    assert run(capsys, "orient", str(g_file), "--d", "1", "--output", str(or_file))[0] == 0
    code, payload = run_json(capsys, "out-color", str(g_file), "--orientation", str(or_file))
    assert code == 0
    assert payload["verified"] is True
    assert payload["palette"] <= payload["budget"]


def test_out_color_on_an_edgeless_graph_verifies_palette_one(tmp_path, capsys, monkeypatch):
    g_file = tmp_path / "e3.g"
    g_file.write_text("3 0 1\n")
    or_file = tmp_path / "e3.or"
    or_file.write_text("3 0 1\n")
    calls = []
    verify = out_coloring.verify_out_coloring
    monkeypatch.setattr(out_coloring, "verify_out_coloring", lambda *a: calls.append(a) or verify(*a))
    code, payload = run_json(capsys, "out-color", str(g_file), "--orientation", str(or_file))
    assert code == 0
    assert payload["palette"] == payload["budget"] == 1
    assert payload["rule_counts"] == {}
    assert payload["coloring"] == [[0, 1], [1, 1], [2, 1]]
    assert payload["verified"] is True and len(calls) == 1


def test_build_target_command(tmp_path, capsys):
    code, payload = run_json(capsys, "build-target", "--q", "2", "--d", "1", "--k", "2")
    assert code == 0
    assert payload["vertex_count"] == 6


def test_map_pipeline_and_verify_round_trip(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    code, payload = run_json(capsys, "map", str(src), "--k", "2", "--output", str(hom_file))
    assert code == 0
    assert payload["verified"] is True
    assert payload["target"]["vertex_count"] >= 1
    hom = parse_homomorphism(hom_file.read_text())
    assert len(hom) == 3

    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(payload["target"]))
    code, verdict = run_json(capsys, "verify", str(src), str(target_file), str(hom_file))
    assert code == 0
    assert verdict == {"verified": True}


def test_map_fits_a_twelve_color_header(tmp_path, capsys):
    # the two-stage out-coloring of this source needs 15 colors
    source = random_coloring(stacked_triangulation(40, seed=3), 3, random.Random(11))
    src = tmp_path / "src.g"
    src.write_text(serialize(source))
    target_file = tmp_path / "mid_q.json"
    target_file.write_text(json.dumps({"q": 12, "d": 3, "k": 3}))
    code, payload = run_json(capsys, "map", str(src), "--target", str(target_file))
    assert code == 0
    assert payload["verified"] is True
    assert payload["out_palette"] <= 12


def test_map_is_byte_deterministic(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    _, first = run(capsys, "map", str(src), "--seed", "3")
    _, second = run(capsys, "map", str(src), "--seed", "3")
    assert first == second


def test_map_rejects_mismatched_k(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    code, _ = run(capsys, "map", str(src), "--k", "3")
    assert code == 2


def test_map_refuses_an_oversized_header_before_orienting(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("map oriented the source before building the target")

    monkeypatch.setattr(cli, "find_orientation", never)
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    target_file = tmp_path / "huge.json"
    target_file.write_text(json.dumps({"q": 10**12, "d": 3, "k": 2}))
    assert cli.main(["map", str(src), "--target", str(target_file)]) == 3
    assert "count_table_bytes" in capsys.readouterr().err


def test_map_rejects_a_header_with_q_zero(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    target_file = tmp_path / "q0.json"
    target_file.write_text(json.dumps({"q": 0, "d": 3, "k": 2}))
    code, out = run(capsys, "map", str(src), "--target", str(target_file))
    assert (code, out) == (2, "")


def test_verify_rejects_corrupted_homomorphism(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    code, payload = run_json(capsys, "map", str(src), "--output", str(hom_file))
    assert code == 0
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(payload["target"]))
    hom_file.write_text("0 0\n1 0\n2 0\n")
    code, verdict = run_json(capsys, "verify", str(src), str(target_file), str(hom_file))
    assert code == 1
    assert verdict == {"verified": False}


@pytest.mark.parametrize("value", [[1], True, 2.5, "2"], ids=["list", "bool", "float", "string"])
@pytest.mark.parametrize("key", ["q", "d", "k"])
@pytest.mark.parametrize("command", ["verify", "map"])
def test_malformed_target_header_exits_two(tmp_path, capsys, command, key, value):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps({"q": 6, "d": 2, "k": 2, key: value}))
    if command == "verify":
        argv = ["verify", str(src), str(target_file), str(hom_file)]
    else:
        argv = ["map", str(src), "--target", str(target_file)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"target header {key} must be an integer" in captured.err


@pytest.mark.parametrize("key", ["q", "d", "k"])
def test_target_header_names_a_missing_key(tmp_path, capsys, key):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    header = {"q": 6, "d": 2, "k": 2}
    del header[key]
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(header))
    assert cli.main(["verify", str(src), str(target_file), str(hom_file)]) == 2
    assert f"target header has no {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "map", "check-universal"])
def test_deeply_nested_target_header_exits_two(tmp_path, capsys, command):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    target_file = tmp_path / "deep.json"
    target_file.write_text('{"a":' * 100_000)
    argv = {
        "verify": ["verify", str(src), str(target_file), str(hom_file)],
        "map": ["map", str(src), "--target", str(target_file)],
        "check-universal": ["check-universal", str(target_file), "--graph", str(graph_file), "--k", "2"],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target header nests too deeply" in captured.err


def test_verify_with_another_palette_exits_two(tmp_path, capsys):
    src = tmp_path / "tri.ecg"
    src.write_text("3 3 3\n0 1 1\n0 2 1\n1 2 3\n")
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    target_file = tmp_path / "target.json"
    target_file.write_text('{"q": 6, "d": 2, "k": 2}\n')
    assert cli.main(["verify", str(src), str(target_file), str(hom_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "palette mismatch" in captured.err


@pytest.mark.parametrize("header", [{"q": 4000, "d": 4000, "k": 3}, {"q": 250, "d": 250, "k": 10**100}])
def test_verify_against_an_oversized_header_exits_three(tmp_path, capsys, header):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(header) + "\n")
    assert cli.main(["verify", str(src), str(target_file), str(hom_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count_table_bytes" in captured.err


def test_guard_override_lifts_the_count_table_limit(tmp_path, capsys, monkeypatch):
    # the (6, 2, 2) count table is estimated at 21 entries of 33 bytes
    monkeypatch.setattr(cli, "LIMITS", Limits(count_table_bytes=600))
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    target_file = tmp_path / "target.json"
    target_file.write_text('{"q": 6, "d": 2, "k": 2}\n')
    hom_file = tmp_path / "tri.hom"
    commands = [
        ["build-target", "--q", "6", "--d", "2", "--k", "2"],
        ["map", str(src), "--target", str(target_file), "--output", str(hom_file)],
        ["verify", str(src), str(target_file), str(hom_file)],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 3
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "700")
    for argv in commands:
        assert run(capsys, *argv)[0] == 0


def test_check_universal_commands(tmp_path, capsys):
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    good = tmp_path / "good.ecg"
    good.write_text("3 2 2\n0 1 1\n1 2 2\n")
    code, payload = run_json(capsys, "check-universal", str(good), "--graph", str(graph_file), "--k", "2")
    assert code == 0 and payload == {"universal": True}

    bad = tmp_path / "bad.ecg"
    bad.write_text("2 1 2\n0 1 1\n")
    code, payload = run_json(capsys, "check-universal", str(bad), "--graph", str(graph_file), "--k", "2")
    assert code == 1
    assert payload["universal"] is False
    counterexample = parse_edge_colored("\n".join(payload["counterexample"]))
    assert counterexample.colors == (2,)


@pytest.mark.parametrize("header, k", [({"q": 2, "d": 1, "k": 2}, 3), ({"q": 2, "d": 1, "k": 3}, 2)])
def test_check_universal_with_another_palette_exits_two(tmp_path, capsys, header, k):
    graph_file = tmp_path / "p5.g"
    graph_file.write_text(serialize_graph(path(5)))
    target = tmp_path / "t.json"
    target.write_text(json.dumps(header))
    assert cli.main(["check-universal", str(target), "--graph", str(graph_file), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "palette mismatch" in captured.err


def test_min_target_command(tmp_path, capsys):
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    code, payload = run_json(capsys, "min-target", str(graph_file), "--k", "2", "--max-p", "3")
    assert code == 0
    assert payload["size"] == 3


def test_min_target_not_found(tmp_path, capsys):
    graph_file = tmp_path / "k3.g"
    graph_file.write_text("3 3 1\n0 1 1\n0 2 1\n1 2 1\n")
    code, payload = run_json(capsys, "min-target", str(graph_file), "--k", "2", "--max-p", "4")
    assert code == 1
    assert payload == {"found": False, "max_p": 4}


def test_bounds_commands(tmp_path, capsys):
    code, payload = run_json(capsys, "bounds", "planar", "--k", "2")
    assert code == 0
    assert payload["lower"] == "8"

    code, payload = run_json(capsys, "bounds", "genus", "--g", "3")
    assert code == 0
    assert payload == {"lower": 2.5, "upper": 6.0, "t": 6}

    code, payload = run_json(capsys, "bounds", "upper", "--r", "1", "--d", "1", "--k", "2")
    assert code == 0
    assert payload["value"] == "128"


def test_bounds_too_large_exit_two(capsys):
    assert cli.main(["bounds", "genus", "--g", str(10**400)]) == 2
    assert "too large" in capsys.readouterr().err

    # 2669 is the largest d whose value, 4300 digits, still prints
    code, payload = run_json(capsys, "bounds", "upper", "--r", "1", "--d", "2669", "--k", "2")
    assert code == 0
    assert payload["value"] == str(universal_upper_bound(1, 2669, 2))
    assert len(payload["value"]) == sys.get_int_max_str_digits()

    start = time.perf_counter()
    code = cli.main(["bounds", "upper", "--r", "1", "--d", "1000000", "--k", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "more than 4300 digits" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["density", str(tmp_path / "missing.g")]) == 2
    bad = tmp_path / "bad.g"
    bad.write_text("2 1 1\n0 0 1\n")
    assert cli.main(["density", str(bad)]) == 2
    capsys.readouterr()


def test_guard_exceeded_exits_three(tmp_path, capsys):
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    code, _ = run(capsys, "min-target", str(graph_file), "--k", "2", "--max-p", "6")
    assert code == 3


def test_guard_override_env(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "k21.g"
    graph_file.write_text("21 0 1\n")
    code, _ = run(capsys, "star-color", str(graph_file), "--exact", "1")
    assert code == 3
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "25")
    code, payload = run_json(capsys, "star-color", str(graph_file), "--exact", "1")
    assert code == 0
    assert payload["palette"] == 1


def test_guard_override_lifts_explicit_target(tmp_path, capsys, monkeypatch):
    # the 6-vertex (2, 1, 2) target against an explicit-target limit of 5
    monkeypatch.setattr(cli, "LIMITS", Limits(explicit_vertices=5))
    argv = ["build-target", "--q", "2", "--d", "1", "--k", "2", "--explicit"]
    assert run(capsys, *argv)[0] == 3
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "6")
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["vertex_count"] == 6
    assert len(payload["target"]) == 1 + 15


def test_guard_override_lifts_check_universal(tmp_path, capsys, monkeypatch):
    # the (4, 2, 3) target has 132 vertices, above the search limit of 64 and
    # an explicit-target limit of 100: the override must reach the target
    # loaded from the header too
    monkeypatch.setattr(cli, "LIMITS", Limits(explicit_vertices=100))
    target = tmp_path / "t.json"
    target.write_text('{"q": 4, "d": 2, "k": 3}\n')
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    argv = ["check-universal", str(target), "--graph", str(graph_file), "--k", "3"]
    assert run(capsys, *argv)[0] == 3
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "200")
    assert run_json(capsys, *argv) == (0, {"universal": True})


def test_non_integer_guard_override_exits_two(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "k21.g"
    graph_file.write_text("21 0 1\n")
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "lots")
    assert cli.main(["star-color", str(graph_file), "--exact", "1"]) == 2
    assert "ECTARGET_GUARD_OVERRIDE must be an integer" in capsys.readouterr().err
    # a command that reaches no limit does not read the override
    assert run(capsys, "star-color", str(graph_file))[0] == 0


# each command reading a 5-vertex graph file: {g} plain, {o} oriented, {s}
# edge-colored, and as an explicit target
GRAPH_COMMANDS = {
    "density": ["density", "{g}"],
    "orient": ["orient", "{g}"],
    "star-color": ["star-color", "{g}"],
    "out-color": ["out-color", "{g}", "--orientation", "{o}"],
    "map": ["map", "{s}"],
    "verify": ["verify", "{s}", "{t}", "{h}"],
    "verify-explicit-target": ["verify", "{tri}", "{s}", "{h}"],
    "check-universal": ["check-universal", "{t}", "--graph", "{g}", "--k", "2"],
    "check-universal-explicit-target": ["check-universal", "{s}", "--graph", "{k2}", "--k", "2"],
    "min-target": ["min-target", "{k2}", "{g}", "--max-p", "2"],
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_a_graph_above_the_vertex_limit_exits_three(tmp_path, capsys, monkeypatch, command):
    files = {
        "g": "5 0 1\n",
        "o": "5 0 1\n",
        "s": "5 0 2\n",
        "tri": TRIANGLE_ECG,
        "k2": K2,
        "t": '{"q": 2, "d": 1, "k": 2}\n',
        "h": "0 0\n1 1\n2 2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: tmp_path / name for name in files}) for arg in GRAPH_COMMANDS[command]]
    monkeypatch.setattr(cli, "LIMITS", Limits(graph_n=4))
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a graph of 5 vertices exceeds the limit graph_n=4" in captured.err
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", "5")
    assert run(capsys, *argv)[0] in (0, 1, 2)


def test_a_billion_vertex_header_exits_three_before_any_work(tmp_path, capsys):
    # 15 bytes that promise a billion vertices, refused before anything is sized by n
    source = tmp_path / "huge.ecg"
    source.write_text("1000000000 0 2")
    target = tmp_path / "t.json"
    target.write_text('{"q": 2, "d": 1, "k": 2}\n')
    hom_file = tmp_path / "h.hom"
    hom_file.write_text("0 0\n")
    assert cli.main(["verify", str(source), str(target), str(hom_file)]) == 3
    assert "graph_n=1000000" in capsys.readouterr().err


def test_check_universal_on_a_long_path_exits_three(tmp_path, capsys):
    # 2^15000 colorings: a count with more digits than int-to-str allows
    graph_file = tmp_path / "path.g"
    graph_file.write_text(serialize_graph(path(15001)))
    target = tmp_path / "t.json"
    target.write_text('{"q": 2, "d": 1, "k": 2}\n')
    assert cli.main(["check-universal", str(target), "--graph", str(graph_file), "--k", "2"]) == 3
    assert "2^15000" in capsys.readouterr().err


def test_check_universal_with_a_googol_colors_exits_three_at_once(tmp_path, capsys):
    # the header passes count_table_bytes; (10^100)^60000 alone would take seconds
    k = str(10**100)
    graph_file = tmp_path / "path.g"
    graph_file.write_text(serialize_graph(path(60001)))
    target = tmp_path / "t.json"
    target.write_text(f'{{"q": 1, "d": 0, "k": {k}}}\n')
    start = time.perf_counter()
    assert cli.main(["check-universal", str(target), "--graph", str(graph_file), "--k", k]) == 3
    assert time.perf_counter() - start < 2.0
    assert f"{k}^60000 colorings exceeds the limit colorings=" in capsys.readouterr().err


def test_min_target_with_twelve_colors_answers_at_once(tmp_path, capsys):
    # 12! color maps would need tens of GB if listed before the first candidate
    graph_file = tmp_path / "one.g"
    graph_file.write_text("1 0 1\n")
    start = time.perf_counter()
    code, payload = run_json(capsys, "min-target", str(graph_file), "--k", "12", "--max-p", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload == {"found": True, "size": 1, "target": ["1 0 12"]}


def test_density_on_a_long_ladder_within_a_low_recursion_limit(tmp_path, capsys):
    f = tmp_path / "ladder.g"
    f.write_text(serialize_graph(grid(2, 300)))
    with recursion_limit(120):
        code, payload = run_json(capsys, "density", str(f))
    assert code == 0
    assert payload["density"] == "449/300"


def test_text_format_smoke(tmp_path, capsys):
    f = tmp_path / "k4.g"
    f.write_text(K4)
    code, out = run(capsys, "density", str(f), "--format", "text")
    assert code == 0
    assert "density: 3/2" in out


def test_cli_starts_without_the_introspection_modules():
    # -S keeps site's own imports out of the check
    src = str(Path(cli.__file__).resolve().parent.parent)
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis")
    probe = f"import sys, ectarget.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


OUTPUT_COMMANDS = {
    "orient": ["orient", "{c5}"],
    "star-color": ["star-color", "{c5}"],
    "out-color": ["out-color", "{e3}", "--orientation", "{e3}"],
    "build-target": ["build-target", "--q", "2", "--d", "1", "--k", "2"],
    "build-target-explicit": ["build-target", "--q", "2", "--d", "1", "--k", "2", "--explicit"],
    "map": ["map", "{tri}"],
    "min-target": ["min-target", "{k2}", "--k", "2", "--max-p", "3"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_into_a_missing_directory_exits_two_before_any_report(tmp_path, capsys, command):
    files = {"c5": C5, "e3": "3 0 1\n", "tri": TRIANGLE_ECG, "k2": K2}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: tmp_path / name for name in files}) for arg in OUTPUT_COMMANDS[command]]
    assert run(capsys, *argv)[0] == 0  # the command succeeds without --output
    missing = tmp_path / "missing" / "out"
    assert cli.main([*argv, "--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not missing.parent.exists()


def test_orient_refuses_an_orientation_above_d(tmp_path, capsys, monkeypatch):
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    into_centre = OrientedGraph(star, {(0, leaf): (leaf, 0) for leaf in (1, 2, 3)})
    monkeypatch.setattr(cli, "find_orientation", lambda graph, d: into_centre)
    f = tmp_path / "star.g"
    f.write_text(serialize_graph(star))
    out_file = tmp_path / "star.or"
    assert cli.main(["orient", str(f), "--d", "1", "--output", str(out_file)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refusing to print an orientation with in-degree above d\n"
    assert not out_file.exists()


# command -> (the verifier it calls, input file text, what it refuses to print)
REFUSALS = {
    "star-color": ("verify_star", C5, "an unverified coloring"),
    "map": ("verify_homomorphism", TRIANGLE_ECG, "an unverified homomorphism"),
}


@pytest.mark.parametrize("command", sorted(REFUSALS))
def test_a_refused_artifact_exits_four(tmp_path, capsys, monkeypatch, command):
    verifier, text, what = REFUSALS[command]
    monkeypatch.setattr(cli, verifier, lambda *args: False)
    f = tmp_path / "input.txt"
    f.write_text(text)
    out_file = tmp_path / "out"
    assert cli.main([command, str(f), "--output", str(out_file)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: refusing to print {what}\n"
    assert not out_file.exists()


# case -> (argv, path length, ECTARGET_GUARD_OVERRIDE): under the raised
# limits each search recurses once per path vertex, past the recursion limit
DEEP_SEARCHES = {
    "star-color-exact": (["star-color", "{graph}", "--exact", "3", "--output", "{out}"], 3000, "100000"),
    "check-universal": (["check-universal", "{target}", "--graph", "{graph}", "--k", "2"], 1100, str(10**400)),
}


@pytest.mark.parametrize("case", sorted(DEEP_SEARCHES))
def test_a_search_deeper_than_the_recursion_limit_exits_three(tmp_path, capsys, monkeypatch, case):
    argv, n, override = DEEP_SEARCHES[case]
    files = {"graph": tmp_path / "path.g", "target": tmp_path / "t.json", "out": tmp_path / "out"}
    files["graph"].write_text(serialize_graph(path(n)))
    files["target"].write_text('{"q": 3, "d": 1, "k": 2}\n')
    monkeypatch.setenv("ECTARGET_GUARD_OVERRIDE", override)
    assert cli.main([arg.format(**files) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: maximum recursion depth exceeded")
    assert not files["out"].exists()


NEGATIVE_COMMANDS = {
    "orient-k6": (["orient", "{}/k6.g", "--d", "2"], "feasible"),
    "star-color-exact-none": (["star-color", "{}/small.g", "--exact", "5"], "found"),
    "map-target-low-d": (["map", "{}/src.g", "--target", "{}/low_d.json"], "verified"),
    "map-target-low-q": (["map", "{}/src.g", "--target", "{}/low_q.json"], "verified"),
    "min-target-none": (["min-target", "{}/k6.g", "--k", "2", "--max-p", "4"], "found"),
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(root)
    return root


@pytest.mark.parametrize("case", sorted(NEGATIVE_COMMANDS))
def test_a_negative_answer_writes_no_output_file(golden_inputs, tmp_path, capsys, case):
    argv, key = NEGATIVE_COMMANDS[case]
    out_file = tmp_path / "out"
    argv = [arg.replace("{}", str(golden_inputs)) for arg in argv]
    code, payload = run_json(capsys, *argv, "--output", str(out_file))
    assert code == 1
    assert payload[key] is False
    assert not out_file.exists()
