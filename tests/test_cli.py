import json
import math
import os
import random
import subprocess
import sys
import textwrap
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
from helpers import grid, path, planted_clique, random_coloring, recursion_limit, stacked_triangulation
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


@pytest.mark.parametrize(
    "text, key",
    [('{"q": 3, "d": 1, "k": 2, "q": 4}', "q"), ('{"q": 3, "d": 1, "k": 2, "note": {"a": 1, "a": 2}}', "a")],
)
@pytest.mark.parametrize("command", ["verify", "map", "check-universal"])
def test_target_header_with_a_repeated_key_exits_two(tmp_path, capsys, command, text, key):
    src = tmp_path / "tri.ecg"
    src.write_text(TRIANGLE_ECG)
    hom_file = tmp_path / "tri.hom"
    hom_file.write_text("0 0\n1 1\n2 2\n")
    graph_file = tmp_path / "k2.g"
    graph_file.write_text(K2)
    target_file = tmp_path / "target.json"
    target_file.write_text(text)
    argv = {
        "verify": ["verify", str(src), str(target_file), str(hom_file)],
        "map": ["map", str(src), "--target", str(target_file)],
        "check-universal": ["check-universal", str(target_file), "--graph", str(graph_file), "--k", "2"],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"target header repeats key '{key}'" in captured.err


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


# case -> (arguments with {} for the input directory, the files it writes, the message)
INPUT_REFUSALS = {
    "out-color-another-graph": (
        ["out-color", "{}/e3.g", "--orientation", "{}/other.or"],
        {"e3.g": "3 1 1\n0 1 1\n", "other.or": "3 1 1\n1 2 1 >\n"},
        "orientation file does not match the graph file",
    ),
    "map-explicit-target": (
        ["map", "{}/tri.ecg", "--target", "{}/tri.ecg"],
        {"tri.ecg": TRIANGLE_ECG},
        "map needs a compact target header file (JSON with q, d, k)",
    ),
    "map-target-another-palette": (
        ["map", "{}/tri.ecg", "--target", "{}/k3.json"],
        {"tri.ecg": TRIANGLE_ECG, "k3.json": '{"q": 4, "d": 2, "k": 3}\n'},
        "target palette k=3 does not match source k=2",
    ),
    "oriented-k2": (
        ["out-color", "{}/e3.g", "--orientation", "{}/k2.or"],
        {"e3.g": "3 1 1\n0 1 1\n", "k2.or": "3 1 2\n0 1 1 >\n"},
        "oriented graph files use k = 1, got k=2",
    ),
    "palette-zero": (["density", "{}/p0.g"], {"p0.g": "3 0 0\n"}, "palette must be at least 1, got 0"),
    "homomorphism-non-integer": (
        ["verify", "{}/tri.ecg", "{}/tri.ecg", "{}/x.hom"],
        {"tri.ecg": TRIANGLE_ECG, "x.hom": "0 0\n1 x\n2 2\n"},
        "malformed homomorphism line '1 x'",
    ),
    "homomorphism-twice": (
        ["verify", "{}/tri.ecg", "{}/tri.ecg", "{}/twice.hom"],
        {"tri.ecg": TRIANGLE_ECG, "twice.hom": "0 0\n0 1\n2 2\n"},
        "vertex 0 mapped twice",
    ),
    "verify-image-outside-explicit-target": (
        ["verify", "{}/tri.ecg", "{}/tri.ecg", "{}/far.hom"],
        {"tri.ecg": TRIANGLE_ECG, "far.hom": "0 0\n1 1\n2 3\n"},
        "image 3 is not a target vertex id",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_REFUSALS))
def test_an_input_refusal_exits_two_with_its_message(tmp_path, capsys, case):
    arguments, files, message = INPUT_REFUSALS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main([arg.replace("{}", str(tmp_path)) for arg in arguments]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["density", str(tmp_path / "missing.g")]) == 2
    bad = tmp_path / "bad.g"
    bad.write_text("2 1 1\n0 0 1\n")
    assert cli.main(["density", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "s.g", "--k", "3", "--seed", "2", "--target", "t.h", "--format", "text"],
        ["bounds", "upper", "--r", "1", "--d", "2", "--k", "3"],
        ["check-universal", "t.h", "--graph", "g.g", "--k", "2"],
        ["min-target", "a.g", "b.g", "--max-p", "3"],
        ["star-color", "g.g", "--exact", "4", "--output", "o"],
    ],
)
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    assert vars(cli._build_parser(argv[0]).parse_args(argv)) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [[name, "-h"] for name in cli._COMMANDS]
    + [["bounds", family, "-h"] for family in ("planar", "genus", "upper")]
    + [["density", "a.g", "b.g"], ["map"], ["bounds", "genus"], ["orient", "g", "--d", "x"], ["verify", "--format", "xml"]],
)
def test_one_subcommand_parser_prints_as_the_full_parser(argv, capsys):
    printed = []
    for only in (argv[0], None):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser(only).parse_args(argv)
        printed.append((exc.value.code, capsys.readouterr()))
    assert printed[0] == printed[1]


def test_main_builds_the_named_subcommand_parser_alone(monkeypatch, capsys):
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only) or build(only))
    for argv in (["bounds", "planar", "--k", "2"], ["no-such-command"], [], ["--help"]):
        cli.main(argv)
    capsys.readouterr()
    assert built == ["bounds", None, None, None]


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


# command -> the stage modules that running it loads besides cli, graphs and universal
COMMAND_STAGES = {
    "verify {tri} {tri} {identity}": [],
    "check-universal {tri} --graph {k2} --k 2": [],
    "min-target {k2} --k 2 --max-p 3": [],
    "build-target --q 2 --d 1 --k 2": [],
    "bounds planar --k 2": ["bounds"],
    "out-color {e3} --orientation {e3}": ["coloring", "out_coloring"],
    "map {tri}": ["coloring", "density", "out_coloring"],
}


def test_cli_starts_without_the_introspection_modules(tmp_path):
    # -S keeps site's own imports out of the check
    src = str(Path(cli.__file__).resolve().parent.parent)
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "fractions", "decimal")
    probe = (
        f"import sys, ectarget.cli; print([m for m in {heavy!r} if m in sys.modules])\n"
        "code = ectarget.cli.main(sys.argv[1:])\n"
        "print(code, sorted(m.removeprefix('ectarget.') for m in sys.modules if m.startswith('ectarget.')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    files = {"tri": TRIANGLE_ECG, "identity": "0 0\n1 1\n2 2\n", "k2": K2, "e3": "3 0 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command, stages in COMMAND_STAGES.items():
        argv = command.format(**{name: tmp_path / name for name in files}).split()
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "[]", command
        assert lines[-1] == f"0 {sorted(['cli', 'graphs', 'universal', *stages])}", command


def test_a_patch_made_before_a_stage_loads_sees_every_call(tmp_path):
    # the other tests patch cli after earlier tests have loaded every stage
    src = str(Path(cli.__file__).resolve().parent.parent)
    (tmp_path / "tri").write_text(TRIANGLE_ECG)
    probe = textwrap.dedent(
        """
        import contextlib, io, sys, pytest
        from ectarget import cli
        assert "ectarget.coloring" not in sys.modules
        calls = []
        def wrapper(*args, **kwargs):
            from ectarget.coloring import greedy_star_coloring
            calls.append(args)
            return greedy_star_coloring(*args, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "greedy_star_coloring", wrapper)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["map", sys.argv[1]])
        import ectarget.coloring
        print(code, len(calls), cli.greedy_star_coloring is ectarget.coloring.greedy_star_coloring)
        """
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "tri")], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 1 True\n"


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_report_that_cannot_render_writes_no_output_file(tmp_path, capsys, fmt):
    # the report's vertex_count has more digits than int-to-str conversion allows
    out_file = tmp_path / "out"
    argv = ["build-target", "--q", "100", "--d", "100", "--k", str(2**150), "--format", fmt]
    assert cli.main([*argv, "--output", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit")
    assert not out_file.exists()


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


def entry_point_env(**extra) -> dict:
    """The environment of an ``ectarget`` subprocess: this checkout's package,
    block-buffered stdout, and an 80-column help whatever the terminal."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **extra}


# case -> (arguments with {} for the input directory, the exit code)
ENTRY_POINT_CASES = {
    "map-output": (["map", "{}/large.g", "--target", "{}/large.json", "--output", "{}/out"], 0),
    "map-target-low-q": (["map", "{}/src.g", "--target", "{}/low_q.json", "--output", "{}/out"], 1),
    "malformed-graph": (["density", "{}/malformed.g"], 2),
    "billion-vertex-header": (["density", "{}/huge.g"], 3),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("case", sorted(ENTRY_POINT_CASES))
def test_the_entry_point_prints_what_main_prints(golden_inputs, tmp_path, capsys, monkeypatch, case):
    # through pipes stdout is block-buffered, so a report the exit path does
    # not flush is lost
    for name in golden_inputs.iterdir():
        (tmp_path / name.name).write_bytes(name.read_bytes())
    (tmp_path / "malformed.g").write_text("3 2 1\n0 1 1\n1 2\n")
    (tmp_path / "huge.g").write_text("1000000000 0 1\n")
    assert (tmp_path / "huge.g").stat().st_size == 15
    arguments, code = ENTRY_POINT_CASES[case]
    argv = [arg.replace("{}", str(tmp_path)) for arg in arguments]
    out_file = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "ectarget.cli", *argv], env=entry_point_env(), capture_output=True, timeout=60
    )
    written = out_file.read_bytes() if out_file.exists() else None
    out_file.unlink(missing_ok=True)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert done.returncode == code
    assert done.stdout == captured.out.encode()
    assert done.stderr == captured.err.encode()
    assert written == (out_file.read_bytes() if out_file.exists() else None)
    assert (written is not None) == (case == "map-output")
    assert done.stdout or done.stderr


def test_atexit_handlers_run_before_the_entry_point_exits(tmp_path):
    (tmp_path / "k4.g").write_text(K4)
    probe = (
        "import atexit, sys\n"
        "from ectarget import cli\n"
        "atexit.register(print, 'handler ran')\n"
        "cli.app()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, "orient", str(tmp_path / "k4.g"), "--d", "1"],
        env=entry_point_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1  # main's code: K4 has no orientation with in-degree 1
    assert done.stderr == ""
    assert json.loads(done.stdout.removesuffix("handler ran\n"))["feasible"] is False
    assert done.stdout.endswith("}\nhandler ran\n")


# how the entry point's stdout is broken -> the shell redirection that does it
BROKEN_STDOUT = {"closed-pipe": "", "closed-descriptor": ">&-"}
MISSING_FAMILY = "ectarget bounds: error: the following arguments are required: family"
# (how, arguments) -> (exit code, last stderr line), buffered or not
BROKEN_STDOUT_ENDINGS = {
    ("closed-pipe", "bounds planar --k 2"): (2, "error: [Errno 32] Broken pipe"),
    ("closed-pipe", "--help"): (0, ""),  # argparse ignores a failed help write
    ("closed-pipe", "bounds"): (2, MISSING_FAMILY),
    ("closed-pipe", "map {}/tri.ecg --output {}/out"): (2, "error: [Errno 32] Broken pipe"),
    ("closed-descriptor", "bounds planar --k 2"): (2, "error: stdout is closed"),
    ("closed-descriptor", "--help"): (0, "  -h, --help            show this help message and exit"),
    ("closed-descriptor", "bounds"): (2, MISSING_FAMILY),
    ("closed-descriptor", "map {}/tri.ecg --output {}/out"): (2, "error: stdout is closed"),
}
BROKEN_STDOUT_ARGV = [
    ["bounds", "planar", "--k", "2"],
    ["--help"],
    ["bounds"],
    ["map", "{}/tri.ecg", "--output", "{}/out"],
]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("how", sorted(BROKEN_STDOUT))
@pytest.mark.parametrize("argv", BROKEN_STDOUT_ARGV, ids=" ".join)
def test_a_broken_stdout_exits_as_a_normal_exit_does(tmp_path, how, buffered, argv):
    # main flushes the report itself, so a closed pipe is one documented
    # code and message whether stdout is block-buffered or not; only a
    # closed pipe is found after the --output file is written
    (tmp_path / "tri.ecg").write_text(TRIANGLE_ECG)
    env = entry_point_env(**({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    arguments = [arg.replace("{}", str(tmp_path)) for arg in argv]
    command = [sys.executable, "-c", "from ectarget import cli\ncli.app()\n", *arguments]
    command = ["sh", "-c", f'exec "$@" {BROKEN_STDOUT[how]}', "sh", *command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    stderr = done.stderr.decode()
    assert "Traceback" not in stderr
    assert (done.returncode, (stderr.splitlines() or [""])[-1]) == BROKEN_STDOUT_ENDINGS[how, " ".join(argv)]
    assert (tmp_path / "out").exists() == (how == "closed-pipe" and "--output" in argv)


# exit code -> (arguments with {} for the input directory, code run before the entry point)
CLOSED_STDERR_CASES = {
    2: (["density", "{}/missing.g"], ""),
    3: (["density", "{}/huge.g"], ""),
    4: (["star-color", "{}/c5.g"], "cli.verify_star = lambda *args: False\n"),
}
# how stderr is closed -> the shell redirection and the code run first: closed
# before start-up, Python sets sys.stderr to None; after, a write raises OSError
CLOSED_STDERR = {"before-start": ("2>&-", ""), "after-start": ("", "import os\nos.close(2)\n")}


@pytest.mark.parametrize("how", sorted(CLOSED_STDERR))
@pytest.mark.parametrize("code", sorted(CLOSED_STDERR_CASES))
def test_a_closed_stderr_keeps_the_error_exit_code(tmp_path, code, how):
    # the message cannot be written, so the code alone tells what failed
    (tmp_path / "huge.g").write_text("1000000000 0 1\n")
    (tmp_path / "c5.g").write_text(C5)
    arguments, patch = CLOSED_STDERR_CASES[code]
    redirection, closing = CLOSED_STDERR[how]
    argv = [arg.replace("{}", str(tmp_path)) for arg in arguments]
    command = [sys.executable, "-c", f"{closing}from ectarget import cli\n{patch}cli.app()\n", *argv]
    command = ["sh", "-c", f'exec "$@" {redirection}', "sh", *command]
    done = subprocess.run(command, env=entry_point_env(), capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, b"", b"")


# input -> (out palette, log2 of the target's vertex count to one decimal) of
# a fitted map, 3-edge-colored from random.Random(1); the C1-C3 rules that
# map --target keeps gave (10, 13.5), (7, 9.4) and (23, 35.2)
FITTED_TARGETS = {
    "triangulation": (stacked_triangulation(220, 1), 8, 12.2),
    "grid": (grid(13, 13), 5, 8.0),
    "planted-clique": (planted_clique(260, 20, 1), 20, 32.6),
}


@pytest.mark.parametrize("name", sorted(FITTED_TARGETS))
def test_a_fitted_target_follows_the_source_edge_colors(tmp_path, capsys, name):
    graph, palette, log2 = FITTED_TARGETS[name]
    f = tmp_path / "source.ecg"
    f.write_text(serialize(random_coloring(graph, 3, random.Random(1))))
    code, payload = run_json(capsys, "map", str(f))
    assert code == 0
    assert payload["out_palette"] == payload["target"]["q"] == palette
    assert round(math.log2(payload["target"]["vertex_count"]), 1) == log2
