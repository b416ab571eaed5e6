import json

import pytest

from ectarget import cli
from ectarget.graphs import parse_edge_colored, parse_homomorphism, parse_oriented

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
    assert counterexample.color == {(0, 1): 2}


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


def test_text_format_smoke(tmp_path, capsys):
    f = tmp_path / "k4.g"
    f.write_text(K4)
    code, out = run(capsys, "density", str(f), "--format", "text")
    assert code == 0
    assert "density: 3/2" in out
