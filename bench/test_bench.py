"""Tests of the benchmark itself: generator, checker, spans and wrappers.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import check
import gen
import run
import spans


def _fake_cli(argv):
    assert argv[:2] == ["bounds", "planar"]
    return json.dumps({"parameters": {"r": 5, "d": 3, "k": 3}}).encode()


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            out[name] = handle.read()
    return out


def _build(workload, seed, workdir):
    os.makedirs(workdir)
    inputs, ops = gen.build(workload, seed, str(workdir), _fake_cli)
    return inputs, ops, _files(workdir)


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    for workload in gen.WORKLOADS:
        _, ops_a, files_a = _build(workload, 7, tmp_path / workload / "a")
        _, ops_b, files_b = _build(workload, 7, tmp_path / workload / "b")
        _, _, files_c = _build(workload, 8, tmp_path / workload / "c")
        assert files_a == files_b
        assert [op.check for op in ops_a] == [op.check for op in ops_b]
        assert files_a != files_c


def test_generated_inputs_are_simple_graphs_with_the_recorded_bound(tmp_path):
    inputs, _, _ = _build("fit_target", 3, tmp_path / "w")
    for inp in inputs:
        assert len(set(inp.edges)) == inp.m
        assert all(0 <= u < v < inp.n for u, v in inp.edges)
        assert all(1 <= c <= inp.k for c in inp.colors)
        expected_d = {"tri": 3, "grid": 2, "planted": gen.SIZES["fit_target"]["planted"][0][1] // 2}
        assert max(len(p) for p in inp.parents) == inp.d == expected_d[inp.name.rstrip("0123456789")]


def _orientable(n, edges, d):
    for heads in itertools.product((0, 1), repeat=len(edges)):
        load = [0] * n
        for e, h in zip(edges, heads):
            load[e[h]] += 1
        if max(load) <= d:
            return True
    return False


def test_min_in_degree_matches_exhaustive_search():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.6] or [pairs[0]]
        d, parents = gen.min_in_degree(n, edges)
        assert _orientable(n, edges, d) and (d == 0 or not _orientable(n, edges, d - 1))
        assert sorted(tuple(sorted((p, v))) for v in range(n) for p in parents[v]) == sorted(edges)
        assert max(len(p) for p in parents) <= d


def test_unrank_follows_the_lexicographic_tuple_order():
    for q, d, k in [(1, 1, 2), (3, 1, 2), (4, 2, 3), (5, 5, 2), (6, 2, 4), (5, 0, 3)]:
        target = check.TupleTarget(q, d, k)
        tuples = [
            (lead, *xs)
            for lead in range(1, q + 1)
            for xs in itertools.product(range(1, k + 1), repeat=q)
            if sum(x != k for x in xs) <= min(d, q)
        ]
        assert target.vertex_count == len(tuples)
        assert [target.unrank(i) for i in range(len(tuples))] == tuples


def _map_output(tmp_path):
    """Run ectarget map in-process on a small generated triangulation."""
    ec = run.import_program()
    rng = random.Random(11)
    inp = gen.make_input("tri", *gen.stacked_triangulation(30, rng), rng, k=3)
    src = tmp_path / "tri.txt"
    src.write_text(inp.text())
    hom = tmp_path / "tri.hom"
    code, stdout = run.call_inprocess(ec.cli, ["map", str(src), "--output", str(hom)])
    assert code == 0
    return inp, json.loads(stdout), hom.read_text()


def _reemit(out, images):
    out = dict(out, homomorphism=images)
    text = "".join(f"{u} {t}\n" for u, t in enumerate(images))
    return json.dumps(out).encode(), text


def test_checker_accepts_the_program_output_and_rejects_one_changed_image(tmp_path):
    inp, out, hom_text = _map_output(tmp_path)
    problems, log2 = check.check_map(inp, *_reemit(out, out["homomorphism"]), None)
    assert problems == [] and log2 > 0
    u, v = inp.edges[0]
    images = list(out["homomorphism"])
    images[u] = images[v]  # one image changed, the stdout and file agreeing
    problems, _ = check.check_map(inp, *_reemit(out, images), None)
    assert any("source edges" in p for p in problems)


def test_self_time_subtracts_direct_children_on_nested_spans():
    recorded = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    totals = spans.self_times(recorded)
    assert totals == {"a": 10.0 - 5.0 + 1.0, "b": 2.0 + 2.0, "c": 1.0}


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    ec = run.import_program()
    targets = run.trace_targets(ec)
    originals = [(m, a, getattr(m, a)) for _, places in targets for m, a in places]
    inp, _, _ = _map_output(tmp_path)
    workload = run.Workload("fit_target", 0, str(tmp_path))
    workload.inputs = [inp]
    workload.ops = [gen.Op(["map", str(tmp_path / "tri.txt"), "--output", str(tmp_path / "tri.hom")], 0, {})]
    code, stdout = run.call_inprocess(ec.cli, workload.ops[0].argv)
    workload.digests = [run.digest(code, stdout, workload.ops[0])]
    metrics, extra = run.trace(workload, ec, 0)
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    assert workload.failed == 0 and workload.attempted == 2 * run.MIN_PASSES
    assert metrics["out_coloring.verify_out_coloring_calls"] == 2
    assert metrics["density.densest_subgraph_calls"] == 1
    assert len(extra["spans"]) == run.MIN_PASSES


def test_launcher_reports_the_child_memory_not_the_benchmark_memory(tmp_path):
    ballast = bytearray(64 << 20)  # the benchmark process grows past the child
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    with run.Launcher() as launcher:
        code, seconds, rss_kib = launcher.spawn(["bounds", "planar", "--k", "3"], str(tmp_path / "out"))
    assert code == 0 and seconds > 0
    assert json.loads((tmp_path / "out").read_text())["parameters"]["d"] == 3
    assert rss_kib < 48 << 10
    assert launcher.proc.returncode == 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
