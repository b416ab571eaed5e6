"""Byte-identity of CLI output against digests recorded from a known-good build.

Each case runs one ``ectarget`` command in-process on inputs generated here
and compares the exit code with the sha256 of stdout and of the ``--output``
file. The digests pin every byte a refactor must keep: palettes, bounds,
witnesses, rule-count order in the text format and exit codes. Regenerate
them only for an intended change of output, and say why where the change is
recorded.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ectarget import cli
from ectarget.graphs import Graph, OrientedGraph, serialize, serialize_graph, serialize_oriented
from helpers import clique, cycle, grid, path, random_coloring, stacked_triangulation


def write_inputs(root):
    files = {
        "tri.g": serialize_graph(stacked_triangulation(60, seed=7)),
        "grid.g": serialize_graph(grid(5, 6)),
        "k6.g": serialize_graph(clique(6)),
        "small.g": serialize_graph(stacked_triangulation(16, seed=5)),
        "edgeless.g": serialize_graph(Graph(5)),
        "edgeless.or": serialize_oriented(OrientedGraph(Graph(5), {})),
        "src.g": serialize(random_coloring(stacked_triangulation(40, seed=3), 3, random.Random(11))),
        "fits.json": json.dumps({"q": 60, "d": 3, "k": 3}),
        "low_d.json": json.dumps({"q": 60, "d": 2, "k": 3}),
        "low_q.json": json.dumps({"q": 4, "d": 3, "k": 3}),
        "mid_q.json": json.dumps({"q": 12, "d": 3, "k": 3}),
        "class.json": json.dumps({"q": 15000, "d": 3, "k": 3}),
        "large.g": serialize(random_coloring(stacked_triangulation(1500, seed=4), 3, random.Random(12))),
        "large.json": json.dumps({"q": 64, "d": 3, "k": 3}),
        "grid23.g": serialize_graph(grid(2, 3)),
        "p3.g": serialize_graph(path(3)),
        "c4.g": serialize_graph(cycle(4)),
        "u212.json": json.dumps({"q": 2, "d": 1, "k": 2}),
        "u322.json": json.dumps({"q": 3, "d": 2, "k": 2}),
    }
    for name, text in files.items():
        (root / name).write_text(text)


# (name, arguments with {} for the input directory, output file or None);
# later cases read the orientations that earlier ones write
CASES = [
    ("density-tri", "density {}/tri.g", None),
    ("density-grid-text", "density {}/grid.g --format text", None),
    ("orient-tri", "orient {}/tri.g --output {}/tri.or", "tri.or"),
    ("orient-k6-infeasible", "orient {}/k6.g --d 2", None),
    ("orient-grid-text", "orient {}/grid.g --d 2 --format text --output {}/grid.or", "grid.or"),
    ("out-color-tri-text", "out-color {}/tri.g --orientation {}/tri.or --format text --output {}/tri.cert", "tri.cert"),
    ("out-color-grid", "out-color {}/grid.g --orientation {}/grid.or --seed 3 --output {}/grid.cert", "grid.cert"),
    ("out-color-edgeless", "out-color {}/edgeless.g --orientation {}/edgeless.or --output {}/edgeless.cert", "edgeless.cert"),
    ("map-fitted", "map {}/src.g --output {}/fitted.hom", "fitted.hom"),
    ("map-target-text", "map {}/src.g --target {}/fits.json --format text --output {}/target.hom", "target.hom"),
    ("map-target-low-d", "map {}/src.g --target {}/low_d.json", None),
    ("map-target-low-q", "map {}/src.g --target {}/low_q.json --format text", None),
    ("map-target-mid-q", "map {}/src.g --target {}/mid_q.json --output {}/mid.hom", "mid.hom"),
    ("map-class-target", "map {}/src.g --target {}/class.json --output {}/class.hom", "class.hom"),
    ("verify-class-target", "verify {}/src.g {}/class.json {}/class.hom", None),
    ("map-large-target", "map {}/large.g --target {}/large.json --output {}/large.hom", "large.hom"),
    ("star-color-tri", "star-color {}/tri.g --seed 2 --output {}/tri.col", "tri.col"),
    ("star-color-exact-found", "star-color {}/small.g --exact 6 --format text --output {}/small.col", "small.col"),
    ("star-color-exact-none", "star-color {}/small.g --exact 5", None),
    ("bounds-planar", "bounds planar --k 3", None),
    ("bounds-genus", "bounds genus --g 3", None),
    ("bounds-upper", "bounds upper --r 5 --d 3 --k 2", None),
    ("check-universal-grid", "check-universal {}/u322.json --graph {}/grid23.g --k 2", None),
    ("check-universal-counterexample", "check-universal {}/u212.json --graph {}/grid23.g --k 2", None),
    ("min-target-output", "min-target {}/p3.g {}/c4.g --k 2 --max-p 5 --output {}/min.ecg", "min.ecg"),
]

GOLDEN = {
    "density-tri": [
        0,
        "b11bc5ebaa14f4fb7ade9b133330bddceede12ef32461f6f2c4a024cd6a41514",
        None,
    ],
    "density-grid-text": [
        0,
        "11298a3e2a21305300fa5f05e69254106242e795e92094cc3bc7acf4f3c6b957",
        None,
    ],
    "orient-tri": [
        0,
        "031e3db59d91df6f63c133b2061b96f449eec79f9a757e24c230095e6e34079d",
        "157638f73e6857441954a9c271451438e14a0c2af7cf5c472c4729baf0bad5af",
    ],
    "orient-k6-infeasible": [
        1,
        "dea7c8ff05c1fd02ebf00ee87d7e894dfadc5a7507aeffde945391a13895aefe",
        None,
    ],
    "orient-grid-text": [
        0,
        "62c09d46934b2095f5b838460e118fc1d6a6fc413104d413592204b1149fbbf8",
        "091525f189a6e813be006b543ad407f22872f5deae7f50e551785cab5b7075ba",
    ],
    "out-color-tri-text": [
        0,
        "72acd28360c955bfdafd7e25cd919c8882d9f8407f45af07c07731c98a85c35f",
        "7962b7c15677f60890c96b69fc90a93317115d328fee999decf1393beabc4846",
    ],
    "out-color-grid": [
        0,
        "1215c38ac571a6c9c3b39263215882f1dfb3e9a21d6beed71de895f0e79f5647",
        "927b37de5a8f97dd9fba6ac8d10f34695c8cdf4a4ced59e154df27b506bb6915",
    ],
    "out-color-edgeless": [
        0,
        "5476a137baf517cd10b69a98b0d6508946c92a645c67f0dab44792a3b5f23279",
        "ad196ce4d162bfdd9c51799e2aba63b8baf3d91345c9e6497d7d9b62924fcdf8",
    ],
    "map-fitted": [
        0,
        "be321512551f1d0b5457f82e5a72a192553fbcff26ca116dcfe16f970e05514c",
        "cc77442fac8a291aefcf8e43d1143fce46e17e7d008eb901b7b99eb5ced977b2",
    ],
    "map-target-text": [
        0,
        "a3e151012dfec7485fd6caecb28df146001732238a5c886165a9a4ab0248b2e5",
        "aedb5f6685727007b9afc61a01a91cf05b00948e871714540805bb9e6239c262",
    ],
    "map-target-low-d": [
        1,
        "f9831c2b9ad3ce5fd5d363515f4d2d32b043b115bf25473c8cd8f43820e1f902",
        None,
    ],
    "map-target-low-q": [
        1,
        "094d79117bb1af716e66d75914904d22bd30986c3ff3a6b58a9e84ae4be84b21",
        None,
    ],
    "map-target-mid-q": [
        0,
        "453d26fdc2482215ff9b1522987d0ef6394891b38fce05cec1020e78701fbabf",
        "ff900b5138854d6d5a476675a67bef568a31e00bfc32562549d7ae624f7f7f48",
    ],
    "map-class-target": [
        0,
        "8330768e6fbbe17d7813a0ac42f0c54280262db4ff0cfddd26c4565cb43f4d4c",
        "8761c93874260c339c75715a28ad39c75f234b56c53e47ed75e39ae65cea1e96",
    ],
    "verify-class-target": [
        0,
        "5bde941e80617baf8bc61be5a479bb561b8467ae5e4a7ef6fe7bd2ef6140e13b",
        None,
    ],
    "map-large-target": [
        0,
        "be015e5568eeea9f97214b625fbcc13c27f098892c4ccc7df9377c9f7b7ac313",
        "8c1e9ef1a37ba853c28ca41fe497ea75c874efa55454dec55862e6f50c2196b0",
    ],
    "star-color-tri": [
        0,
        "f00949f0eb57da84fb513812c128add48e55d7ee82657f535f70fb8177fd21b9",
        "acf171c57e02c411052b1ed7d4d87b2e076c552ccd92cbcb7be3fd1ed22e505e",
    ],
    "star-color-exact-found": [
        0,
        "335fe92fb5cb612c0fa7b5109b8a404d8d1bc59276166d6aff49f3a23646932f",
        "e2ef92edbaf8a871c08082f62f5b9c6267f147163851831107d4c71164abac12",
    ],
    "star-color-exact-none": [
        1,
        "646fd0c3c0385ace443d5468a6c2973684b73701e86fa37b2db5a8992074850f",
        None,
    ],
    "bounds-planar": [
        0,
        "f635e99707692226b00aaef5ad9c9cd2077501f3e41c23818d2d0d2f48793b1d",
        None,
    ],
    "bounds-genus": [
        0,
        "5e004a06c87c0c3febd991688a288aa007cc9e2440d96f5405e471d837634e58",
        None,
    ],
    "bounds-upper": [
        0,
        "6d0db8f139e493293390db2c632a2bb7552d79e9dc78576b837f9f491f3e63eb",
        None,
    ],
    "check-universal-grid": [
        0,
        "c63f65daf3d8652d2fd6d5ad141df6ec01da817ee9c6745169ca8c431269481a",
        None,
    ],
    "check-universal-counterexample": [
        1,
        "137dff2580c9dbf67b645db5b4cac653ed05e338c8cf53fa9170df9ea2ebaf02",
        None,
    ],
    "min-target-output": [
        0,
        "3c8e8fcbbde1fc82b52594423c318dc793f52224dda767e2b37fb1b062817e56",
        "c36db1f31fe60418735b44b1f9a2c8103f2dd8395dc624a23dd7f345e804d96b",
    ],
}


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(root, argv, output):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([arg.replace("{}", str(root)) for arg in argv.split()])
    written = sha((root / output).read_text()) if output else None
    return [code, sha(stdout.getvalue()), written]


def run_all(root) -> dict:
    write_inputs(root)
    return {name: run_case(root, argv, output) for name, argv, output in CASES}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [case[0] for case in CASES])
def test_cli_output_matches_recorded_digest(results, name):
    assert results[name] == GOLDEN[name]


@pytest.mark.parametrize("seed", ["0", "1", "12345"])
def test_every_digest_holds_under_another_hash_seed(tmp_path, seed):
    """Set and dict iteration follow the string hash seed, so every case runs
    again in a fresh interpreter under each seed and must match GOLDEN."""
    src, here = Path(cli.__file__).resolve().parents[1], Path(__file__).resolve().parent
    probe = "import json, pathlib, sys, test_golden; print(json.dumps(test_golden.run_all(pathlib.Path(sys.argv[1]))))"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([str(src), str(here)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN
