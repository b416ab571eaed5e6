"""Benchmark of the ectarget command line, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
The run generates its inputs from the seed (set-up, timed), runs every
operation once as an ``ectarget`` subprocess and checks each
output independently, then repeats whole passes over the operations, one
subprocess at a time (a closed loop with one client), for the given number
of seconds. Every repeat must reproduce the checked output bytes. The
subprocesses are started by a small helper process (``launcher.py``), so
that their peak memory is their own, and every time is scaled to the speed
of a fixed reference loop timed beside it (``scaled``), because the machines
this runs on are shared and their speed drifts.

With ``--trace 1`` the passes run in-process through ``ectarget.cli.main``
instead, alternating passes with and without timing wrappers on the
package's public functions, and the run reports per-layer self times and
counts. The last line of stdout is one JSON object with the metrics; a
results file with the environment and, for traced runs, every span goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import check
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
SETUP_REPEATS = 3  # set-ups timed before each timed pass
IMPORT_REPEATS = 5
# Seconds that reference_seconds() takes on the machine the bounds were set
# on (2 vCPUs, x86-64, CPython 3.11) when that machine is otherwise idle.
REF_SECONDS = 0.033

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "target_log2_vertices": "log2",
}

# span name -> metric suffixes reported for it
LAYER_SPANS = {
    "density.densest_subgraph": ("_s", "_calls"),
    "density.find_orientation": ("_s", "_calls"),
    "coloring.greedy_star_coloring": ("_s",),
    "coloring.verify_star": ("_s", "_calls"),
    "out_coloring.build_out_coloring": ("_s",),
    "out_coloring.verify_out_coloring": ("_s", "_calls"),
    "universal.build_universal": ("_s",),
    "universal.build_homomorphism": ("_s",),
    "universal.verify_homomorphism": ("_s",),
    "universal.check_universal": ("_s",),
    "universal.find_homomorphism": ("_s", "_calls"),
    "universal.min_universal_size": ("_s",),
    "graphs.parse": ("_s",),
    "cli.main": ("_s",),
}
# counts added up by the hooks below
LAYER_COUNTS = {
    "density.in_degree_d": "count",
    "coloring.star_palette": "colors",
    "out_coloring.aux_triples": "count",
    "out_coloring.palette": "colors",
    "cli.stdout_bytes": "bytes",
}
LAYER_DERIVED = {
    "out_coloring.palette_per_budget": "ratio",
    "cli.import_s": "s",
    "bench.trace_overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name, suffixes in LAYER_SPANS.items():
        for suffix in suffixes:
            units[name + suffix] = "s" if suffix == "_s" else "count"
    return {**units, **LAYER_COUNTS, **LAYER_DERIVED}


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ECTARGET_GUARD_OVERRIDE", None)  # every guard at its default
    return env


class Launcher:
    """The small process that starts every ``ectarget`` subprocess, so that
    each child's peak memory is its own (see ``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def spawn(self, argv, stdout_path: str) -> tuple[int, float, int]:
        """Run ``ectarget argv``; return (exit code, seconds, peak RSS in KiB)."""
        request = [[sys.executable, "-m", "ectarget.cli", *argv], stdout_path]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process exited")
        return tuple(json.loads(answer))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def reference_seconds() -> float:
    """Time one fixed pure-Python workload of the program's kind: repeated
    minimum selection through a key function, a table of counts, big-integer
    arithmetic, and building and sorting a dictionary.

    Of the loops tried, this one's time followed the time of ``map`` most
    closely while other tenants loaded the machine.
    """
    start = time.perf_counter()
    n = 500
    degree = {v: (v * 7919) % 13 for v in range(n)}
    remaining = set(range(n))
    while remaining:
        remaining.remove(min(remaining, key=lambda x: (degree[x], x)))
    counts = [[1] * 4 for _ in range(200)]
    for length in range(1, 200):
        for r in range(1, 4):
            counts[length][r] = counts[length - 1][r] + 2 * counts[length - 1][r - 1]
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i * counts[i % 200][i % 4]) % (1 << 200)
    table = {}
    for i in range(60000):
        table[i] = i ^ (i >> 3)
    sorted(table.values())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed: the machine this runs on is shared, and
    its speed drifts by a third or more over minutes, so a time is divided by
    the mean of the reference times taken just before and just after it."""
    return seconds * REF_SECONDS * 2 / (before + after)


def output_path(op) -> str | None:
    return op.argv[op.argv.index("--output") + 1] if "--output" in op.argv else None


def digest(code: int, stdout: bytes, op) -> str:
    h = hashlib.sha256(str(code).encode() + b"\0" + stdout)
    path = output_path(op)
    if path is not None and os.path.exists(path):
        with open(path, "rb") as handle:
            h.update(b"\0" + handle.read())
    return h.hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, workdir: str, launcher: Launcher | None = None):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.launcher = launcher
        self.inputs, self.ops = [], []
        self.digests = []
        self.attempted = self.failed = 0
        self.problems = []

    def run_cli(self, argv) -> bytes:
        path = os.path.join(self.workdir, "setup.out")
        code, _, _ = self.launcher.spawn(argv, path)
        if code != 0:
            raise RuntimeError(f"ectarget {' '.join(argv)} exited with {code} during set-up")
        with open(path, "rb") as handle:
            return handle.read()

    def setup(self) -> float:
        """Generate (or regenerate, identically) the inputs; return seconds."""
        os.makedirs(self.workdir, exist_ok=True)
        start = time.perf_counter()
        self.inputs, self.ops = gen.build(self.name, self.seed, self.workdir, self.run_cli)
        return time.perf_counter() - start

    def record(self, op_index: int, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {op_index} {self.ops[op_index].argv[0]}: {'; '.join(problems)}")

    def check_pass(self) -> float:
        """Run each operation once as a subprocess, check its output
        independently, and keep its digest; return target_log2_vertices."""
        inputs = {inp.name: inp for inp in self.inputs}
        total_log2 = 0.0
        for i, op in enumerate(self.ops):
            out_path = os.path.join(self.workdir, f"op{i}.out")
            code, _, _ = self.launcher.spawn(op.argv, out_path)
            with open(out_path, "rb") as handle:
                stdout = handle.read()
            self.digests.append(digest(code, stdout, op))
            problems = [] if code == op.exit else [f"exit code {code}, expected {op.exit}"]
            try:
                found, log2 = self.check_output(op, inputs, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found, log2 = [f"unreadable output: {exc!r}"], 0.0
            self.record(i, problems + found)
            total_log2 += log2
        return total_log2

    def check_output(self, op, inputs, stdout) -> tuple[list, float]:
        spec = op.check
        kind = spec["kind"]
        if kind == "map":
            header = None
            if spec["target"] is not None:
                header = json.loads(_read(os.path.join(self.workdir, spec["target"])))
            return check.check_map(inputs[spec["input"]], stdout, _read(output_path(op)), header)
        if kind == "verify":
            return check.check_verify(stdout), 0.0
        if kind == "check_universal":
            header = json.loads(_read(op.argv[1]))
            size = check.TupleTarget(header["q"], header["d"], header["k"]).vertex_count
            found = check.check_universal(inputs[spec["input"]], stdout, spec["k"], spec["universal"])
            return found, math.log2(size)
        if kind == "min_target":
            graphs = [inputs[name] for name in spec["inputs"]]
            found = check.check_min_target(graphs, stdout, spec["k"])
            return found, math.log2(max(json.loads(stdout).get("size", 1), 1))
        raise ValueError(f"unknown check kind {kind}")

    def subprocess_pass(self) -> tuple[list, int]:
        """One timed pass; return (each operation's wall seconds with the
        reference times before and after it, largest child RSS in KiB)."""
        samples, peak = [], 0
        before = reference_seconds()
        for i, op in enumerate(self.ops):
            out_path = os.path.join(self.workdir, f"op{i}.out")
            code, elapsed, rss = self.launcher.spawn(op.argv, out_path)
            after = reference_seconds()
            samples.append((elapsed, before, after))
            before = after
            peak = max(peak, rss)
            with open(out_path, "rb") as handle:
                same = digest(code, handle.read(), op) == self.digests[i]
            self.record(i, [] if same else ["output differs from the checked pass"])
        return samples, peak


def pass_seconds(passes) -> float:
    """One pass's time at reference speed: the sum over operations of each
    operation's median scaled time, from per-pass (seconds, before, after)
    samples."""
    return sum(statistics.median(scaled(*s) for s in column) for column in zip(*passes))


def measure(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Timed passes for the given time; return the end-to-end metrics and
    the raw samples.

    Times are scaled to reference speed (see ``scaled``); ``wall_s`` is
    ``pass_seconds`` of the timed passes. The set-up is
    repeated before every pass, so that its samples are spread over the run
    like the passes are; the files it writes are identical each time, which
    the digests confirm. ``setup_s`` is the median scaled set-up time.
    """
    setups, passes, peaks = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + sum(s[0] for s in passes[-1]) < deadline:
        before = reference_seconds()
        times = [workload.setup() for _ in range(SETUP_REPEATS)]
        after = reference_seconds()
        setups += [(elapsed, before, after) for elapsed in times]
        samples, peak = workload.subprocess_pass()
        passes.append(samples)
        peaks.append(peak)
    metrics = {
        "setup_s": statistics.median(scaled(*s) for s in setups),
        "wall_s": pass_seconds(passes),
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }
    raw_wall = statistics.median(sum(s[0] for s in samples) for samples in passes)
    return metrics, {"raw_wall_s": raw_wall, "op_samples": passes, "setup_samples": setups}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_program():
    """Import ectarget from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ectarget.cli

    if not os.path.abspath(ectarget.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ectarget from {ectarget.cli.__file__}, not {SRC}")
    return ectarget


def trace_targets(ec) -> list:
    """(span name, [(module, attribute), ...]): every attribute the package
    calls the function through, so each call is wrapped exactly once."""
    cli, density, coloring = ec.cli, ec.density, ec.coloring
    out, universal = ec.out_coloring, ec.universal
    return [
        ("cli.main", [(cli, "main")]),
        ("graphs.parse", [(cli, "parse_edge_colored")]),
        ("graphs.parse", [(cli, "parse_graph")]),
        ("graphs.parse", [(cli, "parse_homomorphism")]),
        ("density.densest_subgraph", [(cli, "densest_subgraph"), (density, "densest_subgraph")]),
        ("density.find_orientation", [(cli, "find_orientation"), (density, "find_orientation")]),
        ("coloring.greedy_star_coloring", [(cli, "greedy_star_coloring")]),
        ("coloring.verify_star", [(cli, "verify_star"), (out, "verify_star")]),
        ("out_coloring.build_out_coloring", [(cli, "build_out_coloring")]),
        (
            "out_coloring.verify_out_coloring",
            [(out, "verify_out_coloring"), (universal, "verify_out_coloring")],
        ),
        ("universal.build_universal", [(cli, "build_universal")]),
        ("universal.build_homomorphism", [(cli, "build_homomorphism")]),
        ("universal.verify_homomorphism", [(cli, "verify_homomorphism")]),
        ("universal.check_universal", [(cli, "check_universal"), (universal, "check_universal")]),
        ("universal.find_homomorphism", [(universal, "find_homomorphism")]),
        ("universal.min_universal_size", [(cli, "min_universal_size")]),
    ]


def _count_orientation(counters, args, result):
    counters["density.in_degree_d"] += args[1]


def _count_star(counters, args, result):
    counters["coloring.star_palette"] += result.palette


def _count_out_coloring(counters, args, result):
    counters["out_coloring.aux_triples"] += sum(result.rule_counts.values())
    counters["out_coloring.palette"] += result.coloring.palette
    counters["out_coloring.budget"] += result.budget


HOOKS = {
    "density.find_orientation": _count_orientation,
    "coloring.greedy_star_coloring": _count_star,
    "out_coloring.build_out_coloring": _count_out_coloring,
}


def call_inprocess(cli, argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def inprocess_pass(workload: Workload, ec, tracer=None) -> list:
    """One pass through ``ectarget.cli.main``; return each operation's
    (seconds, reference seconds before, reference seconds after)."""
    samples = []
    before = reference_seconds()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        code, stdout = call_inprocess(ec.cli, op.argv)
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        samples.append((elapsed, before, after))
        before = after
        if tracer is not None:
            tracer.counters["cli.stdout_bytes"] += len(stdout)
        same = digest(code, stdout, op) == workload.digests[i]
        workload.record(i, [] if same else ["in-process output differs from the subprocess output"])
    return samples


def layer_metrics(pass_spans, counters, factor: float) -> dict:
    """One traced pass's per-layer values; self times are multiplied by
    ``factor``, which scales them to reference speed."""
    selfs = spans.self_times(pass_spans)
    values = {}
    for name, suffixes in LAYER_SPANS.items():
        for suffix in suffixes:
            values[name + suffix] = selfs[name] * factor if suffix == "_s" else counters[name + suffix]
    for name in LAYER_COUNTS:
        values[name] = counters[name]
    budget = counters["out_coloring.budget"]
    values["out_coloring.palette_per_budget"] = counters["out_coloring.palette"] / budget if budget else 0.0
    return values


def trace(workload: Workload, ec, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes for the given time;
    return the per-layer medians and the spans of each traced pass. Times
    are scaled to reference speed like the end-to-end ones."""
    tracer = spans.Tracer(trace_targets(ec), HOOKS)
    untraced, traced, per_pass, recorded = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(inprocess_pass(workload, ec))
        tracer.spans, tracer.counters = [], Counter()
        with tracer:
            samples = inprocess_pass(workload, ec, tracer)
        traced.append(samples)
        factor = sum(scaled(*s) for s in samples) / sum(s[0] for s in samples)
        per_pass.append(layer_metrics(tracer.spans, tracer.counters, factor))
        recorded.append(tracer.spans)
    # median_low keeps each count a count of one actual pass
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    traced_seconds = pass_seconds(traced)
    metrics["bench.trace_overhead_s"] = traced_seconds - pass_seconds(untraced)
    extra = {"traced_pass_s": traced_seconds, "untraced_samples": untraced, "traced_samples": traced}
    return metrics, {**extra, "spans": recorded}


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import ectarget.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        before = reference_seconds()
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, check=True
        )
        times.append(scaled(float(out.stdout), before, reference_seconds()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    ref = _read(head).strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        return _read(loose).strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        for line in _read(packed).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_results(args, payload: dict) -> str:
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ectarget", "cli.py")):
        print(f"error: no ectarget sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        with Launcher() as launcher:
            workload = Workload(args.workload, args.seed, workdir, launcher)
            workload.setup()
            log2_vertices = workload.check_pass()
            if not args.trace:
                metrics, extra = measure(workload, args.seconds)
                metrics["target_log2_vertices"] = log2_vertices
                units = END_TO_END
        if args.trace:
            ec = import_program()
            metrics, extra = trace(workload, ec, args.seconds)
            metrics["cli.import_s"] = import_seconds()
            units = per_layer_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = workload.failed / workload.attempted
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = write_results(
        args,
        {
            "environment": environment(args),
            "inputs": [inp.record() for inp in workload.inputs],
            "operations": [op.argv[0] for op in workload.ops],
            "problems": workload.problems,
            "error_rate": error_rate,
            **result,
            **extra,
        },
    )
    print(f"{args.workload} seed {args.seed}: {workload.attempted} operations, {workload.failed} failed")
    for problem in workload.problems:
        print(f"  {problem}")
    print(f"error_rate {error_rate:.4g} ratio")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"unscaled median pass wall time {extra['raw_wall_s']:.6g} s")
    if args.trace:
        top = max((n for n in LAYER_SPANS if n != "cli.main"), key=lambda n: metrics[n + "_s"])
        share = metrics[top + "_s"] / extra["traced_pass_s"]
        print(f"largest layer self time: {top}_s, {share:.0%} of a traced pass")
    print(f"results in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
