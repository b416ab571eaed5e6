"""Command-line front end wiring the whole pipeline together.

Exit codes: 0 success, 1 verified negative (infeasible, not found, or
counterexample), 2 usage or input error, 3 size guard exceeded, 4 internal
error: the program refused its own output. Commands that emit a constructed
object always run the matching verifier first and raise AssertionError when
it fails. Each ``_cmd_*`` handler returns (exit code, report, output text or
None); ``main`` alone renders the report, writes the ``--output`` file, then
the report, so stdout is empty and no file is written on exit 2, 3 or 4.
Identical inputs and seed produce byte-identical output. The environment
variable ECTARGET_GUARD_OVERRIDE raises each of the eight size limits of
``Limits`` that is below the given integer to it (searches can then be very
slow); only the commands that hit a limit read it. A search it lets run
deeper than Python's recursion limit exits 3, as a guard would.

``main`` refuses a closed descriptor 1 before it writes anything, then
flushes the report itself, so a closed stdout exits 2 with its message,
buffered or not; a closed pipe fails only after the ``--output`` file is
written. ``main`` returns its exit code and never ends the interpreter.
``app`` (the ``ectarget`` script and ``python -m ectarget.cli``) runs ``main``
and the ``atexit`` handlers, flushes stdout and stderr, ignoring a closed one,
and ends with ``os._exit(code)``: finalization frees only what the OS reclaims.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import sys

from . import _EXPORTS, _HOME
from .graphs import (
    LIMITS,
    GuardExceeded,
    Limits,
    parse_edge_colored,
    parse_graph,
    parse_homomorphism,
    parse_oriented,
    serialize,
    serialize_coloring,
    serialize_homomorphism,
    serialize_oriented,
)
from .universal import (
    build_homomorphism,
    build_universal,
    check_universal,
    min_universal_size,
    verify_homomorphism,
)


def _bind(*stages) -> None:
    """Bind the public names of each stage module into this module, keeping
    a name that is already bound, so that a patch made before first use
    still sees every call. Stages load on first use: compiling every stage
    took check-universal and min-target longer than their searches."""
    for stage in stages:
        module = importlib.import_module(f".{stage}", __package__)
        for name in _EXPORTS[stage]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


def _limits() -> Limits:
    """The default limits, raised to ECTARGET_GUARD_OVERRIDE when it is set."""
    raw = os.environ.get("ECTARGET_GUARD_OVERRIDE")
    if raw is None:
        return LIMITS
    try:
        return LIMITS.raised(int(raw))
    except ValueError:
        raise ValueError("ECTARGET_GUARD_OVERRIDE must be an integer") from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _sized(parsed):
    """The parsed plain, oriented or edge-colored graph, refused before any
    work of its size when it has more than graph_n vertices."""
    n = getattr(parsed, "graph", parsed).n
    if n > LIMITS.graph_n:  # the override is read only when a limit is hit
        _limits().check("graph_n", n, f"a graph of {n} vertices")
    return parsed


def _unique_keys(pairs: list) -> dict:
    """A header object, refused where it names a key twice, which json.loads
    would resolve silently to the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"target header repeats key {key!r}")
        obj[key] = value
    return obj


def _target_header(text: str):
    """(q, d, k) of a compact target header, or None for an explicit target."""
    if not text.lstrip().startswith("{"):
        return None
    try:
        header = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("target header nests too deeply") from None
    for key in "qdk":
        if key not in header:
            raise ValueError(f"target header has no {key}")
        if type(header[key]) is not int:
            raise ValueError(f"target header {key} must be an integer, got {header[key]!r}")
    return header["q"], header["d"], header["k"]


def _load_target(path: str, limits: Limits):
    text = _read(path)
    header = _target_header(text)
    return _sized(parse_edge_colored(text)) if header is None else build_universal(*header, limits)


def _cmd_density(args):
    _bind("density")
    dens = densest_subgraph(_sized(parse_graph(_read(args.graph))))
    return 0, {"density": str(dens.value), "witness": list(dens.witness)}, None


def _cmd_orient(args):
    _bind("density")
    graph = _sized(parse_graph(_read(args.graph)))
    if args.d is None:
        d, oriented = min_orientation(graph)
    else:
        d = args.d
        try:
            oriented = find_orientation(graph, d)
        except OrientationInfeasible as exc:
            return 1, {"feasible": False, "d": d, "witness": list(exc.witness)}, None
    if oriented.max_in_degree > d:
        raise AssertionError("refusing to print an orientation with in-degree above d")
    text = serialize_oriented(oriented)
    report = {
        "feasible": True,
        "d": d,
        "max_in_degree": oriented.max_in_degree,
        "orientation": text.splitlines(),
    }
    return 0, report, text


def _cmd_star_color(args):
    _bind("coloring")
    graph = _sized(parse_graph(_read(args.graph)))
    if args.exact is not None:
        coloring = exact_star_coloring(graph, args.exact, _limits())
        if coloring is None:
            return 1, {"found": False, "c_max": args.exact}, None
    else:
        coloring = greedy_star_coloring(graph, seed=args.seed)
    if not verify_star(graph, coloring):
        raise AssertionError("refusing to print an unverified coloring")
    report = {
        "palette": coloring.palette,
        "coloring": [[v, c] for v, c in enumerate(coloring.assign)],
        "verified": True,
    }
    return 0, report, serialize_coloring(coloring)


def _cmd_out_color(args):
    _bind("coloring", "out_coloring")
    graph = _sized(parse_graph(_read(args.graph)))
    oriented = _sized(parse_oriented(_read(args.orientation)))
    if oriented.graph != graph:
        raise ValueError("orientation file does not match the graph file")
    star = greedy_star_coloring(graph, seed=args.seed)
    certificate = build_out_coloring(oriented, star)
    report = {
        "palette": certificate.coloring.palette,
        "budget": certificate.budget,
        "rule_counts": certificate.rule_counts,
        "star_palette": star.palette,
        "max_in_degree": oriented.max_in_degree,
        "coloring": [[v, c] for v, c in enumerate(certificate.coloring.assign)],
        "verified": True,
    }
    return 0, report, serialize_certificate(certificate)


def _cmd_build_target(args):
    target = build_universal(args.q, args.d, args.k, _limits())
    report = {
        "q": target.q,
        "d": target.d,
        "k": target.k,
        "vertex_count": target.vertex_count,
    }
    if not args.explicit:
        return 0, report, json.dumps(target.header(), sort_keys=True) + "\n"
    text = serialize(target.to_edge_colored_graph())
    report["target"] = text.splitlines()
    return 0, report, text


def _cmd_map(args):
    _bind("coloring", "density", "out_coloring")
    source = _sized(parse_edge_colored(_read(args.source)))
    if args.k is not None and args.k != source.k:
        raise ValueError(f"--k {args.k} does not match the file palette k={source.k}")
    graph = source.graph
    k = source.k
    if args.target:
        header = _target_header(_read(args.target))
        if header is None:
            raise ValueError("map needs a compact target header file (JSON with q, d, k)")
        q, d, tk = header
        if tk != k:
            raise ValueError(f"target palette k={tk} does not match source k={k}")
        # a header the target refuses fails here, before any work on the source
        target = build_universal(q, d, k, _limits())
        try:
            oriented = find_orientation(graph, d)
        except OrientationInfeasible as exc:
            report = {"verified": False, "reason": "orientation infeasible", "witness": list(exc.witness)}
            return 1, report, None
    else:
        _, oriented = min_orientation(graph)
    star = greedy_star_coloring(graph, seed=args.seed)
    # a fitted target needs only the rules for the source's own edge colors
    certificate = build_out_coloring(oriented, star, None if args.target else source.colors)
    palette = certificate.coloring.palette
    if not args.target:
        target = build_universal(palette, oriented.max_in_degree, k, _limits())
    elif palette > q:
        reason = f"out-coloring needs {palette} colors, target allows q={q}"
        return 1, {"verified": False, "reason": reason}, None
    hom = build_homomorphism(source, oriented, certificate.coloring, target)
    if not verify_homomorphism(source, target, hom):
        raise AssertionError("refusing to print an unverified homomorphism")
    report = {
        "n": graph.n,
        "m": graph.m,
        "k": k,
        "max_in_degree": oriented.max_in_degree,
        "star_palette": star.palette,
        "out_palette": certificate.coloring.palette,
        "out_budget": certificate.budget,
        "rule_counts": certificate.rule_counts,
        "target": {**target.header(), "vertex_count": target.vertex_count},
        "homomorphism": list(hom.mapping),
        "verified": True,
    }
    return 0, report, serialize_homomorphism(hom)


def _cmd_verify(args):
    source = _sized(parse_edge_colored(_read(args.source)))
    target = _load_target(args.target, _limits())
    hom = parse_homomorphism(_read(args.homomorphism))
    ok = verify_homomorphism(source, target, hom)
    return (0 if ok else 1), {"verified": ok}, None


def _cmd_check_universal(args):
    limits = _limits()
    target = _load_target(args.target, limits)
    graph = _sized(parse_graph(_read(args.graph)))
    counterexample = check_universal(target, graph, args.k, limits)
    if counterexample is None:
        return 0, {"universal": True}, None
    return 1, {"universal": False, "counterexample": serialize(counterexample).splitlines()}, None


def _cmd_min_target(args):
    graphs = [_sized(parse_graph(_read(path))) for path in args.graphs]
    result = min_universal_size(graphs, args.k, args.max_p, _limits())
    if result is None:
        return 1, {"found": False, "max_p": args.max_p}, None
    size, target = result
    text = serialize(target)
    return 0, {"found": True, "size": size, "target": text.splitlines()}, text


def _cmd_bounds(args):
    _bind("bounds")
    if args.family == "planar":
        return 0, planar_bounds(args.k).to_dict(), None
    if args.family == "genus":
        lower, upper, t = genus_density_bounds(args.g)
        return 0, {"lower": lower, "upper": upper, "t": t}, None
    r, d, k = args.r, args.d, args.k
    # C(P, d) >= (P // d)**d = (8*r**4)**d for P = 8*d*r**4, so the value has more than
    # bits*log10(2) digits; refuse before computing one too long to print (a limit of
    # 0, or none before Python 3.10.7, means any length prints)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = (8 * d * r**4).bit_length() - 1 + d * ((8 * r**4 * k).bit_length() - 1)
    if min(r, d, k - 1) >= 1 and limit and bits * 30102 // 100000 >= limit:
        raise ValueError(f"bounds upper: the value has more than {limit} digits, too many to print")
    value = universal_upper_bound(r, d, k)
    return 0, {"value": str(value), "parameters": {"r": r, "d": d, "k": k}}, None


_INT, _NEEDED_INT, _OUTPUT = {"type": int}, {"type": int, "required": True}, ("--output", {})
_SEED = ("--seed", {"type": int, "default": 0})
# name: (help, handler, its arguments as (name, add_argument options) pairs)
_COMMANDS = {
    "density": ("exact maximum subgraph density", _cmd_density, [("graph", {})]),
    "orient": ("orientation with bounded in-degree", _cmd_orient, [("graph", {}), ("--d", _INT), _OUTPUT]),
    "star-color": (
        "star coloring (greedy or exact)",
        _cmd_star_color,
        [("graph", {}), ("--exact", {"type": int, "metavar": "C"}), _SEED, _OUTPUT],
    ),
    "out-color": (
        "out-coloring of an orientation",
        _cmd_out_color,
        [("graph", {}), ("--orientation", {"required": True}), _SEED, _OUTPUT],
    ),
    "build-target": (
        "tuple target for (q, d, k)",
        _cmd_build_target,
        [
            ("--q", _NEEDED_INT),
            ("--d", _NEEDED_INT),
            ("--k", _NEEDED_INT),
            ("--explicit", {"action": "store_true"}),
            _OUTPUT,
        ],
    ),
    "map": (
        "full pipeline into a universal target",
        _cmd_map,
        [("source", {}), ("--k", _INT), _SEED, ("--target", {}), _OUTPUT],
    ),
    "verify": ("verify a homomorphism file", _cmd_verify, [("source", {}), ("target", {}), ("homomorphism", {})]),
    "check-universal": (
        "exhaustive universality check",
        _cmd_check_universal,
        [("target", {}), ("--graph", {"required": True}), ("--k", _NEEDED_INT)],
    ),
    "min-target": (
        "smallest universal target search",
        _cmd_min_target,
        [("graphs", {"nargs": "+"}), ("--k", {"type": int, "default": 2}), ("--max-p", _NEEDED_INT), _OUTPUT],
    ),
    # its arguments: the flags, each a required int, of each family's subcommand
    "bounds": (
        "closed-form bound evaluation",
        _cmd_bounds,
        {"planar": ["--k"], "genus": ["--g"], "upper": ["--r", "--d", "--k"]},
    ),
}


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand or, where only names
    one, with that one alone, which parses its arguments alike: building
    every parser took most of the time of a short command."""
    parser = argparse.ArgumentParser(
        prog="ectarget",
        description="Universal targets for homomorphisms of edge-colored graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="json")
    # with one subcommand, its usage line on an error still names them all
    names = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "bounds":
            families = p.add_subparsers(dest="family", required=True)
            for family, flags in arguments.items():
                fp = families.add_parser(family, parents=[common])
                for flag in flags:
                    fp.add_argument(flag, **_NEEDED_INT)
                fp.set_defaults(handler=handler, family=family)
        else:
            for argument, options in arguments:
                p.add_argument(argument, **options)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, report, text = args.handler(args)
        if args.format == "json":
            rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            rendered = ""
            for key, value in sorted(report.items()):
                if isinstance(value, list):
                    rendered += f"{key}:\n" + "".join(f"  {item}\n" for item in value)
                else:
                    rendered += f"{key}: {value}\n"
        if sys.stdout is None:  # descriptor 1 is closed
            raise OSError("stdout is closed")
        if text is not None and getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        sys.stdout.write(rendered)
        sys.stdout.flush()  # a closed pipe fails here, buffered or not
        return code
    except (GuardExceeded, RecursionError) as exc:
        code, error = 3, exc
    except AssertionError as exc:
        code, error = 4, exc
    except (OSError, ValueError, KeyError) as exc:
        code, error = 2, exc
    try:
        sys.stderr.write(f"error: {error}\n")
    except (AttributeError, OSError):
        pass  # descriptor 2 is closed (stderr may be None): the code alone tells
    return code


def app() -> None:
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass  # a closed pipe: main has chosen the code already
    os._exit(code)


if __name__ == "__main__":
    app()
