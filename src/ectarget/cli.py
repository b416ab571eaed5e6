"""Command-line front end wiring the whole pipeline together.

Exit codes: 0 success, 1 verified negative (infeasible, not found, or
counterexample), 2 usage or input error, 3 size guard exceeded. Commands
that emit a constructed object always run the matching verifier first.
Identical inputs and seed produce byte-identical output. The environment
variable ECTARGET_GUARD_OVERRIDE raises each of the eight size limits of
``Limits`` that is below the given integer to it (searches can then be very
slow); only the commands that hit a limit read it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import genus_density_bounds, planar_bounds, universal_upper_bound
from .coloring import exact_star_coloring, greedy_star_coloring, verify_star
from .density import OrientationInfeasible, densest_subgraph, find_orientation, min_orientation
from .graphs import (
    LIMITS,
    GraphFormatError,
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
from .out_coloring import TargetNotUniversal, build_out_coloring, serialize_certificate
from .universal import (
    UniversalTarget,
    build_homomorphism,
    build_universal,
    check_universal,
    min_universal_size,
    verify_homomorphism,
)


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


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _target_header(text: str):
    """(q, d, k) of a compact target header, or None for an explicit target."""
    if not text.lstrip().startswith("{"):
        return None
    try:
        header = json.loads(text)
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


def _cmd_density(args) -> int:
    dens = densest_subgraph(_sized(parse_graph(_read(args.graph))))
    _emit(args, {"density": str(dens.value), "witness": list(dens.witness)})
    return 0


def _cmd_orient(args) -> int:
    graph = _sized(parse_graph(_read(args.graph)))
    if args.d is None:
        d, oriented = min_orientation(graph)
    else:
        d = args.d
        try:
            oriented = find_orientation(graph, d)
        except OrientationInfeasible as exc:
            _emit(args, {"feasible": False, "d": d, "witness": list(exc.witness)})
            return 1
    text = serialize_oriented(oriented)
    _emit(
        args,
        {
            "feasible": True,
            "d": d,
            "max_in_degree": oriented.max_in_degree,
            "orientation": text.splitlines(),
        },
    )
    _write_output(args, text)
    return 0


def _cmd_star_color(args) -> int:
    graph = _sized(parse_graph(_read(args.graph)))
    if args.exact is not None:
        coloring = exact_star_coloring(graph, args.exact, _limits())
        if coloring is None:
            _emit(args, {"found": False, "c_max": args.exact})
            return 1
    else:
        coloring = greedy_star_coloring(graph, seed=args.seed)
    if not verify_star(graph, coloring):
        raise AssertionError("refusing to print an unverified coloring")
    _emit(
        args,
        {
            "palette": coloring.palette,
            "coloring": [[v, c] for v, c in enumerate(coloring.assign)],
            "verified": True,
        },
    )
    _write_output(args, serialize_coloring(coloring))
    return 0


def _cmd_out_color(args) -> int:
    graph = _sized(parse_graph(_read(args.graph)))
    oriented = _sized(parse_oriented(_read(args.orientation)))
    if oriented.graph != graph:
        raise ValueError("orientation file does not match the graph file")
    star = greedy_star_coloring(graph, seed=args.seed)
    certificate = build_out_coloring(oriented, star)
    _emit(
        args,
        {
            "palette": certificate.coloring.palette,
            "budget": certificate.budget,
            "rule_counts": certificate.rule_counts,
            "star_palette": star.palette,
            "max_in_degree": oriented.max_in_degree,
            "coloring": [[v, c] for v, c in enumerate(certificate.coloring.assign)],
            "verified": True,
        },
    )
    _write_output(args, serialize_certificate(certificate))
    return 0


def _cmd_build_target(args) -> int:
    target = build_universal(args.q, args.d, args.k, _limits())
    payload = {
        "q": target.q,
        "d": target.d,
        "k": target.k,
        "vertex_count": target.vertex_count,
    }
    if args.explicit:
        explicit = target.to_edge_colored_graph()
        text = serialize(explicit)
        payload["target"] = text.splitlines()
        _write_output(args, text)
    else:
        _write_output(args, json.dumps(target.header(), sort_keys=True) + "\n")
    _emit(args, payload)
    return 0


def _cmd_map(args) -> int:
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
            _emit(args, {"verified": False, "reason": "orientation infeasible", "witness": list(exc.witness)})
            return 1
    else:
        _, oriented = min_orientation(graph)
    star = greedy_star_coloring(graph, seed=args.seed)
    certificate = build_out_coloring(oriented, star)
    palette = certificate.coloring.palette
    if not args.target:
        target = build_universal(palette, oriented.max_in_degree, k, _limits())
    elif palette > q:
        _emit(args, {"verified": False, "reason": f"out-coloring needs {palette} colors, target allows q={q}"})
        return 1
    hom = build_homomorphism(source, oriented, certificate.coloring, target)
    if not verify_homomorphism(source, target, hom):
        raise AssertionError("refusing to print an unverified homomorphism")
    _emit(
        args,
        {
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
        },
    )
    _write_output(args, serialize_homomorphism(hom))
    return 0


def _cmd_verify(args) -> int:
    source = _sized(parse_edge_colored(_read(args.source)))
    target = _load_target(args.target, _limits())
    hom = parse_homomorphism(_read(args.homomorphism))
    ok = verify_homomorphism(source, target, hom)
    _emit(args, {"verified": ok})
    return 0 if ok else 1


def _cmd_check_universal(args) -> int:
    limits = _limits()
    target = _load_target(args.target, limits)
    graph = _sized(parse_graph(_read(args.graph)))
    counterexample = check_universal(target, graph, args.k, limits)
    if counterexample is None:
        _emit(args, {"universal": True})
        return 0
    _emit(args, {"universal": False, "counterexample": serialize(counterexample).splitlines()})
    return 1


def _cmd_min_target(args) -> int:
    graphs = [_sized(parse_graph(_read(path))) for path in args.graphs]
    result = min_universal_size(graphs, args.k, args.max_p, _limits())
    if result is None:
        _emit(args, {"found": False, "max_p": args.max_p})
        return 1
    size, target = result
    text = serialize(target)
    _emit(args, {"found": True, "size": size, "target": text.splitlines()})
    _write_output(args, text)
    return 0


def _cmd_bounds(args) -> int:
    if args.family == "planar":
        _emit(args, planar_bounds(args.k).to_dict())
    elif args.family == "genus":
        lower, upper, t = genus_density_bounds(args.g)
        _emit(args, {"lower": lower, "upper": upper, "t": t})
    else:
        r, d, k = args.r, args.d, args.k
        # C(P, d) >= (P // d)**d = (8*r**4)**d for P = 8*d*r**4, so the value has more than
        # bits*log10(2) digits; refuse before computing one too long to print (a limit of
        # 0, or none before Python 3.10.7, means any length prints)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bits = (8 * d * r**4).bit_length() - 1 + d * ((8 * r**4 * k).bit_length() - 1)
        if min(r, d, k - 1) >= 1 and limit and bits * 30102 // 100000 >= limit:
            raise ValueError(f"bounds upper: the value has more than {limit} digits, too many to print")
        value = universal_upper_bound(r, d, k)
        _emit(args, {"value": str(value), "parameters": {"r": r, "d": d, "k": k}})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ectarget",
        description="Universal targets for homomorphisms of edge-colored graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", parents=[common], help="exact maximum subgraph density")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("orient", parents=[common], help="orientation with bounded in-degree")
    p.add_argument("graph")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_orient)

    p = sub.add_parser("star-color", parents=[common], help="star coloring (greedy or exact)")
    p.add_argument("graph")
    p.add_argument("--exact", type=int, default=None, metavar="C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_star_color)

    p = sub.add_parser("out-color", parents=[common], help="out-coloring of an orientation")
    p.add_argument("graph")
    p.add_argument("--orientation", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_out_color)

    p = sub.add_parser("build-target", parents=[common], help="tuple target for (q, d, k)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--explicit", action="store_true")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_build_target)

    p = sub.add_parser("map", parents=[common], help="full pipeline into a universal target")
    p.add_argument("source")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("verify", parents=[common], help="verify a homomorphism file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("homomorphism")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("check-universal", parents=[common], help="exhaustive universality check")
    p.add_argument("target")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check_universal)

    p = sub.add_parser("min-target", parents=[common], help="smallest universal target search")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-p", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_min_target)

    p = sub.add_parser("bounds", parents=[common], help="closed-form bound evaluation")
    fam = p.add_subparsers(dest="family", required=True)
    fp = fam.add_parser("planar", parents=[common])
    fp.add_argument("--k", type=int, required=True)
    fp.set_defaults(handler=_cmd_bounds, family="planar")
    fg = fam.add_parser("genus", parents=[common])
    fg.add_argument("--g", type=int, required=True)
    fg.set_defaults(handler=_cmd_bounds, family="genus")
    fu = fam.add_parser("upper", parents=[common])
    fu.add_argument("--r", type=int, required=True)
    fu.add_argument("--d", type=int, required=True)
    fu.add_argument("--k", type=int, required=True)
    fu.set_defaults(handler=_cmd_bounds, family="upper")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TargetNotUniversal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
