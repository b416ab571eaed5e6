"""Universal targets for homomorphisms of edge-colored graphs.

The pipeline: compute the exact maximum subgraph density, orient the graph
with bounded in-degree, star-color it, lift the star coloring to an
out-coloring of the orientation, build the tuple-structured universal target,
and map the colored graph into it with an explicitly verified homomorphism.
Closed-form size bounds and exhaustive desk-scale oracles round it out.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a command compiles only
the stages it runs.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "PowerBound",
        "ceil_log",
        "ceil_sqrt",
        "clique_genus",
        "genus_density_bounds",
        "orientation_bound_from_target",
        "planar_bounds",
        "universal_lower_bound",
        "universal_upper_bound",
    ),
    "coloring": ("exact_star_coloring", "greedy_star_coloring", "verify_acyclic", "verify_star"),
    "density": (
        "Density",
        "OrientationInfeasible",
        "densest_subgraph",
        "find_orientation",
        "min_orientation",
        "orientation_from_acyclic",
    ),
    "graphs": (
        "EdgeColoredGraph",
        "Graph",
        "GraphFormatError",
        "GuardExceeded",
        "Homomorphism",
        "Limits",
        "OrientedGraph",
        "VertexColoring",
        "parse_edge_colored",
        "parse_graph",
        "parse_homomorphism",
        "parse_oriented",
        "serialize",
        "serialize_coloring",
        "serialize_graph",
        "serialize_homomorphism",
        "serialize_oriented",
    ),
    "out_coloring": (
        "OutColoringCertificate",
        "TargetNotUniversal",
        "build_out_coloring",
        "out_coloring_from_universal",
        "serialize_certificate",
    ),
    "universal": (
        "UniversalTarget",
        "build_homomorphism",
        "build_universal",
        "check_universal",
        "find_homomorphism",
        "min_universal_size",
        "verify_homomorphism",
        "verify_out_coloring",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
