"""Universal targets for homomorphisms of edge-colored graphs.

The pipeline: compute the exact maximum subgraph density, orient the graph
with bounded in-degree, star-color it, lift the star coloring to an
out-coloring of the orientation, build the tuple-structured universal target,
and map the colored graph into it with an explicitly verified homomorphism.
Closed-form size bounds and exhaustive desk-scale oracles round it out.
"""

from .bounds import (
    BoundReport,
    PowerBound,
    ceil_log,
    ceil_sqrt,
    clique_genus,
    genus_density_bounds,
    orientation_bound_from_target,
    planar_bounds,
    universal_lower_bound,
    universal_upper_bound,
)
from .coloring import (
    exact_star_coloring,
    greedy_star_coloring,
    verify_acyclic,
    verify_star,
)
from .density import (
    Density,
    OrientationInfeasible,
    densest_subgraph,
    find_orientation,
    min_orientation,
    orientation_from_acyclic,
)
from .graphs import (
    EdgeColoredGraph,
    Graph,
    GraphFormatError,
    GuardExceeded,
    Homomorphism,
    Limits,
    OrientedGraph,
    VertexColoring,
    parse_edge_colored,
    parse_graph,
    parse_homomorphism,
    parse_oriented,
    serialize,
    serialize_coloring,
    serialize_graph,
    serialize_homomorphism,
    serialize_oriented,
)
from .out_coloring import (
    OutColoringCertificate,
    TargetNotUniversal,
    build_out_coloring,
    out_coloring_from_universal,
    serialize_certificate,
    verify_out_coloring,
)
from .universal import (
    UniversalTarget,
    build_homomorphism,
    build_universal,
    check_universal,
    find_homomorphism,
    min_universal_size,
    verify_homomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Density",
    "EdgeColoredGraph",
    "Graph",
    "GraphFormatError",
    "GuardExceeded",
    "Homomorphism",
    "Limits",
    "OrientationInfeasible",
    "OrientedGraph",
    "OutColoringCertificate",
    "PowerBound",
    "TargetNotUniversal",
    "UniversalTarget",
    "VertexColoring",
    "build_homomorphism",
    "build_out_coloring",
    "build_universal",
    "ceil_log",
    "ceil_sqrt",
    "check_universal",
    "clique_genus",
    "densest_subgraph",
    "exact_star_coloring",
    "find_homomorphism",
    "find_orientation",
    "genus_density_bounds",
    "greedy_star_coloring",
    "min_orientation",
    "min_universal_size",
    "orientation_bound_from_target",
    "orientation_from_acyclic",
    "out_coloring_from_universal",
    "parse_edge_colored",
    "parse_graph",
    "parse_homomorphism",
    "parse_oriented",
    "planar_bounds",
    "serialize",
    "serialize_certificate",
    "serialize_coloring",
    "serialize_graph",
    "serialize_homomorphism",
    "serialize_oriented",
    "universal_lower_bound",
    "universal_upper_bound",
    "verify_acyclic",
    "verify_homomorphism",
    "verify_out_coloring",
    "verify_star",
]
