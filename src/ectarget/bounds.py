"""Closed-form size bounds and surface-density formulas, in exact arithmetic.

Every integer-valued formula is evaluated with big integers; ceilings of
square roots and logarithms are computed by exact power comparison, never
through floating point. Real-valued quantities report an exact symbolic
form where available plus a float approximation.
"""

from __future__ import annotations

import json
import math

from .density import densest_subgraph
from .graphs import Graph, Value


def ceil_sqrt(x: int) -> int:
    """Smallest integer t with t*t >= x."""
    if x < 0:
        raise ValueError(f"ceil_sqrt needs a nonnegative argument, got {x}")
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def ceil_log(p: int, k: int) -> int:
    """Smallest integer m with k**m >= p."""
    if p < 1:
        raise ValueError(f"ceil_log needs p >= 1, got {p}")
    if k < 2:
        raise ValueError(f"ceil_log needs k >= 2, got {k}")
    m, power = 0, 1
    while power < p:
        power *= k
        m += 1
    return m


class PowerBound(Value):
    """An exact value of the form base ** exponent for rational exponents."""

    _fields = ("base", "exponent")

    @property
    def approx(self) -> float:
        return float(self.base) ** float(self.exponent)

    def __le__(self, other: int) -> bool:
        # base^(p/q) <= other  iff  base^p <= other^q, exactly
        p, q = self.exponent.numerator, self.exponent.denominator
        return self.base**p <= other**q


class BoundReport(Value):
    """Lower and upper bound on the minimum universal target size."""

    _fields = ("lower", "upper", "parameters", "notes")

    def to_dict(self) -> dict:
        """The report with both bounds as decimal strings."""
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "parameters": self.parameters,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def universal_upper_bound(r: int, d: int, k: int) -> int:
    """Size bound 8*d*r^4 * C(8*d*r^4, d) * k^d for a class admitting acyclic
    colorings with r colors and orientations with in-degree at most d."""
    if r < 1 or d < 1:
        raise ValueError(f"need r >= 1 and d >= 1, got r={r}, d={d}")
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    palette = 8 * d * r**4
    return palette * math.comb(palette, d) * k**d


def universal_lower_bound(graph: Graph, k: int) -> PowerBound:
    """Every universal target for a graph needs at least k^density vertices."""
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    return PowerBound(k, densest_subgraph(graph).value)


def planar_bounds(k: int) -> BoundReport:
    """Bounds for the planar class: density 3 below, acyclic palette 5 above."""
    if k < 2:
        raise ValueError(f"edge palette must satisfy k >= 2, got {k}")
    return BoundReport(
        lower=k**3,
        upper=universal_upper_bound(5, 3, k),
        parameters={"r": 5, "d": 3, "k": k},
        notes={
            "lower": "k^3 from the planar density of 3",
            "upper": "acyclic palette 5 combined with a 3-orientation",
        },
    )


def genus_density_bounds(g: int) -> tuple[float, float, int]:
    """Density bounds sqrt(3g) - 1/2 and sqrt(3g) + 3 for genus-g graphs.

    Also returns t = ceil(sqrt(12g)), the clique size witnessing the lower
    bound. Genus 0 is rejected; use planar_bounds for the planar class.
    """
    if g < 1:
        raise ValueError(f"genus must be at least 1 (planar handled separately), got {g}")
    t = ceil_sqrt(12 * g)
    try:
        root = math.sqrt(3 * g)
    except OverflowError:
        raise ValueError("genus is too large for a floating-point density bound") from None
    return root - 0.5, root + 3.0, t


def clique_genus(t: int) -> int:
    """Genus of the smallest oriented surface embedding a t-clique."""
    if t < 3:
        raise ValueError(f"clique genus defined for t >= 3, got {t}")
    return ((t - 3) * (t - 4) + 11) // 12


def orientation_bound_from_target(p: int, k: int) -> int:
    """In-degree bound ceil(log_k p) forced on any class with a k-universal
    target on p vertices."""
    return ceil_log(p, k)
