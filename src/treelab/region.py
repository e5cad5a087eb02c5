"""The 5-window profile plane.

For k = 5 there are exactly three window shapes (path, star, fork), so a
5-profile projects faithfully onto its first two coordinates
(p_path, p_star) and lives in the plane.  This module computes the limit
points traced by millipede families, the polygon they span together with
the all-star corner (an inner certificate for the attainable region), the
boundary line y = (1-2x)/37 with its margin function, figure data export,
an exhaustive scan hunting counterexamples to a conjectured sharper fork
bound, and gluing-based inducibility estimates.

Everything is exact rational arithmetic; decimal strings appear only in
emitted CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import enumerate_trees
from .census import VerificationReport, _describe
from .config import (
    DEFAULT_DECIMAL_PRECISION,
    DEFAULT_FIGURE_D_MAX,
    DEFAULT_FIGURE_SAMPLES,
    DEFAULT_SCAN_MAX_N,
    DEFAULT_SCHEDULE,
    DEFAULT_VERTEX_CAP,
)
from .counting import five_window_counts, fraction_to_decimal
from .generators import glue_power_counts, glue_power_size
from .trees import Tree, canonical_code, max_degree

@dataclass(frozen=True)
class PlanePoint:
    """A (path-density, star-density) projection point, exact rationals."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0 or self.x + self.y > 1:
            raise ValueError(f"({self.x}, {self.y}) is not a density projection")


def m_point(d: int) -> PlanePoint:
    """Limit projection of the d-millipede family as length grows.

    Per spine vertex a long d-millipede carries (d+1)^2 path windows,
    C(d+2, 4) star windows and (d+1)^2 d fork windows, so the densities
    converge to the ratios below.  d=0 gives (1, 0) (paths) and d=1 gives
    (1/2, 0), the point where the boundary line is tight.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    paths = (d + 1) ** 2
    stars = math.comb(d + 2, 4)
    total = stars + (d + 1) ** 3
    return PlanePoint(x=Fraction(paths, total), y=Fraction(stars, total))


def line_margin(p: PlanePoint) -> Fraction:
    """Signed margin of a point above the boundary line y = (1-2x)/37."""
    return p.y - Fraction(1 - 2 * p.x, 37)


def _five_window_counts(t: Tree) -> tuple[int, int, int]:
    """(P, S, Z) for the 5-vertex windows of t, with Z = P + S + Y.

    There are exactly three 5-vertex shapes (path, star, fork), so the
    local counts give the whole window total.
    """
    P, S, Y, _, _ = five_window_counts(t)
    Z = P + S + Y
    if Z == 0:
        raise ValueError(f"tree on {t.n} vertices has no 5-vertex windows")
    return P, S, Z


def projection_point(t: Tree) -> PlanePoint:
    """Finite (p_path, p_star) projection of a tree with >= 5 vertices."""
    P, S, Z = _five_window_counts(t)
    return PlanePoint(x=Fraction(P, Z), y=Fraction(S, Z))


def check_region_shadow(t: Tree) -> VerificationReport:
    """Finite form of the boundary-line bound, exact on every tree.

    Dividing Y <= 36S + P + 4 by Z gives
    p_star >= (1 - 2 p_path - 4/Z)/37; the margin must be >= 0.
    """
    P, S, Z = _five_window_counts(t)
    lhs = Fraction(1 - 2 * Fraction(P, Z) - Fraction(4, Z), 37)
    rhs = Fraction(S, Z)
    return VerificationReport(
        check="region_shadow", inputs=_describe(t),
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, slack=rhs - lhs,
    )


def _cross(o: PlanePoint, a: PlanePoint, b: PlanePoint) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def convex_hull(points: list[PlanePoint]) -> tuple[PlanePoint, ...]:
    """Monotone-chain hull in exact arithmetic, collinear points dropped.

    Returns the hull counterclockwise starting from the lexicographically
    smallest vertex; fewer than three distinct points come back as-is.
    """
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) <= 2:
        return tuple(PlanePoint(x, y) for x, y in pts)
    as_points = [PlanePoint(x, y) for x, y in pts]
    lower: list[PlanePoint] = []
    for p in as_points:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[PlanePoint] = []
    for p in reversed(as_points):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def inner_region(d_max: int) -> tuple[PlanePoint, ...]:
    """Polygon certifying attainable projections: hull of the millipede
    limit points together with the all-star corner (0, 1).

    Every vertex of this hull is a limit of finite tree projections, and
    the attainable region is convex, so the whole polygon is attainable.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    points = [PlanePoint(Fraction(0), Fraction(1))]
    points.extend(m_point(d) for d in range(d_max + 1))
    return convex_hull(points)


def emit_figure_data(
    d_max: int = DEFAULT_FIGURE_D_MAX,
    samples: int = DEFAULT_FIGURE_SAMPLES,
    precision: int = DEFAULT_DECIMAL_PRECISION,
) -> str:
    """The plane picture as CSV text: boundary line, inner polygon, limit points.

    Three labeled series: "red" samples y = (1-2x)/37 on x in [0, 1/2],
    "blue" lists the inner_region hull vertices in boundary order, "m" the
    limit points for d = 0..d_max.  Exact rationals are rendered with the
    given number of significant digits.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lines = ["series,label,x,y,x_exact,y_exact\n"]
    for i in range(samples + 1):
        x = Fraction(i, 2 * samples)
        lines.append(figure_row("red", str(i), PlanePoint(x, Fraction(1 - 2 * x, 37)), precision))
    for i, p in enumerate(inner_region(d_max)):
        lines.append(figure_row("blue", str(i), p, precision))
    for d in range(d_max + 1):
        lines.append(figure_row("m", str(d), m_point(d), precision))
    return "".join(lines)


def figure_row(series: str, label: str, p: PlanePoint, precision: int) -> str:
    """One line of the figure CSV: series, label, x and y with the given
    number of significant digits, then x and y exact."""
    return (f"{series},{label},{fraction_to_decimal(p.x, precision)},"
            f"{fraction_to_decimal(p.y, precision)},{p.x.numerator}/{p.x.denominator},"
            f"{p.y.numerator}/{p.y.denominator}\n")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of the sharper-fork-bound scan: maximize Y - 9S - P.

    A large positive maximum would witness against bounding Y by
    9S + P + constant; the scan only ever reports, it asserts nothing.
    """

    max_value: int
    witness: Tree
    witness_code: str
    examined: int


def conjecture_scan(max_n: int = DEFAULT_SCAN_MAX_N) -> ScanReport:
    """Hunt for trees with large Y - 9S - P.

    Exhaustive over all trees with 2 to max_n vertices.  Ties prefer the
    lexicographically smallest canonical code, so the report does not
    depend on evaluation order.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    best: tuple[int, bytes, Tree] | None = None
    examined = 0
    for n in range(2, max_n + 1):
        for t in enumerate_trees(n).entries:
            examined += 1
            P, S, Y, _, _ = five_window_counts(t)
            value = Y - 9 * S - P
            code = canonical_code(t)
            if best is None or value > best[0] or (value == best[0] and code < best[1]):
                best = (value, code, t)
    assert best is not None
    return ScanReport(
        max_value=best[0], witness=best[2],
        witness_code=best[1].decode("ascii"), examined=examined,
    )


@dataclass(frozen=True)
class InducibilityReport:
    """Gluing-based evidence about how dense a shape can stay.

    For each power in the schedule: the observed density of the pattern in
    its own glue power, and a certified floor on the limiting density
    (observed mass per block over block mass plus worst-case junction
    junk).  observed densities are not themselves lower bounds on the
    limit (the 1-fold power trivially has density 1); certified values
    are.
    """

    k: int
    schedule: tuple[int, ...]
    sizes: tuple[int, ...]
    observed: tuple[Fraction, ...]
    certified: tuple[Fraction, ...]

    @property
    def best_certified(self) -> Fraction:
        return max(self.certified)

    @property
    def final_observed(self) -> Fraction:
        return self.observed[-1]


def inducibility_lower_bound(
    t: Tree,
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> InducibilityReport:
    """Estimate how dense t can remain in arbitrarily large trees.

    Glue powers of t keep a positive density of t-windows forever; for
    each power R in the schedule the report carries the observed density
    c(t, R)/Z_k(R) and the certified floor
    c(t, R) / (Z_k(R) + 2*k*N_k*D^(k-2)), valid for the limit because
    chaining copies of R adds at least c(t, R) pattern windows per block
    and at most that junk per junction.  The counts come from
    glue_power_counts, which builds no glue power, so the cost does not
    grow with the power.  The vertex cap is a budget only: schedule
    entries whose glue power would have more vertices are skipped, and at
    least the first must fit.
    """
    if t.n < 2:
        raise ValueError("pattern must have at least 2 vertices")
    k = t.n
    if not schedule or schedule[0] < 1 or any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing positive powers, got {list(schedule)}")
    catalog = enumerate_trees(k)
    N = catalog.count
    pattern = catalog.index_of[canonical_code(t)] - 1
    D = max(max_degree(t), 2)
    junk_cap = 2 * k * N * D ** (k - 2)
    sizes: list[int] = []
    observed: list[Fraction] = []
    certified: list[Fraction] = []
    powers: list[int] = []
    for power in schedule:
        size = glue_power_size(t.n, k, power)
        if size > vertex_cap:
            continue
        record = glue_power_counts(t, k, power)
        copies = record.per_type[pattern]
        z = record.total
        powers.append(power)
        sizes.append(size)
        observed.append(Fraction(copies, z))
        certified.append(Fraction(copies, z + junk_cap))
    if not powers:
        raise ValueError(
            f"no schedule entry fits the vertex cap {vertex_cap}; "
            f"power 1 alone needs {glue_power_size(t.n, k, 1)} vertices"
        )
    return InducibilityReport(
        k=k, schedule=tuple(powers), sizes=tuple(sizes),
        observed=tuple(observed), certified=tuple(certified),
    )
