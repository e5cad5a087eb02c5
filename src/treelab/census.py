"""Degree-type census and mechanical verification checks.

For trees with maximum degree 3, every internal vertex can be typed by the
degrees of its neighbors, and the 5-vertex window counts P (paths) and Y
(forks) become integer linear forms in those type counts.  This module
computes the census, checks the linear forms and the identities relating
them against the exact counting engine, and verifies the global window
bounds the toolkit is built around.  Every comparison is exact integer or
rational arithmetic; no check involves floating point.

A vertex of degree 3 has type (x, y, z), sorted descending, when its three
neighbors have degrees x+1, y+1, z+1; degree-2 vertices get pairs the same
way.  Census counts are exposed as n_xyz / n_xy maps plus the degree
tallies n1, n2, n3.

Two of the identity checks (the leaf-count identity and the P-Y collapse)
presuppose a tree of diameter at least 3; the three smaller qualifying
trees (the single edge, the 3-path, the 3-star) genuinely violate them,
and the checks report that honestly.  The suite runner skips exactly those
three trees for exactly those two checks; the boundary itself is covered
by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import catalog_count, enumerate_trees, enumerate_trees_bounded_degree
from .counting import (
    count_connected_subsets,
    count_paths_fast,
    count_stars_fast,
    count_y_fast,
    count_y_split,
)
from .generators import make_millipede, make_path, make_star
from .trees import Tree, adjacency, canonical_code, degrees, make_tree, max_degree


@dataclass(frozen=True)
class DegreeTypeCensus:
    """Neighbor-degree type counts of a tree with maximum degree 3.

    n_xyz maps sorted-descending triples over {0,1,2} to counts of degree-3
    vertices of that type, n_xy likewise for degree-2 vertices; n1, n2, n3
    count vertices by degree.  Zero-count types are omitted from the maps.
    """

    n_xyz: dict
    n_xy: dict
    n1: int
    n2: int
    n3: int

    def triple(self, x: int, y: int, z: int) -> int:
        return self.n_xyz.get(tuple(sorted((x, y, z), reverse=True)), 0)

    def pair(self, x: int, y: int) -> int:
        return self.n_xy.get(tuple(sorted((x, y), reverse=True)), 0)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact check: lhs compared against rhs.

    slack is always rhs - lhs; holds means the check's relation (equality
    or lhs <= rhs) is satisfied.  Compound checks carry their constituent
    reports in parts; equality is set only by checks with an equality
    attainment clause.
    """

    check: str
    inputs: str
    lhs: object
    rhs: object
    holds: bool
    slack: object
    equality: bool | None = None
    parts: tuple = ()
    note: str = ""


def _describe(t: Tree) -> str:
    code = canonical_code(t).decode("ascii")
    return f"n={t.n} code={code}"


def _equality_report(check: str, inputs: str, lhs, rhs, note: str = "") -> VerificationReport:
    return VerificationReport(
        check=check, inputs=inputs, lhs=lhs, rhs=rhs,
        holds=lhs == rhs, slack=rhs - lhs, note=note,
    )


def _bound_report(check: str, inputs: str, lhs, rhs, note: str = "") -> VerificationReport:
    return VerificationReport(
        check=check, inputs=inputs, lhs=lhs, rhs=rhs,
        holds=lhs <= rhs, slack=rhs - lhs, note=note,
    )


def degree_type_census(t: Tree) -> DegreeTypeCensus:
    """Census of neighbor-degree types; needs max degree <= 3 and n >= 2."""
    if t.n < 2:
        raise ValueError("census needs at least 2 vertices")
    deg = degrees(t)
    if max(deg) > 3:
        raise ValueError(f"census undefined for max degree {max(deg)} > 3")
    adj = adjacency(t)
    n_xyz: dict = {}
    n_xy: dict = {}
    n1 = n2 = n3 = 0
    for v in range(t.n):
        if deg[v] == 1:
            n1 += 1
        elif deg[v] == 2:
            n2 += 1
            key = tuple(sorted((deg[u] - 1 for u in adj[v]), reverse=True))
            n_xy[key] = n_xy.get(key, 0) + 1
        elif deg[v] == 3:
            n3 += 1
            key = tuple(sorted((deg[u] - 1 for u in adj[v]), reverse=True))
            n_xyz[key] = n_xyz.get(key, 0) + 1
    return DegreeTypeCensus(n_xyz=n_xyz, n_xy=n_xy, n1=n1, n2=n2, n3=n3)


def check_leaf_balance(t: Tree) -> VerificationReport:
    """Leaves exceed degree-3 vertices by exactly 2 in any qualifying tree."""
    c = degree_type_census(t)
    return _equality_report("leaf_balance", _describe(t), c.n1 - c.n3, 2)


def _census_P(c: DegreeTypeCensus) -> int:
    return (
        12 * c.triple(2, 2, 2) + 8 * c.triple(2, 2, 1) + 4 * c.triple(2, 2, 0)
        + 5 * c.triple(2, 1, 1) + 2 * c.triple(2, 1, 0) + 3 * c.triple(1, 1, 1)
        + c.triple(1, 1, 0)
        + 4 * c.pair(2, 2) + 2 * c.pair(2, 1) + c.pair(1, 1)
    )


def _census_Y(c: DegreeTypeCensus) -> int:
    return (
        6 * c.triple(2, 2, 2) + 5 * c.triple(2, 2, 1) + 4 * c.triple(2, 2, 0)
        + 4 * c.triple(2, 1, 1) + 3 * c.triple(2, 1, 0) + 2 * c.triple(2, 0, 0)
        + 3 * c.triple(1, 1, 1) + 2 * c.triple(1, 1, 0) + c.triple(1, 0, 0)
    )


def check_P_formula_census(t: Tree) -> VerificationReport:
    """The path-window linear form in type counts equals the engine count."""
    c = degree_type_census(t)
    return _equality_report("P_formula_census", _describe(t), _census_P(c), count_paths_fast(t, 5))


def check_Y_formula_census(t: Tree) -> VerificationReport:
    """The fork-window linear form in type counts equals the engine count."""
    c = degree_type_census(t)
    return _equality_report("Y_formula_census", _describe(t), _census_Y(c), count_y_fast(t))


# The leaf-count identity and the P-Y collapse assume diameter >= 3; these
# three qualifying trees violate them structurally (their internal vertices
# have all-leaf neighborhoods, whose types the identities' derivation drops).
PY_IDENTITY_EXCEPTIONS: frozenset[bytes] = frozenset(
    canonical_code(t) for t in (
        make_tree(2, [(0, 1)]),
        make_path(3),
        make_star(4),
    )
)


def check_PY_identity(t: Tree) -> VerificationReport:
    """Three exact identities tying P, Y and the census together.

    Parts: the P - Y + 4 collapse into nonnegative type counts, the
    leaf-count identity, and the double count of edges leaving degree-2
    vertices toward internal vertices.  See the module notes for the three
    small trees on which the first two genuinely fail.
    """
    c = degree_type_census(t)
    inputs = _describe(t)
    P = count_paths_fast(t, 5)
    Y = count_y_fast(t)
    collapse_rhs = (
        4 * c.triple(2, 2, 2) + 2 * c.triple(2, 2, 1) + c.triple(2, 1, 1)
        + c.triple(1, 1, 1) + c.triple(1, 1, 0) + 2 * c.triple(1, 0, 0)
        + 2 * c.pair(2, 2) + c.pair(2, 1) + c.pair(1, 1)
        + c.pair(2, 0) + 2 * c.pair(1, 0)
    )
    collapse = _equality_report("PY_collapse", inputs, P - Y + 4, collapse_rhs)
    leaf_lhs = (
        -c.triple(2, 2, 2) - c.triple(2, 2, 1) - c.triple(2, 1, 1)
        + c.triple(2, 0, 0) - c.triple(1, 1, 1) + c.triple(1, 0, 0)
        + c.pair(2, 0) + c.pair(1, 0)
    )
    leaf_identity = _equality_report("leaf_count_identity", inputs, leaf_lhs, 2)
    edge_lhs = (
        c.triple(2, 2, 1) + 2 * c.triple(2, 1, 1) + c.triple(2, 1, 0)
        + 3 * c.triple(1, 1, 1) + 2 * c.triple(1, 1, 0) + c.triple(1, 0, 0)
    )
    edge_rhs = 2 * c.pair(2, 2) + c.pair(2, 1) + c.pair(2, 0)
    edge_double = _equality_report("degree2_edge_double_count", inputs, edge_lhs, edge_rhs)
    parts = (collapse, leaf_identity, edge_double)
    holds = all(p.holds for p in parts)
    return VerificationReport(
        check="PY_identity", inputs=inputs,
        lhs=collapse.lhs, rhs=collapse.rhs, holds=holds, slack=collapse.slack,
        parts=parts,
    )


def check_lemma_smalldeg(t: Tree, k: int) -> VerificationReport:
    """Window total bounded through the path count when degrees are small.

    Requires max degree <= k-2; then
    Z_k <= k*N_k*(k-2)^(k-1)*P_k + k*N_k*(k-2)^(2k-2).
    """
    D = max_degree(t)
    if D > k - 2:
        raise ValueError(f"needs max degree <= k-2 = {k - 2}, got {D}")
    N = catalog_count(k)
    Z = count_connected_subsets(t, k)
    P = count_paths_fast(t, k)
    rhs = k * N * (k - 2) ** (k - 1) * P + k * N * (k - 2) ** (2 * k - 2)
    return _bound_report("smalldeg_window_bound", f"{_describe(t)} k={k}", Z, rhs)


def check_lemma_general(t: Tree, k: int) -> VerificationReport:
    """Universal window bound through paths and stars.

    Z_k <= N_k * k^(2k) * (P_k + 2*S_k + 1) for every tree; when windows
    exist, the equivalent density form
    p_path + 2*p_star + 1/Z >= 1/(N_k * k^(2k)) is reported alongside.
    """
    N = catalog_count(k)
    Z = count_connected_subsets(t, k)
    P = count_paths_fast(t, k)
    S = count_stars_fast(t, k)
    inputs = f"{_describe(t)} k={k}"
    cap = N * k ** (2 * k)
    main = _bound_report("general_window_bound", inputs, Z, cap * (P + 2 * S + 1))
    parts = (main,)
    if Z > 0:
        shadow = _bound_report(
            "general_window_bound_density", inputs,
            Fraction(1, cap), Fraction(P, Z) + 2 * Fraction(S, Z) + Fraction(1, Z),
            note="density form of the same bound",
        )
        parts = (main, shadow)
    return VerificationReport(
        check="general_window_bound", inputs=inputs,
        lhs=main.lhs, rhs=main.rhs, holds=all(p.holds for p in parts),
        slack=main.slack, parts=parts,
    )


def is_one_millipede(t: Tree) -> bool:
    """Whether t is a caterpillar with every internal vertex of degree 3.

    Recognized by canonical-code comparison with the explicit construction.
    The spine must have at least 2 vertices (so |t| >= 6 and even); the
    length-1 case degenerates to the 3-star, which the equality analysis
    this predicate serves genuinely excludes.
    """
    if t.n < 6 or t.n % 2:
        return False
    return canonical_code(t) == canonical_code(make_millipede(1, (t.n - 2) // 2))


def check_Y_P4(t: Tree) -> VerificationReport:
    """Fork windows never exceed path windows by more than 4 when degrees <= 3.

    The equality flag records Y == P + 4 and must coincide with
    is_one_millipede on every qualifying tree.
    """
    D = max_degree(t)
    if D > 3:
        raise ValueError(f"needs max degree <= 3, got {D}")
    P = count_paths_fast(t, 5)
    Y = count_y_fast(t)
    return VerificationReport(
        check="Y_P4", inputs=_describe(t),
        lhs=Y, rhs=P + 4, holds=Y <= P + 4, slack=P + 4 - Y,
        equality=(Y == P + 4),
    )


def check_Y_36S(t: Tree) -> VerificationReport:
    """Fork windows bounded by stars and paths: Y <= 36S + P + 4, any tree.

    Parts: the split halves.  Fork windows charged to edges with an
    endpoint of degree >= 4 are covered by 36S; the rest obey the
    small-degree budget P + 4 on their own.
    """
    P = count_paths_fast(t, 5)
    S = count_stars_fast(t, 5)
    Y = count_y_fast(t)
    y_small, y_large = count_y_split(t)
    inputs = _describe(t)
    parts = (
        _bound_report("Y_large_36S", inputs, y_large, 36 * S),
        _bound_report("Y_small_P4", inputs, y_small, P + 4),
        _equality_report("Y_split_sum", inputs, y_small + y_large, Y),
    )
    return VerificationReport(
        check="Y_36S", inputs=inputs,
        lhs=Y, rhs=36 * S + P + 4, holds=Y <= 36 * S + P + 4 and all(p.holds for p in parts),
        slack=36 * S + P + 4 - Y, parts=parts,
    )


def check_millipede_upper(k: int, length: int) -> VerificationReport:
    """Finite bound chain showing wide millipedes have tiny path+star mass.

    For even k >= 6 and T the (k-4)-millipede of the given length, asserts
    S_k(T) = 0, P_k(T) <= length*(k-3)^2, and
    Z_k(T) >= 2*(length-2)*C(k-3, (k-2)/2); the limiting comparison of
    (P_k+S_k)/Z_k against (k-3)^2/(3/2)^(k/2) is reported, not asserted,
    since finite lengths only approach it.
    """
    if k < 6 or k % 2:
        raise ValueError(f"needs even k >= 6, got {k}")
    if length < 3:
        raise ValueError(f"needs length >= 3, got {length}")
    t = make_millipede(k - 4, length)
    inputs = f"millipede(d={k - 4}, length={length}) k={k}"
    S = count_stars_fast(t, k)
    P = count_paths_fast(t, k)
    Z = count_connected_subsets(t, k)
    parts = (
        _equality_report("millipede_no_stars", inputs, S, 0),
        _bound_report("millipede_path_upper", inputs, P, length * (k - 3) ** 2),
        _bound_report(
            "millipede_window_lower", inputs,
            2 * (length - 2) * math.comb(k - 3, (k - 2) // 2), Z,
        ),
    )
    ratio = Fraction(P + S, Z)
    benchmark = Fraction((k - 3) ** 2 * 2 ** (k // 2), 3 ** (k // 2))
    comparison = VerificationReport(
        check="millipede_ratio_reported", inputs=inputs,
        lhs=ratio, rhs=benchmark, holds=True, slack=benchmark - ratio,
        note="limiting comparison, reported only",
    )
    return VerificationReport(
        check="millipede_upper_chain", inputs=inputs,
        lhs=ratio, rhs=benchmark, holds=all(p.holds for p in parts),
        slack=benchmark - ratio, parts=parts + (comparison,),
    )


def _census_checks_for(t: Tree) -> list[VerificationReport]:
    reports = [
        check_leaf_balance(t),
        check_P_formula_census(t),
        check_Y_formula_census(t),
    ]
    if canonical_code(t) not in PY_IDENTITY_EXCEPTIONS:
        reports.append(check_PY_identity(t))
    else:
        # Only the universally valid part applies to the three small trees.
        reports.append(check_PY_identity(t).parts[2])
    return reports


def _lemma_checks_for(t: Tree, ks: tuple[int, ...]) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    D = max_degree(t)
    for k in ks:
        if t.n >= 2 and D <= k - 2:
            reports.append(check_lemma_smalldeg(t, k))
        reports.append(check_lemma_general(t, k))
    if 2 <= t.n and D <= 3:
        reports.append(check_Y_P4(t))
    reports.append(check_Y_36S(t))
    return reports


def run_suite(
    suite: str = "all",
    max_n: int = 11,
    ks: tuple[int, ...] = (5, 6),
) -> list[VerificationReport]:
    """Run the verification checks over exhaustive small-tree corpora.

    suite selects census identities (max-degree-3 trees up to max_n),
    window-bound checks (all trees up to max_n, plus the millipede chain),
    or both.  Checks run serially in a fixed order (census, then lemmas,
    then the millipede chain, each by catalog order), so the reports are
    the same from run to run.
    """
    if suite not in ("census", "lemmas", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    reports: list[VerificationReport] = []
    if suite in ("census", "all"):
        for n in range(2, max_n + 1):
            for t in enumerate_trees_bounded_degree(n, 3, max_n=max(max_n, 16)):
                reports.extend(_census_checks_for(t))
    if suite in ("lemmas", "all"):
        for n in range(2, max_n + 1):
            for t in enumerate_trees(n, max_k=max(max_n, 12)).entries:
                reports.extend(_lemma_checks_for(t, ks))
        for k in (6, 8):
            for length in (10, 20):
                reports.append(check_millipede_upper(k, length))
    return reports
