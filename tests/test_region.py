from __future__ import annotations

import math
from fractions import Fraction

import pytest

from treelab import generators
from treelab.catalog import enumerate_trees
from treelab.counting import count_all
from treelab.generators import make_millipede, make_path, make_star, random_tree
from treelab.region import (
    PlanePoint,
    check_region_shadow,
    conjecture_scan,
    convex_hull,
    emit_figure_data,
    inducibility_lower_bound,
    inner_region,
    line_margin,
    m_point,
    projection_point,
)
from treelab.trees import InvalidTreeError, canonical_code, make_tree


def F(a, b=1):
    return Fraction(a, b)


class TestLimitPoints:
    def test_degenerate_members(self):
        assert m_point(0) == PlanePoint(F(1), F(0))
        assert m_point(1) == PlanePoint(F(1, 2), F(0))

    def test_two_millipede_point(self):
        assert m_point(2) == PlanePoint(F(9, 28), F(1, 28))

    def test_coordinates_shrink(self):
        xs = [m_point(d).x for d in range(1, 30)]
        assert xs == sorted(xs, reverse=True)
        assert all(0 < x <= F(1, 2) for x in xs)

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            m_point(-1)


class TestLineMargin:
    def test_anchor_values(self):
        assert line_margin(PlanePoint(F(1, 2), F(0))) == 0
        assert line_margin(PlanePoint(F(0), F(1))) == F(36, 37)
        assert line_margin(PlanePoint(F(1), F(0))) == F(1, 37)

    def test_millipede_points_above_line(self):
        for d in range(0, 51):
            margin = line_margin(m_point(d))
            assert margin >= 0
            assert (margin == 0) == (d == 1)


class TestProjection:
    def test_path_and_star(self):
        assert projection_point(make_path(9)) == PlanePoint(F(1), F(0))
        assert projection_point(make_star(9)) == PlanePoint(F(0), F(1))

    def test_undefined_below_five_vertices(self):
        with pytest.raises(ValueError):
            projection_point(make_path(4))

    def test_coordinates_are_densities(self):
        p = projection_point(make_millipede(2, 6))
        assert 0 <= p.x <= 1 and 0 <= p.y <= 1
        assert p.x + p.y <= 1


class TestShadow:
    def test_holds_on_families(self):
        hosts = [make_path(12), make_star(12), make_millipede(1, 8),
                 make_millipede(3, 5), random_tree(40, 2)]
        for t in hosts:
            r = check_region_shadow(t)
            assert r.holds

    @pytest.mark.parametrize("t", [
        make_tree(4, ((0, 1), (1, 2), (2, 0))), make_tree(3, ((0, 5), (1, 2))),
    ], ids=["cycle", "out-of-range"])
    def test_rejects_what_is_not_a_tree(self, t):
        with pytest.raises(InvalidTreeError):
            check_region_shadow(t)

    def test_tight_on_one_millipedes(self):
        # slack shrinks along the equality family as length grows
        slacks = [check_region_shadow(make_millipede(1, L)).slack for L in (4, 10, 25)]
        assert slacks == sorted(slacks, reverse=True)


class TestHull:
    def test_interior_point_dropped(self):
        pts = [PlanePoint(F(0), F(0)), PlanePoint(F(1), F(0)),
               PlanePoint(F(0), F(1)), PlanePoint(F(1, 4), F(1, 4))]
        hull = convex_hull(pts)
        assert len(hull) == 3
        assert hull[0] == PlanePoint(F(0), F(0))
        assert PlanePoint(F(1, 4), F(1, 4)) not in hull

    def test_collinear_dropped(self):
        pts = [PlanePoint(F(0), F(0)), PlanePoint(F(1, 4), F(1, 4)),
               PlanePoint(F(1, 2), F(1, 2))]
        hull = convex_hull(pts)
        assert set(hull) == {PlanePoint(F(0), F(0)), PlanePoint(F(1, 2), F(1, 2))}

    def test_duplicates_collapse(self):
        pts = [PlanePoint(F(1, 4), F(1, 2))] * 4
        assert convex_hull(pts) == (PlanePoint(F(1, 4), F(1, 2)),)

    def test_counterclockwise(self):
        hull = convex_hull([PlanePoint(F(0), F(0)), PlanePoint(F(1), F(0)),
                            PlanePoint(F(1, 2), F(1, 2))])
        area2 = 0
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            area2 += a.x * b.y - b.x * a.y
        assert area2 > 0


class TestInnerRegion:
    def test_smallest(self):
        hull = inner_region(1)
        assert set(hull) == {PlanePoint(F(0), F(1)), PlanePoint(F(1), F(0)),
                             PlanePoint(F(1, 2), F(0))}

    def test_contains_limit_points_on_boundary(self):
        hull = set(inner_region(6))
        for d in (2, 3, 4, 5, 6):
            assert m_point(d) in hull

    def test_grows_with_d_max(self):
        assert len(inner_region(8)) > len(inner_region(2))


class TestMillipedeLimit:
    def test_closed_forms_and_convergence(self):
        # Engine counts on finite d-millipedes equal the closed forms, and
        # their projections approach m_point(d) strictly, unless already on it.
        for d in (0, 1, 3):
            limit = m_point(d)
            distances = []
            for n in (3, 6, 12):
                record = count_all(make_millipede(d, n), 5)
                assert record.per_type == (
                    (n - 2) * (d + 1) ** 2, n * math.comb(d + 2, 4), (n - 1) * (d + 1) ** 2 * d,
                )
                x = F(record.per_type[0], record.total)
                y = F(record.per_type[1], record.total)
                distances.append(abs(x - limit.x) + abs(y - limit.y))
            assert all(b < a or a == b == 0 for a, b in zip(distances, distances[1:]))


class TestFigureData:
    def test_csv_shape(self):
        lines = emit_figure_data(3, samples=10, precision=12).strip().splitlines()
        assert lines[0] == "series,label,x,y,x_exact,y_exact"
        red = [ln for ln in lines if ln.startswith("red,")]
        m_rows = [ln for ln in lines if ln.startswith("m,")]
        assert len(red) == 11
        assert len(m_rows) == 4

    def test_red_series_follows_line(self):
        for ln in emit_figure_data(2, samples=4, precision=12).strip().splitlines():
            if not ln.startswith("red,"):
                continue
            _, _, _, _, xe, ye = ln.split(",")
            x = Fraction(xe)
            y = Fraction(ye)
            assert y == (1 - 2 * x) / 37


class TestScan:
    def test_default_finds_the_tight_constant(self):
        # Y - 9S - P first reaches 6 on 11 vertices: a center with one leaf
        # and three neighbours that each carry two leaves.
        r = conjecture_scan()
        assert (r.max_value, r.witness_code, r.examined) == (6, "((()())(()())(()())())", 435)
        assert r.witness_code == canonical_code(r.witness).decode("ascii")

    def test_ten_vertices_reach_five(self):
        r = conjecture_scan(max_n=10)
        assert (r.max_value, r.examined) == (5, 200)

    def test_small_exhaustive_value(self):
        r = conjecture_scan(max_n=8)
        assert r.max_value == 4
        assert r.witness_code == canonical_code(r.witness).decode("ascii")

    def test_larger_scan_exceeds_four(self):
        # a double fork on 9 vertices already reaches five
        r = conjecture_scan(max_n=9)
        assert r.max_value >= 5

    def test_rejects_max_n_below_two(self):
        with pytest.raises(ValueError, match="^max_n must be >= 2, got 1$"):
            conjecture_scan(max_n=1)
        assert conjecture_scan(max_n=2).examined == 1

    def test_examined_accounting(self):
        for max_n in (4, 6, 11):
            exhaustive = sum(enumerate_trees(n).count for n in range(2, max_n + 1))
            assert conjecture_scan(max_n=max_n).examined == exhaustive


class TestInducibility:
    def test_path_pattern_saturates(self):
        r = inducibility_lower_bound(make_path(5), schedule=(1, 2, 4), vertex_cap=10**4)
        assert all(x == 1 for x in r.observed)
        assert r.final_observed == 1
        assert 0 < r.best_certified < 1

    def test_certified_below_observed(self):
        r = inducibility_lower_bound(make_star(5), schedule=(1, 2, 4, 8),
                                     vertex_cap=10**4)
        for o, c in zip(r.observed, r.certified):
            assert c < o

    def test_certified_improves_along_schedule(self):
        r = inducibility_lower_bound(make_star(4), schedule=(1, 2, 4, 8, 16),
                                     vertex_cap=10**5)
        assert r.best_certified == max(r.certified)
        assert r.certified[-1] > r.certified[0]

    def test_builds_no_glue_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("glue power built")

        counted = []

        def count(t, k):
            counted.append(t.n)
            return count_all(t, k)

        t = make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)))
        expected = inducibility_lower_bound(t, schedule=(1, 4, 64))
        monkeypatch.setattr(generators, "glue_power", refuse)
        monkeypatch.setattr(generators, "_append_power", refuse)
        monkeypatch.setattr(generators, "count_all", count)
        r = inducibility_lower_bound(t, schedule=(1, 4, 64, 4096, 10**9))
        assert r.schedule == (1, 4, 64, 4096)
        assert r.sizes == (8, 53, 953, 61433)
        assert (r.observed[:3], r.certified[:3]) == (expected.observed, expected.certified)
        # One copy of the pattern with a connector path at each of its 4 leaves.
        assert max(counted) <= 8 + 4 * 7

    def test_cap_filters_schedule(self):
        r = inducibility_lower_bound(make_path(6), schedule=(1, 2, 64), vertex_cap=200)
        assert len(r.sizes) == 2

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            inducibility_lower_bound(make_path(6), schedule=(8, 16), vertex_cap=20)

    @pytest.mark.parametrize("schedule", [(), (0, 1), (1, 2, 2), (2, 1), (1, 1)])
    def test_schedule_must_strictly_increase(self, schedule):
        with pytest.raises(ValueError, match="strictly increasing positive powers"):
            inducibility_lower_bound(make_path(5), schedule=schedule)
