from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.catalog import enumerate_trees
from treelab.counting import count_all, count_connected_subsets
from treelab.generators import (
    VertexCapError,
    convex_glue,
    convex_glue_multiplicities,
    glue,
    glue_power,
    glue_power_counts,
    glue_power_size,
    glue_size,
    make_millipede,
    make_path,
    make_star,
    random_tree,
    random_tree_bounded_degree,
)
from treelab.trees import (
    InvalidTreeError,
    Tree,
    canonical_code,
    checked_walk,
    degrees,
    is_isomorphic,
    leaves,
    lowest_leaf,
    make_tree,
    max_degree,
)


class TestFamilies:
    def test_path_shape(self):
        t = make_path(6)
        checked_walk(t)
        assert sorted(degrees(t)) == [1, 1, 2, 2, 2, 2]

    def test_star_shape(self):
        t = make_star(6)
        checked_walk(t)
        assert sorted(degrees(t)) == [1, 1, 1, 1, 1, 5]

    def test_millipede_size_and_degrees(self):
        for d in range(0, 5):
            for length in (1, 2, 3, 7):
                t = make_millipede(d, length)
                checked_walk(t)
                assert t.n == length * (d + 1) + 2
                degs = degrees(t)
                spine = [v for v in range(t.n) if degs[v] > 1]
                if d == 0 and length == 1:
                    spine = [v for v in range(t.n) if degs[v] == 2]
                assert len(spine) == length
                assert all(degs[v] == d + 2 for v in spine)
                assert len(leaves(t)) == length * d + 2

    def test_zero_millipede_is_path(self):
        for length in (1, 2, 5):
            assert is_isomorphic(make_millipede(0, length), make_path(length + 2))

    def test_one_millipede_of_length_one_is_claw(self):
        assert is_isomorphic(make_millipede(1, 1), make_star(4))

    def test_family_bounds(self):
        with pytest.raises(ValueError):
            make_path(0)
        with pytest.raises(ValueError):
            make_star(0)
        assert make_star(1).n == 1
        with pytest.raises(ValueError):
            make_millipede(-1, 3)
        with pytest.raises(ValueError):
            make_millipede(2, 0)


class TestGlue:
    def test_size_formula(self):
        t, s = make_path(6), make_star(5)
        g = glue(t, s, 4, lowest_leaf(t), lowest_leaf(s))
        checked_walk(g)
        assert g.n == glue_size(t.n, s.n, 4) == 6 + 5 + 3

    def test_left_labels_preserved(self):
        t, s = make_path(5), make_star(4)
        g = glue(t, s, 3, 4, lowest_leaf(s))
        assert set(t.edges) <= set(tuple(sorted(e)) for e in g.edges) or set(
            t.edges
        ) <= set(g.edges)

    def test_glued_leaves_become_internal(self):
        t, s = make_path(5), make_star(5)
        g = glue(t, s, 5, 4, lowest_leaf(s))
        degs = degrees(g)
        assert degs[4] == 2  # chain end attaches to the old left leaf

    def test_max_degree(self):
        t, s = make_star(7), make_path(4)
        g = glue(t, s, 4, lowest_leaf(t), lowest_leaf(s))
        assert max_degree(g) == 6

    def test_requires_leaves(self):
        t, s = make_path(5), make_path(5)
        with pytest.raises(ValueError):
            glue(t, s, 4, 2, 0)  # vertex 2 is internal

    # Neither is a tree: one has an endpoint out of range, the other is a
    # triangle beside a lone vertex, which looks like a leaf by degree.
    OUT_OF_RANGE = Tree(3, ((0, 5), (1, 2)))
    TRIANGLE = Tree(4, ((0, 1), (1, 2), (2, 0)))

    @pytest.mark.parametrize(
        "t, s, leaf_t, leaf_s",
        [
            (OUT_OF_RANGE, make_path(2), 0, 0),
            (make_path(2), OUT_OF_RANGE, 0, 0),
            (TRIANGLE, make_path(2), 3, 0),
            (make_path(2), TRIANGLE, 0, 3),
        ],
        ids=["out-of-range-t", "out-of-range-s", "cycle-t", "cycle-s"],
    )
    def test_rejects_what_is_not_a_tree(self, t, s, leaf_t, leaf_s):
        with pytest.raises(InvalidTreeError):
            glue(t, s, 3, leaf_t, leaf_s)

    def test_path_glue_path_is_path(self):
        t = make_path(4)
        g = glue(t, t, 5, 0, 0)
        assert is_isomorphic(g, make_path(12))


class TestGluePower:
    def test_power_one_is_identity(self):
        t = random_tree(9, 4)
        assert glue_power(t, 5, 1) == t

    def test_size_formula(self):
        t = random_tree(7, 2)
        for k in (2, 4, 6):
            for p in (1, 2, 3, 5):
                g = glue_power(t, k, p)
                checked_walk(g)
                assert g.n == glue_power_size(t.n, k, p) == p * 7 + (p - 1) * (k - 1)

    def test_max_degree_formula(self):
        for seed in range(5):
            t = random_tree(8, seed)
            g = glue_power(t, 4, 3)
            assert max_degree(g) == max(max_degree(t), 2)

    def test_equals_iterated_glue(self):
        # the lowest-leaf self-gluing chain, label for label, past the
        # leaves of the root copy; the lone vertex is joined twice
        patterns = [random_tree(6, seed) for seed in (1, 5, 9)]
        patterns += [make_star(4), make_star(7), make_path(2), make_path(1)]
        for t in patterns:
            for k in (2, 3, 5):
                acc = t
                for p in range(2, 3 * len(leaves(t)) + 3):
                    acc = glue(acc, t, k, lowest_leaf(acc), lowest_leaf(t))
                    assert glue_power(t, k, p) == acc, (t, k, p)

    def test_path_power_is_path(self):
        g = glue_power(make_path(3), 4, 4)
        assert is_isomorphic(g, make_path(glue_power_size(3, 4, 4)))


def _relabelled(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    return make_tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


class TestGluePowerCounts:
    """glue_power_counts against count_all on the built glue power."""

    POWERS = tuple(range(1, 14)) + (40,)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_built_power_on_catalog(self, n):
        for t in enumerate_trees(n).entries:
            for p in self.POWERS:
                assert glue_power_counts(t, n, p) == count_all(glue_power(t, n, p), n), (t, p)

    def test_equals_built_power_on_relabelled_random_trees(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(2, 10)
            t = _relabelled(random_tree(n, rng.randrange(2**32)), rng)
            k = rng.randint(2, 8)
            p = rng.randint(1, 29)
            assert glue_power_counts(t, k, p) == count_all(glue_power(t, k, p), k), (t, k, p)

    @pytest.mark.parametrize("seed", [3, 8, 12])
    def test_step_near_a_million_matches_small_powers(self, seed):
        # Once the root copy is full, one more copy changes the counts by
        # an amount that depends only on the phase of the power modulo
        # L - 1, L the number of leaves.
        t = random_tree(8, seed)
        k = 6
        step = len(leaves(t)) - 1
        big = 10**6 + seed

        def delta(counts_of, p):
            a, b = counts_of(p), counts_of(p + 1)
            return [y - x for x, y in zip(a.per_type, b.per_type)]

        small = next(p for p in range(len(leaves(t)) + 1, 100) if p % step == big % step)
        built = delta(lambda p: count_all(glue_power(t, k, p), k), small)
        assert delta(lambda p: glue_power_counts(t, k, p), big) == built

    def test_equals_built_power_on_a_lone_vertex(self):
        # the lone vertex is two leaf slots: the root copy takes two
        # connectors, each later copy one more
        t = make_path(1)
        for k in range(2, 9):
            for p in self.POWERS:
                assert glue_power_counts(t, k, p) == count_all(glue_power(t, k, p), k), (k, p)

    @pytest.mark.parametrize("k, p", [(1, 2), (3, 0)])
    def test_rejects_bad_arguments(self, k, p):
        with pytest.raises(ValueError):
            glue_power_counts(make_path(4), k, p)


class TestSandwich:
    def test_single_instance(self):
        rng = random.Random(0)
        for _ in range(25):
            k = rng.choice((4, 5, 6))
            t = random_tree(rng.randrange(2, 11), rng.randrange(2**30))
            s = random_tree(rng.randrange(2, 11), rng.randrange(2**30))
            g = glue(t, s, k, lowest_leaf(t), lowest_leaf(s))
            ct = count_all(t, k).per_type
            cs = count_all(s, k).per_type
            cg = count_all(g, k).per_type
            slack_t = k * max(max_degree(t), 1) ** (k - 2)
            slack_s = k * max(max_degree(s), 1) ** (k - 2)
            for a, b, c in zip(ct, cs, cg):
                assert a + b <= c <= a + b + slack_t + slack_s

    def test_power_block(self):
        rng = random.Random(3)
        n_k = {k: enumerate_trees(k).count for k in (4, 5, 6)}
        for _ in range(15):
            k = rng.choice((4, 5, 6))
            p = rng.randrange(2, 6)
            t = random_tree(rng.randrange(2, 9), rng.randrange(2**30))
            g = glue_power(t, k, p)
            ct = count_all(t, k).per_type
            cg = count_all(g, k).per_type
            d = max(max_degree(t), 1)
            junk = 2 * k * (p - 1) * d ** (k - 2)
            for a, c in zip(ct, cg):
                assert p * a <= c <= p * a + junk
            z_t = count_connected_subsets(t, k)
            z_g = count_connected_subsets(g, k)
            assert p * z_t <= z_g <= p * z_t + n_k[k] * junk


class TestConvexGlue:
    def test_multiplicities_balanced_ratio(self):
        t, s = make_path(12), make_star(12)
        m_t, m_s = convex_glue_multiplicities(t, s, 5, 1, 2, vertex_cap=100_000)
        assert m_t >= 1 and m_s >= 1
        total = glue_size(
            glue_power_size(t.n, 5, m_t), glue_power_size(s.n, 5, m_s), 5
        )
        assert total <= 100_000

    def test_multiplicities_scale_with_cap(self):
        t, s = make_path(10), make_star(10)
        small = convex_glue_multiplicities(t, s, 5, 1, 2, vertex_cap=5_000)
        big = convex_glue_multiplicities(t, s, 5, 1, 2, vertex_cap=50_000)
        assert big[0] >= small[0] and big[1] >= small[1]
        assert big[0] > small[0] or big[1] > small[1]

    def test_alpha_beta_validation(self):
        t, s = make_path(8), make_star(8)
        with pytest.raises(ValueError):
            convex_glue_multiplicities(t, s, 5, 2, 2, vertex_cap=10**6)
        with pytest.raises(ValueError):
            convex_glue_multiplicities(t, s, 5, 0, 2, vertex_cap=10**6)

    def test_cap_too_small(self):
        t, s = make_path(30), make_star(30)
        with pytest.raises(VertexCapError):
            convex_glue(t, s, 5, 1, 2, vertex_cap=40)

    def test_result_valid(self):
        g = convex_glue(make_path(9), make_star(9), 5, 1, 3, vertex_cap=3_000)
        checked_walk(g)
        assert g.n <= 3_000

    def test_equals_glue_of_powers(self):
        # label for label, the glue of the two glue powers at their
        # lowest leaves, found here by counting degrees
        cases = [(make_path(1), make_star(5), 2), (make_path(2), random_tree(7, 3), 3),
                 (make_star(9), make_path(9), 5), (make_star(6), make_path(1), 3),
                 (make_star(5), make_star(8), 4)]
        cases += [(random_tree(9, seed), random_tree(6, seed + 1), 4) for seed in range(6)]
        for t, s, k in cases:
            m_t, m_s = convex_glue_multiplicities(t, s, k, 1, 3, vertex_cap=2_000)
            left, right = glue_power(t, k, m_t), glue_power(s, k, m_s)
            want = glue(left, right, k, lowest_leaf(left), lowest_leaf(right))
            assert convex_glue(t, s, k, 1, 3, vertex_cap=2_000) == want


class TestRandomTrees:
    def test_uniformity_over_shapes(self):
        # on 4 vertices, 12 of the 16 labeled trees are paths
        path_code = canonical_code(make_path(4))
        hits = sum(
            canonical_code(random_tree(4, seed)) == path_code
            for seed in range(2_000)
        )
        assert 0.67 <= hits / 2_000 <= 0.83

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_bounded_degree_respects_bound(self, n, seed, dmax):
        t = random_tree_bounded_degree(n, dmax, random.Random(seed))
        checked_walk(t)
        assert t.n == n
        assert max_degree(t) <= max(dmax, 1)

    def test_bounded_degree_deterministic(self):
        a = random_tree_bounded_degree(25, 3, random.Random(9))
        b = random_tree_bounded_degree(25, 3, random.Random(9))
        assert a == b

    def test_bounded_degree_infeasible(self):
        with pytest.raises(ValueError):
            random_tree_bounded_degree(4, 1, random.Random(0))

    @pytest.mark.parametrize("n, dmax", [(2, 0), (3, 1)])
    def test_bounded_degree_too_small_for_n(self, n, dmax):
        with pytest.raises(ValueError, match=f"^dmax={dmax} cannot accommodate {n} vertices$"):
            random_tree_bounded_degree(n, dmax, random.Random(0))

    def test_bounded_degree_single_vertex_needs_no_degree(self):
        t = random_tree_bounded_degree(1, 0, random.Random(0))
        assert t == make_tree(1, [])
