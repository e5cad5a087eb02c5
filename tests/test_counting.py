from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_copy_count, naive_window_census
from treelab.catalog import enumerate_trees
from treelab.counting import (
    count_all,
    count_connected_subsets,
    count_copies,
    count_paths_fast,
    count_stars_fast,
    count_y_fast,
    count_y_split,
    enumerate_connected_subsets,
    fraction_to_decimal,
    profile,
)
from treelab.generators import (
    make_millipede,
    make_path,
    make_star,
    random_tree,
)
from treelab.trees import canonical_code, make_tree, max_degree

Y_SHAPE = make_tree(5, ((0, 1), (0, 2), (0, 3), (3, 4)))


def record_as_census(t, k):
    """Map a CountsRecord back onto canonical codes for oracle comparison."""
    cat = enumerate_trees(k)
    rec = count_all(t, k)
    return {
        code: c
        for code, c in zip(cat.codes, rec.per_type)
        if c
    }, rec


class TestOracleEquivalence:
    def test_all_small_hosts_all_k(self, small_hosts):
        # brute force over every C(n,k) subset; independent of the engine
        for t in small_hosts:
            for k in range(1, t.n + 1):
                got, rec = record_as_census(t, k)
                want = naive_window_census(t, k)
                assert got == want, (t.n, k, t.edges)
                assert rec.total == sum(want.values())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 13), st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_random_host_random_k(self, n, seed, k):
        t = random_tree(n, seed)
        got, _ = record_as_census(t, min(k, n))
        assert got == naive_window_census(t, min(k, n))


class TestCountCopies:
    def test_pattern_is_host(self):
        for t in (make_path(6), make_star(6), Y_SHAPE):
            assert count_copies(t, t) == 1

    def test_pattern_larger_than_host(self):
        assert count_copies(make_path(7), make_path(5)) == 0

    def test_single_vertex_pattern(self):
        assert count_copies(make_tree(1, ()), make_star(9)) == 9

    def test_edge_pattern(self):
        for t in (make_path(8), make_star(8), make_millipede(2, 4)):
            assert count_copies(make_path(2), t) == t.n - 1

    def test_against_naive(self, small_hosts):
        patterns = [make_path(4), make_star(4), make_path(5), make_star(5), Y_SHAPE]
        for host in small_hosts[::7]:
            for p in patterns:
                assert count_copies(p, host) == naive_copy_count(p, host)


class TestSubsetEnumeration:
    def test_yields_sorted_unique(self):
        t = random_tree(12, 3)
        seen = set()
        for s in enumerate_connected_subsets(t, 4):
            assert s == tuple(sorted(s))
            assert s not in seen
            seen.add(s)
        assert len(seen) == count_connected_subsets(t, 4)

    def test_total_matches_naive(self, small_hosts):
        for t in small_hosts[::5]:
            for k in range(1, t.n + 1):
                want = sum(naive_window_census(t, k).values())
                assert count_connected_subsets(t, k) == want

    def test_path_host_window_count(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert count_connected_subsets(make_path(n), k) == n - k + 1


class TestFastCounters:
    def test_path_counts_on_path_host(self):
        for n in range(1, 15):
            for k in range(1, 15):
                expected = max(0, n - k + 1) if k <= n else 0
                assert count_paths_fast(make_path(n), k) == expected

    def test_star_counts_on_star_host(self):
        import math

        for n in range(2, 12):
            t = make_star(n)
            assert count_stars_fast(t, 1) == n
            assert count_stars_fast(t, 2) == n - 1
            for k in range(3, n + 1):
                assert count_stars_fast(t, k) == math.comb(n - 1, k - 1)

    def test_agree_with_engine(self, small_hosts):
        for t in small_hosts:
            for k in range(1, min(t.n, 7) + 1):
                cat = enumerate_trees(k)
                rec = count_all(t, k)
                assert count_paths_fast(t, k) == rec.per_type[cat.path_index]
                assert count_stars_fast(t, k) == rec.per_type[cat.star_index]

    def test_y_agrees_with_engine(self, small_hosts):
        y_code = canonical_code(Y_SHAPE)
        for t in small_hosts:
            if t.n < 5:
                continue
            cat = enumerate_trees(5)
            idx = cat.index_of[y_code] - 1
            assert count_y_fast(t) == count_all(t, 5).per_type[idx]

    def test_split_sums_to_total(self, small_hosts):
        for t in small_hosts[::3]:
            if t.n < 2:
                continue
            small, large = count_y_split(t)
            assert small + large == count_y_fast(t)
            if max_degree(t) <= 3:
                assert large == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 2**32 - 1))
    def test_y_split_property(self, n, seed):
        t = random_tree(n, seed)
        small, large = count_y_split(t)
        assert small >= 0 and large >= 0
        assert small + large == count_y_fast(t)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_leaf_removal_window_bound(self, n, seed, k):
        # dropping a leaf removes at most k * N_k * D^(k-1) windows
        from treelab.trees import leaves, make_tree

        t = random_tree(n, seed)
        if k > n:
            return
        v = leaves(t)[0]
        keep = [u for u in range(t.n) if u != v]
        pos = {u: i for i, u in enumerate(keep)}
        smaller = make_tree(
            n - 1, tuple((pos[a], pos[b]) for a, b in t.edges if v not in (a, b))
        )
        z_t = count_connected_subsets(t, k)
        z_s = count_connected_subsets(smaller, k)
        junk = k * enumerate_trees(k).count * max(max_degree(t), 1) ** (k - 1)
        assert z_s <= z_t <= z_s + junk

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14), st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_star_floor(self, n, seed, k):
        import math

        t = random_tree(n, seed)
        if k > n:
            return
        assert count_connected_subsets(t, k) >= math.comb(max_degree(t), k - 1)


class TestProfile:
    def test_coords_sum_to_one(self, small_hosts):
        for t in small_hosts[::4]:
            for k in range(1, t.n + 1):
                pv = profile(t, k)
                assert sum(pv.coords, Fraction(0)) == 1

    def test_path_host_is_path_coordinate(self):
        pv = profile(make_path(30), 5)
        assert pv.coords[0] == 1
        assert all(c == 0 for c in pv.coords[1:])

    def test_star_host_is_star_coordinate(self):
        pv = profile(make_star(30), 5)
        assert pv.coords[1] == 1

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            profile(make_path(4), 5)

    def test_decimals(self):
        pv = profile(make_path(9), 5)
        assert pv.decimals()[0] == "1"


class TestDecimalFormatting:
    def test_exact_values(self):
        assert fraction_to_decimal(Fraction(0), 12) == "0"
        assert fraction_to_decimal(Fraction(1), 12) == "1"
        assert fraction_to_decimal(Fraction(1, 2), 12) == "0.5"
        assert fraction_to_decimal(Fraction(1, 3), 12) == "0.333333333333"
        assert fraction_to_decimal(Fraction(1, 37), 12) == "0.0270270270270"
        assert fraction_to_decimal(Fraction(2, 3), 4) == "0.6667"

    def test_significant_not_fixed(self):
        # twelve significant digits, so small values keep their precision
        s = fraction_to_decimal(Fraction(1, 43294833), 12)
        assert s.startswith("0.0000000230974")
