from __future__ import annotations

import decimal
import functools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    edge_adjacency,
    enumerate_connected_subsets,
    induced_subtree,
    naive_copy_count,
    naive_window_census,
)
from treelab import counting
from treelab.catalog import enumerate_trees
from treelab.counting import (
    _window_tally,
    _window_totals,
    count_all,
    count_connected_subsets,
    count_paths_fast,
    count_stars_fast,
    count_y_fast,
    five_window_counts,
    fraction_to_decimal,
    profile,
)
from treelab.generators import (
    convex_glue,
    glue_power,
    make_millipede,
    make_path,
    make_star,
    random_tree,
)
from treelab import trees
from treelab.trees import (
    InvalidTreeError, canonical_code, degrees, dump_tree, load_tree, make_tree, max_degree,
)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(14, 40), st.integers(0, 2**32 - 1), st.integers(5, 8))
    def test_listed_windows_random_host(self, n, seed, k):
        # hosts too large for the C(n, k) census: classify every listed window
        t = random_tree(n, seed)
        want: dict[bytes, int] = {}
        for subset in enumerate_connected_subsets(t, k):
            code = canonical_code(induced_subtree(t, subset))
            want[code] = want.get(code, 0) + 1
        got, rec = record_as_census(t, k)
        assert got == want
        assert rec.total == sum(want.values())


class TestManyWindows:
    """Hosts with far more windows than vertices; counting does not list them."""

    def test_star_host_eight_windows(self):
        cat = enumerate_trees(8)
        rec = count_all(make_star(60), 8)
        assert rec.per_type[cat.star_index] == math.comb(59, 7)
        assert rec.total == math.comb(59, 7)
        assert sum(1 for c in rec.per_type if c) == 1

    @pytest.mark.parametrize("d,k", [(2, 7), (1, 8), (3, 6)])
    def test_millipede_counts_affine_in_length(self, d, k):
        rows = [count_all(make_millipede(d, length), k).per_type for length in range(k + 1, k + 5)]
        for a, b, c in zip(rows, rows[1:], rows[2:]):
            assert [x - 2 * y + z for x, y, z in zip(a, b, c)] == [0] * len(a)
        assert any(x != y for x, y in zip(rows[0], rows[1]))

    def test_copies_above_catalog_cap(self):
        # Shapes above the default catalog cap are counted without a catalog.
        assert _window_tally(make_path(20), 14) == {canonical_code(make_path(14)): 7}


# Edge lists that are not trees: a triangle beside a lone vertex, and an
# edge to a label past the last vertex.
NOT_TREES = [make_tree(4, ((0, 1), (1, 2), (2, 0))), make_tree(3, ((0, 5), (1, 2)))]


# Hosts small enough for the C(n, k) census at every k up to 8, most of
# them repeating a few local shapes, so interned states are hit.
REPEATING_HOSTS = {
    "gluepower-path": glue_power(make_path(3), 3, 4),
    "gluepower-star": glue_power(make_star(4), 2, 4),
    "gluepower-fork": glue_power(Y_SHAPE, 2, 3),
    "millipede-1": make_millipede(1, 6),
    "millipede-2": make_millipede(2, 5),
    "convex-path-star": convex_glue(make_path(3), make_star(4), 2, 1, 2, vertex_cap=20),
    "convex-star-fork": convex_glue(make_star(3), Y_SHAPE, 2, 1, 3, vertex_cap=22),
    **{f"random-{seed}": random_tree(17, seed) for seed in (1, 2, 3)},
}


@functools.lru_cache(maxsize=None)
def census_of(name: str, k: int) -> dict[bytes, int]:
    return naive_window_census(REPEATING_HOSTS[name], k)


class TestInternedStates:
    """The DP interns at most counting._INTERN_CAP states; the counts must
    not depend on the cap, and a cap of 0 or 1 runs the plain-dict path."""

    @pytest.mark.parametrize("cap", [counting._INTERN_CAP, 0, 1])
    @pytest.mark.parametrize("name", list(REPEATING_HOSTS))
    def test_matches_naive_census(self, monkeypatch, name, cap):
        monkeypatch.setattr(counting, "_INTERN_CAP", cap)
        for k in range(2, 9):
            got, rec = record_as_census(REPEATING_HOSTS[name], k)
            want = census_of(name, k)
            assert got == want, (name, k)
            assert rec.total == sum(want.values())

    @pytest.mark.parametrize("t,k", [
        (glue_power(make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7))), 8, 64), 8),
        (convex_glue(make_path(12), make_star(9), 5, 1, 2, vertex_cap=3000), 5),
        (make_millipede(3, 300), 7),
        (random_tree(2000, 5), 6),
    ], ids=["gluepower", "convex", "millipede", "random"])
    def test_cap_does_not_change_large_hosts(self, monkeypatch, t, k):
        # Periodic hosts repeat their states hundreds of times; the plain
        # DP (cap 0) is the reference the oracle gates above pin down.
        want = count_all(t, k)
        for cap in (0, 1, 3):
            monkeypatch.setattr(counting, "_INTERN_CAP", cap)
            assert count_all(t, k) == want, cap

    def test_keys_past_the_cap_are_tallied(self, monkeypatch):
        # At k = 3 a state is the number of children, so this host has 8
        # states but 149 distinct keys of child state ids: a cap of 8
        # interns every state and memoises only the first 16 * 8 = 128 keys.
        t = random_tree(5000, 1)
        monkeypatch.setattr(counting, "_INTERN_CAP", 0)
        want = count_all(t, 3)
        monkeypatch.setattr(counting, "_INTERN_CAP", 8)
        assert count_all(t, 3) == want

    def test_memory_bounded_by_cap(self):
        # Measured peaks for count_all(random_tree(4000, seed), 8), seeds
        # 1-3: 1.5-1.8 MB with the cap, 0.5-0.6 MB at cap 0, and 6.9-7.0 MB
        # when every distinct state is interned.
        t = random_tree(4000, 1)
        want = count_all(t, 8)
        tracemalloc.start()
        try:
            assert count_all(t, 8) == want
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


def count_copies(pattern, host) -> int:
    """Windows of host shaped like pattern: pattern's entry in count_all."""
    index = enumerate_trees(pattern.n).index_of[canonical_code(pattern)]
    return count_all(host, pattern.n).per_type[index - 1]


class TestCountCopies:
    """One shape's entry of count_all, read as a copy count."""

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


class TestWindowTotals:
    """_window_totals(t, k) lists Z_0..Z_k from one pass with no shapes;
    the subset census and the shape DP are its references."""

    def test_catalog_trees_match_naive(self, small_hosts):
        for t in small_hosts:
            totals = _window_totals(t, 9)
            assert len(totals) == 10 and totals[0] == 0
            for j in range(1, 10):
                assert totals[j] == sum(naive_window_census(t, j).values()), (t, j)

    @pytest.mark.parametrize("name", list(REPEATING_HOSTS))
    def test_repeating_hosts_match_naive(self, name):
        totals = _window_totals(REPEATING_HOSTS[name], 8)
        assert totals[1] == REPEATING_HOSTS[name].n
        assert totals[2:] == [sum(census_of(name, j).values()) for j in range(2, 9)]

    @pytest.mark.parametrize("t,k", [
        (random_tree(300, 1), 8),
        (random_tree(2000, 5), 6),
        (glue_power(make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7))), 8, 64), 8),
        (convex_glue(make_path(12), make_star(9), 5, 1, 2, vertex_cap=3000), 5),
        (make_millipede(3, 40), 7),
        (make_star(30), 6),
    ], ids=["random-300", "random-2000", "gluepower", "convex", "millipede", "star"])
    def test_large_hosts_match_engine(self, t, k):
        totals = _window_totals(t, k)
        assert totals == [0] + [sum(count_all(t, j).per_type) for j in range(1, k + 1)]
        assert [count_connected_subsets(t, j) for j in range(1, k + 1)] == totals[1:]

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"^window size must be >= 1, got k={k}$"):
            _window_totals(make_path(4), k)
        with pytest.raises(ValueError, match=f"^window size must be >= 1, got k={k}$"):
            count_connected_subsets(make_path(4), k)


class TestFastCounters:
    def test_path_counts_on_path_host(self):
        for n in range(1, 15):
            for k in range(1, 15):
                expected = max(0, n - k + 1) if k <= n else 0
                assert count_paths_fast(make_path(n), k) == expected

    def test_star_counts_on_star_host(self):
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
            _, _, Y, small, large = five_window_counts(t)
            assert small + large == Y == count_y_fast(t)
            if max_degree(t) <= 3:
                assert large == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 2**32 - 1))
    def test_y_split_property(self, n, seed):
        t = random_tree(n, seed)
        _, _, Y, small, large = five_window_counts(t)
        assert small >= 0 and large >= 0
        assert small + large == Y
        assert (small, large) == edge_rule_split(t)

    @pytest.mark.parametrize("count", [
        lambda t: count_stars_fast(t, 3), count_y_fast, five_window_counts, lambda t: count_all(t, 3),
        lambda t: count_connected_subsets(t, 3), lambda t: count_all(t, 1), lambda t: profile(t, 1),
        lambda t: count_paths_fast(t, 1), lambda t: count_paths_fast(t, 5),
        lambda t: count_stars_fast(t, 1), lambda t: count_stars_fast(t, 2),
    ], ids=["stars", "y", "five-window", "engine", "totals", "engine-k1", "profile-k1", "paths-k1",
            "paths-k5", "stars-k1", "stars-k2"])
    @pytest.mark.parametrize("t", NOT_TREES, ids=["cycle", "out-of-range"])
    def test_reject_what_the_engine_rejects(self, count, t):
        with pytest.raises(InvalidTreeError):
            count(t)


def edge_rule_split(t):
    """(y_small, y_large) summed edge by edge: the forks centred at one
    endpoint of an edge and branching through the other, large when either
    endpoint has degree at least 4."""
    deg = [0] * t.n
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    small = large = 0
    for u, v in t.edges:
        du, dv = deg[u], deg[v]
        term = math.comb(du - 1, 2) * (dv - 1) + math.comb(dv - 1, 2) * (du - 1)
        if max(du, dv) >= 4:
            large += term
        else:
            small += term
    return small, large


def five_window_oracle(t):
    """(P, S, Y) from the general path and star counters and the engine."""
    fork = enumerate_trees(5).index_of[canonical_code(Y_SHAPE)] - 1
    return count_paths_fast(t, 5), count_stars_fast(t, 5), count_all(t, 5).per_type[fork]


class TestFiveWindowCounts:
    def test_catalog_trees_match_counters(self):
        for n in range(2, 13):
            for t in enumerate_trees(n).entries:
                P, S, Y, small, large = five_window_counts(t)
                assert (P, S, Y) == five_window_oracle(t)
                assert (small, large) == edge_rule_split(t)
                if max_degree(t) <= 3:
                    assert large == 0

    @pytest.mark.parametrize("n,seed", [(20000, 1), (100000, 2)])
    def test_random_hosts_match_counters(self, n, seed):
        t = random_tree(n, seed)
        P, S, Y, small, large = five_window_counts(t)
        assert (P, S, Y) == five_window_oracle(t)
        assert (small, large) == edge_rule_split(t)
        assert large > 0


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

    def test_caller_context_ignored(self):
        # Rounding and traps of the caller's context do not leak in.
        want = [fraction_to_decimal(Fraction(2, 3), 5), fraction_to_decimal(Fraction(-1, 7), 3)]
        assert want == ["0.66667", "-0.143"]
        with decimal.localcontext() as ctx:
            ctx.prec = 2
            ctx.rounding = decimal.ROUND_DOWN
            ctx.traps[decimal.Inexact] = True
            ctx.traps[decimal.Rounded] = True
            got = [fraction_to_decimal(Fraction(2, 3), 5), fraction_to_decimal(Fraction(-1, 7), 3)]
        assert got == want

    def test_significant_not_fixed(self):
        # twelve significant digits, so small values keep their precision
        s = fraction_to_decimal(Fraction(1, 43294833), 12)
        assert s.startswith("0.0000000230974")


class TestLoadedHosts:
    """A host counts with the walk its one validation built, whether it
    was read from a file or built in memory."""

    HOSTS = (random_tree(300, 11), make_millipede(3, 20), make_star(12))

    @pytest.mark.parametrize("t", HOSTS, ids=["random", "millipede", "star"])
    def test_same_results_as_in_memory(self, tmp_path, t):
        dump_tree(t, tmp_path / "host.json")
        loaded = load_tree(tmp_path / "host.json")
        assert canonical_code(loaded) == canonical_code(t)
        for k in range(1, 9):
            assert count_all(loaded, k) == count_all(t, k)
            assert count_paths_fast(loaded, k) == count_paths_fast(t, k)

    def test_counting_leaves_the_shared_walk_intact(self, tmp_path):
        dump_tree(random_tree(500, 4), tmp_path / "host.json")
        t = load_tree(tmp_path / "host.json")
        first = count_all(t, 7)
        assert count_paths_fast(t, 7) == first.per_type[enumerate_trees(7).path_index]
        assert count_all(t, 7) == first
        assert trees.checked_walk(t).adj == edge_adjacency(t)

    def test_one_validation_pass_per_host(self, tmp_path, monkeypatch):
        calls = []
        real_check = trees._check

        def counted(t):
            calls.append(t.n)
            return real_check(t)

        monkeypatch.setattr(trees, "_check", counted)
        host = random_tree(200, 9)
        dump_tree(host, tmp_path / "host.json")
        count_all(load_tree(tmp_path / "host.json"), 6)
        assert calls == [200]
        calls.clear()
        count_all(host, 6)
        assert calls == [200]

    def test_in_memory_tree_is_checked_once(self, count_calls):
        enumerate_trees(6)
        calls = count_calls(trees, "_check")
        t = random_tree(300, 5)
        degrees(t)
        canonical_code(t)
        count_all(t, 6)
        count_paths_fast(t, 6)
        count_connected_subsets(t, 6)
        five_window_counts(t)
        assert calls["_check"] == 1
