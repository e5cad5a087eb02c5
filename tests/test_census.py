from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab import catalog, census, counting, trees
from treelab.catalog import enumerate_trees, enumerate_trees_bounded_degree
from treelab.census import (
    PY_IDENTITY_EXCEPTIONS,
    check_PY_identity,
    check_P_formula_census,
    check_Y_36S,
    check_Y_P4,
    check_Y_formula_census,
    check_leaf_balance,
    check_lemma_general,
    check_lemma_smalldeg,
    check_millipede_upper,
    degree_type_census,
    is_one_millipede,
    run_suite,
)
from treelab.generators import (
    make_millipede,
    make_path,
    make_star,
    random_tree,
    random_tree_bounded_degree,
)
from treelab.trees import canonical_code, make_tree


def bounded_trees(max_n: int):
    for n in range(2, max_n + 1):
        yield from enumerate_trees_bounded_degree(n, 3)


class TestCensus:
    @pytest.mark.parametrize("check", [degree_type_census, check_leaf_balance])
    @pytest.mark.parametrize("t", [
        make_tree(4, ((0, 1), (1, 2), (2, 0))), make_tree(3, ((0, 5), (1, 2))),
    ], ids=["cycle", "out-of-range"])
    def test_rejects_what_is_not_a_tree(self, check, t):
        with pytest.raises(trees.InvalidTreeError):
            check(t)

    def test_path_counts(self):
        c = degree_type_census(make_path(6))
        assert c.n1 == 2 and c.n2 == 4 and c.n3 == 0
        assert c.pair(1, 1) == 2
        assert c.pair(1, 0) == 2
        assert c.pair(0, 0) == 0

    def test_claw_counts(self):
        c = degree_type_census(make_star(4))
        assert c.n1 == 3 and c.n2 == 0 and c.n3 == 1
        assert c.triple(0, 0, 0) == 1

    def test_one_millipede_counts(self):
        c = degree_type_census(make_millipede(1, 4))
        assert c.n1 == 6 and c.n2 == 0 and c.n3 == 4
        assert c.triple(2, 0, 0) == 2
        assert c.triple(2, 2, 0) == 2

    def test_key_order_insensitive(self):
        c = degree_type_census(make_millipede(1, 4))
        assert c.triple(0, 2, 0) == c.triple(2, 0, 0)
        assert c.pair(0, 1) == c.pair(1, 0)

    def test_rejects_large_degree(self):
        with pytest.raises(ValueError):
            degree_type_census(make_star(5))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            degree_type_census(make_tree(1, ()))

    def test_totals_partition_vertices(self):
        for t in bounded_trees(10):
            c = degree_type_census(t)
            assert c.n1 + c.n2 + c.n3 == t.n
            assert sum(c.n_xyz.values()) == c.n3
            assert sum(c.n_xy.values()) == c.n2


class TestIdentities:
    def test_leaf_balance_exhaustive(self):
        for t in bounded_trees(12):
            assert check_leaf_balance(t).holds

    def test_formula_checks_exhaustive(self):
        for t in bounded_trees(11):
            assert check_P_formula_census(t).holds, canonical_code(t)
            assert check_Y_formula_census(t).holds, canonical_code(t)

    def test_py_identity_failure_set_is_exact(self):
        # the linear identities need enough structure; the failure set over
        # all max-degree-3 trees up to 11 vertices is known and frozen
        failing = {
            canonical_code(t)
            for t in bounded_trees(11)
            if not check_PY_identity(t).holds
        }
        assert failing == PY_IDENTITY_EXCEPTIONS

    def test_exception_set_contents(self):
        assert PY_IDENTITY_EXCEPTIONS == {
            canonical_code(make_path(2)),
            canonical_code(make_path(3)),
            canonical_code(make_star(4)),
        }

    def test_py_identity_parts(self):
        r = check_PY_identity(make_millipede(1, 6))
        assert r.holds
        names = [p.check for p in r.parts]
        assert len(names) == 3 and len(set(names)) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(15, 80), st.integers(0, 2**32 - 1))
    def test_identities_random_larger(self, n, seed):
        t = random_tree_bounded_degree(n, 3, random.Random(seed))
        assert check_leaf_balance(t).holds
        assert check_P_formula_census(t).holds
        assert check_Y_formula_census(t).holds
        assert check_PY_identity(t).holds


class TestMillipedePredicate:
    def test_true_cases(self):
        for length in range(2, 12):
            assert is_one_millipede(make_millipede(1, length))

    def test_false_cases(self):
        assert not is_one_millipede(make_millipede(1, 1))  # claw, too small
        assert not is_one_millipede(make_millipede(2, 4))
        assert not is_one_millipede(make_path(8))
        assert not is_one_millipede(make_star(8))
        assert not is_one_millipede(make_millipede(0, 6))

    def test_odd_order_rejected_fast(self):
        assert not is_one_millipede(make_path(7))


class TestForkBounds:
    def test_equality_exactly_on_one_millipedes(self):
        for t in bounded_trees(12):
            r = check_Y_P4(t)
            assert r.holds
            assert r.equality == is_one_millipede(t), canonical_code(t)

    def test_split_bound_exhaustive_small(self):
        for n in range(2, 11):
            from treelab.catalog import enumerate_trees

            for t in enumerate_trees(n).entries:
                r = check_Y_36S(t)
                assert r.holds
                assert len(r.parts) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 90), st.integers(0, 2**32 - 1))
    def test_split_bound_random(self, n, seed):
        assert check_Y_36S(random_tree(n, seed)).holds


class TestWindowLemmas:
    def test_smalldeg_precondition(self):
        with pytest.raises(ValueError):
            check_lemma_smalldeg(make_millipede(2, 20), 5)  # degree 4 > 5-2

    def test_smalldeg_on_qualifying_hosts(self):
        assert check_lemma_smalldeg(make_millipede(2, 20), 6).holds
        assert check_lemma_smalldeg(make_path(30), 5).holds
        assert check_lemma_smalldeg(make_millipede(1, 10), 5).holds

    def test_general_on_various_hosts(self):
        for t in (make_path(20), make_star(20), make_millipede(3, 6)):
            for k in (5, 6):
                assert check_lemma_general(t, k).holds

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 30), st.integers(0, 2**32 - 1), st.sampled_from((5, 6)))
    def test_general_random(self, n, seed, k):
        assert check_lemma_general(random_tree(n, seed), k).holds


class TestMillipedeUpper:
    def test_chain_holds(self):
        for k in (6, 8):
            for length in (10, 20):
                r = check_millipede_upper(k, length)
                assert r.holds
                names = [p.check for p in r.parts]
                assert "millipede_no_stars" in names
                assert "millipede_path_upper" in names
                assert "millipede_window_lower" in names

    def test_ratio_part_is_reported_only(self):
        r = check_millipede_upper(6, 10)
        ratio = [p for p in r.parts if p.check == "millipede_ratio_reported"]
        assert len(ratio) == 1
        assert ratio[0].note

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_millipede_upper(5, 10)  # odd window size
        with pytest.raises(ValueError):
            check_millipede_upper(4, 10)  # too small
        with pytest.raises(ValueError):
            check_millipede_upper(6, 2)  # spine too short


class TestSuite:
    def test_all_hold_small(self):
        reports = run_suite("all", max_n=9, ks=(5, 6))
        assert reports
        assert all(r.holds for r in reports)

    def test_census_suite_subset(self):
        census_only = run_suite("census", max_n=9)
        lemmas_only = run_suite("lemmas", max_n=9)
        both = run_suite("all", max_n=9)
        assert len(census_only) + len(lemmas_only) <= len(both)

    def test_cold_suite_checks_codes_and_counts_each_tree_once(
        self, cold_catalogs, count_calls, monkeypatch
    ):
        calls = count_calls(trees, "_check")
        count_calls(counting, "_rooted_tally")
        # The lemma pass calls _window_totals through census's import, the
        # millipede chain through count_connected_subsets in counting.
        count_calls(census, "_window_totals")
        count_calls(counting, "_window_totals")
        # The catalog build calls adjacency_code through its own import;
        # every other caller reaches it through trees or counting.
        count_calls(catalog, "adjacency_code")

        def no_code(adj):
            raise AssertionError("canonical code built outside the catalog build")

        monkeypatch.setattr(trees, "adjacency_code", no_code)
        monkeypatch.setattr(counting, "adjacency_code", no_code)
        # The 5-window counts, per corpus tree.
        per_tree: Counter = Counter()
        for name in ("five_window_counts", "count_paths_fast", "count_stars_fast", "count_y_fast"):
            inner = getattr(census, name)

            def counted(t, *k, inner=inner, name=name):
                if k in ((), (5,)):
                    per_tree[name, canonical_code(t)] += 1
                return inner(t, *k)

            monkeypatch.setattr(census, name, counted)
        ks = (5, 6)
        reports = run_suite("all", 12, ks)
        checks = calls["_check"]
        assert len(reports) == 5323 and all(r.holds for r in reports)
        assert calls["adjacency_code"] > 0
        millipedes = 4
        # The census corpus is a filter of the catalog, so only the catalog
        # entries (987 up to 12 vertices) and the millipedes are checked.
        entries = sum(len(enumerate_trees(n).entries) for n in range(1, 13))
        assert checks == entries + millipedes == 991
        assert calls["_rooted_tally"] == 0
        lemma_trees = [code for n in range(2, 13) for code in enumerate_trees(n).codes]
        census_trees = [
            canonical_code(t) for n in range(2, 13) for t in enumerate_trees_bounded_degree(n, 3)
        ]
        assert calls["_window_totals"] == len(lemma_trees) + millipedes

        def per_code(name):
            return {code: c for (f, code), c in per_tree.items() if f == name}

        # One pass per census tree and one per lemma tree; P_5 is counted
        # apart from degrees in the census pass only.
        assert per_code("five_window_counts") == Counter(lemma_trees + census_trees)
        assert per_code("count_paths_fast") == dict.fromkeys(census_trees, 1)
        assert per_code("count_stars_fast") == per_code("count_y_fast") == {}

    @pytest.mark.parametrize("ks", [(5, 6), (6,), (3, 8)])
    def test_shared_counts_change_no_report(self, ks):
        assert run_suite("all", 9, ks) == run_suite("census", 9, ks) + run_suite("lemmas", 9, ks)

    def test_lemma_suite_counts_P5_and_Y_itself(self, count_calls):
        # One 5-window pass per tree gives P_5, S_5, Y and its split.
        count_calls(census, "five_window_counts")
        count_calls(census, "count_y_fast")
        count_calls(census, "count_stars_fast")
        calls = count_calls(census, "count_paths_fast")
        reports = run_suite("lemmas", 9, (6,))
        lemma_trees = sum(len(enumerate_trees(n).entries) for n in range(2, 10))
        assert all(r.holds for r in reports)
        assert calls["five_window_counts"] == lemma_trees
        assert calls["count_y_fast"] == 0
        # k = 6 per tree, plus k = 6 and 8 per millipede.
        assert calls["count_paths_fast"] == calls["count_stars_fast"] == lemma_trees + 4

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    @pytest.mark.parametrize("max_n", [-5, 1])
    def test_max_n_below_two_rejected(self, max_n):
        with pytest.raises(ValueError, match=f"^max_n must be >= 2, got {max_n}$"):
            run_suite("census", max_n=max_n)
