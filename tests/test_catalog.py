from __future__ import annotations

import pytest

from conftest import edge_adjacency, prufer_class_count
from treelab.catalog import (
    catalog_count,
    enumerate_trees,
    enumerate_trees_bounded_degree,
)
from treelab import catalog, trees
from treelab.generators import make_path, make_star
from treelab.trees import (
    adjacency_code,
    canonical_code,
    checked_walk,
    make_tree,
    max_degree,
)

# shape counts for 1..10 vertices; 9 and 10 were frozen from a full
# Prüfer-dedup sweep (9^7 and 10^8 sequences), the rest re-derived below
KNOWN_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


class TestCounts:
    def test_known_counts(self):
        for k, expected in enumerate(KNOWN_COUNTS, start=1):
            assert catalog_count(k) == expected

    def test_matches_prufer_dedup(self):
        # independent generation principle: decode every Prüfer sequence
        for n in range(1, 9):
            assert catalog_count(n) == prufer_class_count(n)

    def test_count_matches_entries(self):
        for k in range(1, 11):
            cat = enumerate_trees(k)
            assert cat.count == len(cat.entries) == len(cat.codes)


class TestOrdering:
    def test_path_first(self):
        for k in range(1, 10):
            cat = enumerate_trees(k)
            assert cat.path_index == 0
            assert canonical_code(cat.entries[0]) == canonical_code(make_path(k))

    def test_star_second_when_distinct(self):
        for k in range(4, 10):
            cat = enumerate_trees(k)
            assert cat.star_index == 1
            assert canonical_code(cat.entries[1]) == canonical_code(make_star(k))

    def test_star_aliases_path_when_small(self):
        for k in (1, 2, 3):
            cat = enumerate_trees(k)
            assert cat.star_index == cat.path_index == 0

    def test_tail_sorted_by_code(self):
        for k in (5, 6, 7, 8):
            cat = enumerate_trees(k)
            tail = cat.codes[2:]
            assert list(tail) == sorted(tail)

    def test_codes_distinct(self):
        for k in range(1, 11):
            cat = enumerate_trees(k)
            assert len(set(cat.codes)) == cat.count


class TestIndex:
    def test_one_based_round_trip(self):
        for k in (4, 5, 6, 7):
            cat = enumerate_trees(k)
            for i, t in enumerate(cat.entries, start=1):
                assert cat.index_of[canonical_code(t)] == i

    def test_entries_are_valid_and_sized(self):
        for k in range(1, 10):
            for t in enumerate_trees(k).entries:
                checked_walk(t)
                assert t.n == k

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        # no cap in the library: the command line applies --max-k
        assert enumerate_trees(13).count == 1301


class TestClosure:
    def test_closed_under_leaf_removal(self):
        # deleting any leaf of a k-entry lands on a (k-1)-entry
        for k in range(2, 9):
            smaller = set(enumerate_trees(k - 1).codes)
            for t in enumerate_trees(k).entries:
                adj = edge_adjacency(t)
                for v in range(t.n):
                    if len(adj[v]) != 1:
                        continue
                    keep = [u for u in range(t.n) if u != v]
                    pos = {u: i for i, u in enumerate(keep)}
                    edges = tuple(
                        (pos[a], pos[b])
                        for a, b in t.edges
                        if a != v and b != v
                    )
                    assert canonical_code(make_tree(k - 1, edges)) in smaller


class TestKeptWalkAndCode:
    # Every catalog entry keeps the Walk of its one checked pass and the
    # canonical code it was deduplicated by, outside its value.
    @pytest.mark.parametrize("n", range(1, 10))
    def test_entries_match_in_memory_copies(self, n):
        for t in enumerate_trees(n).entries + enumerate_trees_bounded_degree(n, 3):
            copy = make_tree(t.n, t.edges)
            assert checked_walk(t) is t._walk
            assert t._walk == trees._check(copy)[1]
            assert canonical_code(t) == adjacency_code(edge_adjacency(copy))
            assert t == copy and hash(t) == hash(copy) and repr(t) == repr(copy)
            assert copy._walk is None and copy._code is None

    def test_canonical_code_returns_the_kept_code(self, monkeypatch):
        entries = enumerate_trees(8).entries
        monkeypatch.setattr(trees, "adjacency_code", None)  # any rebuild would fail
        assert [canonical_code(t) for t in entries] == list(enumerate_trees(8).codes)

    def test_cold_build_checks_each_kept_entry_once(self, cold_catalogs, count_calls):
        # Candidates the catalog drops as duplicates are never checked, and
        # the bounded entries are the catalog's own trees, not copies.
        calls = count_calls(trees, "_check")
        plain = [t for n in range(1, 10) for t in enumerate_trees(n).entries]
        for n in range(1, 10):
            cat = enumerate_trees(n)
            for t in enumerate_trees_bounded_degree(n, 3):
                assert t is cat.entries[cat.index_of[canonical_code(t)] - 1]
        assert calls["_check"] == len(plain)


def unskipped_classes(max_n: int, dmax):
    """Code -> representative per size up to max_n, extending every parent
    at every vertex, the first candidate of a code winning: the catalog's
    build without its sibling-leaf skip."""
    layers = [{}, {canonical_code(make_tree(1, ())): make_tree(1, ())}]
    for n in range(2, max_n + 1):
        out: dict = {}
        for _, parent in sorted(layers[-1].items()):
            for v in range(n - 1):
                t = make_tree(n, parent.edges + ((v, n - 1),))
                if dmax is None or max_degree(t) <= dmax:
                    out.setdefault(canonical_code(t), t)
        layers.append(out)
    return layers


class TestSiblingLeafSkip:
    # A leaf on a leaf whose neighbour already took one is skipped: the
    # swap of the two sibling leaves maps the skipped candidate onto the
    # earlier one, so no entry changes.
    @pytest.mark.parametrize("dmax", [None, 2, 3, 4])
    def test_entries_equal_the_unskipped_build(self, dmax):
        layers = unskipped_classes(10, dmax)
        for n in range(1, 11):
            if dmax is None:
                got = enumerate_trees(n).entries
                want = [layers[n][c] for c in enumerate_trees(n).codes]
            else:
                got = enumerate_trees_bounded_degree(n, dmax)
                want = [layers[n][c] for c in sorted(layers[n])]
            assert [t.edges for t in got] == [t.edges for t in want]

    def test_cold_build_codes_fewer_candidates(self, cold_catalogs, count_calls):
        # 4,395 candidates are coded without the skip; the bounded
        # entries are a filter of the catalog and code none.
        calls = count_calls(catalog, "adjacency_code")
        for n in range(1, 13):
            enumerate_trees(n)
        assert calls["adjacency_code"] == 3504
        for n in range(1, 13):
            enumerate_trees_bounded_degree(n, 3)
        assert calls["adjacency_code"] == 3504


class TestBoundedDegree:
    def test_equals_filtered_catalog(self):
        for n in range(1, 13):
            want = sorted(
                canonical_code(t)
                for t in enumerate_trees(n).entries
                if max_degree(t) <= 3
            )
            got = [canonical_code(t) for t in enumerate_trees_bounded_degree(n, 3)]
            assert got == want

    def test_degree_bound_respected(self):
        for n in range(1, 13):
            for t in enumerate_trees_bounded_degree(n, 3):
                checked_walk(t)
                assert max_degree(t) <= 3

    def test_known_binary_counts(self):
        # max-degree-3 shape counts on 1..12 vertices
        got = [len(enumerate_trees_bounded_degree(n, 3)) for n in range(1, 13)]
        assert got[:6] == [1, 1, 1, 2, 2, 4]
        assert got == sorted(got) or got[0] == got[1]  # nondecreasing from n=2
        # cross-check against the full catalog filter happens above; here
        # freeze the tail so regressions are loud
        assert got[6:] == [6, 11, 18, 37, 66, 135]

    def test_degree_two_bound_gives_paths(self):
        for n in range(2, 10):
            entries = enumerate_trees_bounded_degree(n, 2)
            assert len(entries) == 1
            assert canonical_code(entries[0]) == canonical_code(make_path(n))

    def test_max_n_guard(self):
        with pytest.raises(ValueError):
            enumerate_trees_bounded_degree(0, 3)
        # no cap in the library: sizes past the default --max-k of 12 build
        assert len(enumerate_trees_bounded_degree(13, 2)) == 1

    def test_bound_below_a_vertex_degree_drops_it(self):
        # The one-vertex tree has maximum degree 0, so dmax = -1 drops it.
        got = [len(enumerate_trees_bounded_degree(n, d)) for d in (-1, 0, 1) for n in (1, 2, 3)]
        assert got == [0, 0, 0, 1, 0, 0, 1, 1, 0]
