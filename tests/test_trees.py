from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.generators import make_path, make_star, prufer_to_tree, random_tree
from treelab.trees import (
    InvalidTreeError,
    Tree,
    aut_size,
    canonical_code,
    center,
    degrees,
    dump_tree,
    is_isomorphic,
    leaves,
    load_tree,
    lowest_leaf,
    make_tree,
    max_degree,
    parse_tree_text,
    relabel,
    require_valid,
    tree_from_json,
    tree_to_json,
)


def random_trees(max_n: int):
    """Strategy: a uniform random labeled tree on 1..max_n vertices."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, 2**32 - 1).map(lambda s: random_tree(n, s))
    )


class TestValidation:
    def test_single_vertex(self):
        t = make_tree(1, ())
        require_valid(t)
        assert t.n == 1 and t.edges == ()

    def test_valid_tree_passes(self):
        require_valid(make_tree(4, ((0, 1), (1, 2), (1, 3))))

    def test_edge_count_wrong(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(3, ((0, 1),)))

    def test_out_of_range_label(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(2, ((0, 2),)))

    def test_self_loop(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(2, ((0, 0),)))

    def test_cycle_rejected(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(4, ((0, 1), (1, 2), (2, 0))))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(3, ((0, 1), (1, 0))))

    def test_disconnected_rejected(self):
        # triangle plus a separate edge: right edge count, not a tree
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(5, ((0, 1), (1, 2), (2, 0), (3, 4))))

    def test_nonpositive_order(self):
        with pytest.raises(InvalidTreeError):
            require_valid(make_tree(0, ()))


class TestStructure:
    def test_degrees_path(self):
        t = make_path(5)
        assert sorted(degrees(t)) == [1, 1, 2, 2, 2]
        assert max_degree(t) == 2
        assert set(leaves(t)) == {0, 4}
        assert lowest_leaf(t) == 0

    def test_degrees_star(self):
        t = make_star(6)
        assert degrees(t)[0] == 5
        assert max_degree(t) == 5
        assert len(leaves(t)) == 5

    def test_center_odd_path(self):
        assert center(make_path(5)) == (2,)

    def test_center_even_path(self):
        assert center(make_path(6)) == (2, 3)

    def test_center_star(self):
        assert center(make_star(7)) == (0,)


class TestCanonicalCode:
    def test_path_star_distinct(self):
        assert canonical_code(make_path(4)) != canonical_code(make_star(4))

    def test_small_star_is_path(self):
        assert canonical_code(make_path(3)) == canonical_code(make_star(3))

    def test_balanced_parentheses(self):
        code = canonical_code(make_path(7))
        assert code.count(b"(") == code.count(b")") == 7

    @settings(max_examples=60, deadline=None)
    @given(random_trees(12), st.integers(0, 2**32 - 1))
    def test_relabel_invariance(self, t, seed):
        perm = list(range(t.n))
        random.Random(seed).shuffle(perm)
        s = relabel(t, perm)
        assert canonical_code(s) == canonical_code(t)
        assert is_isomorphic(s, t)

    def test_isomorphism_negative(self):
        assert not is_isomorphic(make_path(6), make_star(6))
        assert not is_isomorphic(make_path(5), make_path(6))


class TestAutomorphisms:
    def test_path(self):
        assert aut_size(make_tree(1, ())) == 1
        assert aut_size(make_path(2)) == 2
        assert aut_size(make_path(9)) == 2

    def test_star(self):
        for n in (3, 4, 5, 8):
            expected = 1
            for i in range(1, n):
                expected *= i
            assert aut_size(make_star(n)) == expected

    def test_y_shape(self):
        # degree-3 center, two leaf branches, one branch of length two
        y = make_tree(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
        assert aut_size(y) == 2

    def test_double_star(self):
        # two degree-3 vertices joined by an edge, four leaves
        t = make_tree(6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
        assert aut_size(t) == 8

    def test_labeled_tree_count_identity(self):
        # Sum of n!/|Aut| over shapes equals the labeled count n^(n-2).
        from treelab.catalog import enumerate_trees

        fact = [1]
        for i in range(1, 9):
            fact.append(fact[-1] * i)
        for n in range(3, 9):
            total = sum(fact[n] // aut_size(t) for t in enumerate_trees(n).entries)
            assert total == n ** (n - 2)


class TestSerialization:
    def test_json_round_trip(self):
        t = make_tree(4, ((0, 1), (1, 2), (1, 3)))
        assert tree_from_json(tree_to_json(t)) == t

    def test_json_shape(self):
        d = tree_to_json(make_path(3))
        assert d == {"n": 3, "edges": [[0, 1], [1, 2]]}

    def test_parse_parent_list(self):
        t = parse_tree_text("0 0 1\n")
        assert t.n == 4
        assert is_isomorphic(t, make_tree(4, ((0, 1), (0, 2), (1, 3))))

    def test_parse_json_text(self):
        t = parse_tree_text('{"n": 2, "edges": [[0, 1]]}')
        assert t == make_path(2)

    def test_parse_single_vertex(self):
        assert parse_tree_text("").n == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidTreeError):
            parse_tree_text("a b c")

    def test_file_round_trip(self, tmp_path):
        t = random_tree(11, 5)
        p = tmp_path / "t.json"
        dump_tree(t, p)
        assert load_tree(p) == t

    @settings(max_examples=40, deadline=None)
    @given(random_trees(14))
    def test_round_trip_property(self, t):
        assert tree_from_json(tree_to_json(t)) == t

    @pytest.mark.parametrize("obj, message", [
        ({"n": 3, "edges": None}, "'edges' must be a list"),
        ({"n": 2, "edges": [[0, 1.5]]}, "edge 0 "),
        ({"n": 2, "edges": [[0, True]]}, "edge 0 "),
        ({"n": True, "edges": []}, "'n' must be an integer"),
        ({"n": 2.0, "edges": [[0, 1]]}, "'n' must be an integer"),
        ({"n": 2, "edges": [[0]]}, "edge 0 "),
        ({"n": 2, "edges": [[0, 1, 2]]}, "edge 0 "),
        ({"n": 2, "edges": ["01"]}, "edge 0 "),
        ({"n": 2, "edges": [None]}, "edge 0 "),
    ])
    def test_json_rejects_non_integer_input(self, obj, message):
        with pytest.raises(InvalidTreeError, match=message):
            tree_from_json(obj)

    @settings(max_examples=40, deadline=None)
    @given(random_trees(14).filter(lambda t: t.n > 1), st.data())
    def test_rejects_any_non_integer_endpoint(self, t, data):
        obj = tree_to_json(t)
        i = data.draw(st.integers(0, len(obj["edges"]) - 1))
        side = data.draw(st.integers(0, 1))
        u = obj["edges"][i][side]
        obj["edges"][i][side] = data.draw(st.sampled_from([float(u), bool(u % 2), str(u), None]))
        with pytest.raises(InvalidTreeError, match=f"edge {i} "):
            tree_from_json(obj)


class TestPruferDecode:
    def test_known_sequence(self):
        # degree of v is 1 plus its multiplicity in the sequence
        t = prufer_to_tree((3, 3, 3, 4), 6)
        assert degrees(t) == [1, 1, 1, 4, 2, 1]

    def test_decode_count_matches_labeled_count(self):
        # every length-(n-2) sequence gives a distinct labeled tree
        import itertools

        for n in (3, 4, 5):
            seen = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                t = prufer_to_tree(seq, n)
                seen.add(frozenset(frozenset(e) for e in t.edges))
            assert len(seen) == n ** (n - 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_random_tree_is_valid(self, n, seed):
        t = random_tree(n, seed)
        assert t.n == n
        assert len(t.edges) == n - 1

    def test_random_tree_deterministic(self):
        assert random_tree(20, 7) == random_tree(20, 7)
        assert random_tree(20, 7) != random_tree(20, 8)
