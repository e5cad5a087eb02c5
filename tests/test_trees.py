from __future__ import annotations

import itertools
import json
import math
import random
import re
import signal
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import automorphism_count, edge_adjacency, reference_center, reference_code
from treelab.catalog import enumerate_trees
from treelab.generators import make_path, make_star, prufer_to_tree, random_tree
from treelab.trees import (
    InvalidTreeError,
    Tree,
    adjacency_code,
    canonical_code,
    center,
    checked_walk,
    degrees,
    dump_tree,
    is_isomorphic,
    leaves,
    load_tree,
    lowest_leaf,
    make_tree,
    max_degree,
    parse_tree_text,
    tree_from_json,
    tree_json_text,
    tree_to_json,
    validate,
)


def random_trees(max_n: int):
    """Strategy: a uniform random labeled tree on 1..max_n vertices."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, 2**32 - 1).map(lambda s: random_tree(n, s))
    )


def union_find_is_tree(n: int, edges) -> bool:
    """Independent tree test: n >= 1, n-1 edges, endpoints in range, and
    every edge joining two different components."""
    if n < 1 or len(edges) != n - 1:
        return False
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


@st.composite
def edge_lists(draw, max_n: int):
    """Strategy: (n, edges) with n in -1..max_n.  Half start from a random
    tree, the rest from n-1 random in-range pairs; up to two edits then
    move an endpoint anywhere in -2..max_n+1 (self-loops, negative and
    too-large labels), copy an edge over another (duplicates, either
    orientation), or drop or add an edge."""
    n = draw(st.integers(-1, max_n))
    label = st.integers(-2, max_n + 1)
    if n >= 1 and draw(st.booleans()):
        edges = list(random_tree(n, draw(st.integers(0, 2**32 - 1))).edges)
    else:
        inside = st.integers(0, max(n - 1, 0))
        m = max(n - 1, 0)
        edges = draw(st.lists(st.tuples(inside, inside), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("endpoint", "copy", "drop", "add")))
        if edit == "add":
            edges.append((draw(label), draw(label)))
            continue
        if not edges:
            continue
        i = draw(st.integers(0, len(edges) - 1))
        if edit == "endpoint":
            edges[i] = (draw(label), edges[i][1])
        elif edit == "copy":
            u, v = edges[draw(st.integers(0, len(edges) - 1))]
            edges[i] = (v, u) if draw(st.booleans()) else (u, v)
        else:
            del edges[i]
    return n, tuple(edges)


class TestValidation:
    @settings(max_examples=600, deadline=None)
    @given(edge_lists(8))
    def test_agrees_with_union_find(self, case):
        n, edges = case
        t = Tree(n, edges)
        problem = validate(t)
        assert (problem is None) == union_find_is_tree(n, edges)
        if problem is None:
            assert checked_walk(t).adj == edge_adjacency(t)
        else:
            assert "\n" not in problem
            with pytest.raises(InvalidTreeError, match=re.escape(problem)):
                checked_walk(t)

    def test_single_vertex(self):
        t = make_tree(1, ())
        checked_walk(t)
        assert t.n == 1 and t.edges == ()

    def test_valid_tree_passes(self):
        checked_walk(make_tree(4, ((0, 1), (1, 2), (1, 3))))

    def test_edge_count_wrong(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(3, ((0, 1),)))

    def test_out_of_range_label(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(2, ((0, 2),)))

    def test_self_loop(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(2, ((0, 0),)))

    def test_cycle_rejected(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(4, ((0, 1), (1, 2), (2, 0))))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(3, ((0, 1), (1, 0))))

    def test_disconnected_rejected(self):
        # triangle plus a separate edge: right edge count, not a tree
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(5, ((0, 1), (1, 2), (2, 0), (3, 4))))

    def test_nonpositive_order(self):
        with pytest.raises(InvalidTreeError):
            checked_walk(make_tree(0, ()))


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


class TestNotATree:
    """center, the leaf peel and the degree readers reject edge lists that
    are not trees.  An earlier peel looped forever once no leaf was left,
    so each test runs under an alarm (pytest-timeout is not a
    dependency)."""

    CYCLES = [
        Tree(4, ((0, 1), (1, 2), (2, 0))),
        Tree(5, ((0, 1), (1, 2), (2, 3), (3, 1))),
        Tree(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    ]

    @pytest.fixture(autouse=True)
    def deadline(self):
        def expire(signum, frame):
            raise TimeoutError("the leaf peel did not stop within 10 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("t", CYCLES)
    def test_center_raises(self, t):
        with pytest.raises(InvalidTreeError):
            center(t)

    @pytest.mark.parametrize("read", [degrees, max_degree, leaves, lowest_leaf])
    @pytest.mark.parametrize("t", CYCLES + [Tree(3, ((0, 5), (1, 2)))])
    def test_readers_raise(self, read, t):
        with pytest.raises(InvalidTreeError):
            read(t)

    @pytest.mark.parametrize("t", CYCLES)
    def test_peel_stops_without_leaves(self, t):
        with pytest.raises(InvalidTreeError, match="no leaf left to peel"):
            adjacency_code(edge_adjacency(t))


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
        s = Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))
        assert canonical_code(s) == canonical_code(t)
        assert is_isomorphic(s, t)

    def test_isomorphism_negative(self):
        assert not is_isomorphic(make_path(6), make_star(6))
        assert not is_isomorphic(make_path(5), make_path(6))

    def test_long_path_code_memory(self):
        # A code is 2n bytes; the codes held at once while one is built
        # belong to disjoint subtrees, so the peak stays linear in n.
        adj = edge_adjacency(make_path(20_000))
        tracemalloc.start()
        try:
            code = adjacency_code(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(code) == 40_000
        assert peak < 8_000_000


def twin(t: Tree, v: int) -> Tree:
    """Two copies of t joined by an edge between the two copies of v:
    bicentral, with that edge central, and both rootings coding alike."""
    n = t.n
    return Tree(2 * n, t.edges + tuple((a + n, b + n) for a, b in t.edges) + ((v, v + n),))


class TestReferenceCode:
    """canonical_code and center against the eccentricity oracle of
    conftest, which shares no code with the leaf peel."""

    @settings(max_examples=150, deadline=None)
    @given(random_trees(80))
    @example(make_path(1))
    @example(make_path(2))
    @example(make_star(5))
    def test_random_trees(self, t):
        assert center(t) == reference_center(t)
        assert canonical_code(t) == reference_code(t)

    def test_catalog_entries(self):
        for n in range(1, 11):
            for t in enumerate_trees(n).entries:
                copy = make_tree(t.n, t.edges)  # keeps no code, so one is built
                assert center(copy) == reference_center(copy)
                assert canonical_code(copy) == reference_code(copy)

    def test_paths_and_stars(self):
        for t in [f(n) for n in range(1, 41) for f in (make_path, make_star)]:
            assert center(t) == reference_center(t)
            assert canonical_code(t) == reference_code(t)

    @settings(max_examples=60, deadline=None)
    @given(random_trees(40), st.data())
    def test_bicentral(self, t, data):
        # A twin of any tree, and the same tree with one leaf added, which
        # keeps the center bicentral only sometimes.
        s = twin(t, data.draw(st.integers(0, t.n - 1)))
        extended = Tree(s.n + 1, s.edges + ((data.draw(st.integers(0, s.n - 1)), s.n),))
        assert len(reference_center(s)) == 2
        for u in (s, extended):
            assert center(u) == reference_center(u)
            assert canonical_code(u) == reference_code(u)


class TestAutomorphisms:
    """The brute-force automorphism count, on groups known in closed form,
    and the labelled-tree counts it ties to the catalog."""

    def test_path(self):
        assert automorphism_count(make_tree(1, ())) == 1
        assert automorphism_count(make_path(2)) == 2
        assert automorphism_count(make_path(9)) == 2

    def test_star(self):
        for n in (3, 4, 5, 8):
            assert automorphism_count(make_star(n)) == math.factorial(n - 1)

    def test_y_shape(self):
        # degree-3 center, two leaf branches, one branch of length two
        y = make_tree(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
        assert automorphism_count(y) == 2

    def test_double_star(self):
        # two degree-3 vertices joined by an edge, four leaves
        t = make_tree(6, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5)))
        assert automorphism_count(t) == 8

    def test_matches_permutation_count(self):
        # Each shape has n!/|Aut| labelled trees: count them by decoding
        # every Pruefer sequence and sorting the decodes by canonical code.
        for n in range(3, 8):
            labelled = Counter(
                canonical_code(prufer_to_tree(seq, n))
                for seq in itertools.product(range(n), repeat=n - 2)
            )
            entries = enumerate_trees(n).entries
            assert len(labelled) == len(entries)
            for t in entries:
                assert labelled[canonical_code(t)] == math.factorial(n) // automorphism_count(t)

    def test_labeled_tree_count_identity(self):
        # Sum of n!/|Aut| over shapes equals the labeled count n^(n-2).
        for n in range(3, 8):
            total = sum(
                math.factorial(n) // automorphism_count(t) for t in enumerate_trees(n).entries
            )
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

    @pytest.mark.parametrize("text", [
        '{"n": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}',
        '{"n": ' + "9" * 5_000 + ', "edges": []}',
    ])
    def test_json_beyond_decoder_limits_is_invalid(self, text):
        # Nesting past the recursion limit, and an integer past the digit limit.
        with pytest.raises(InvalidTreeError, match="^bad tree JSON: "):
            parse_tree_text(text)

    @pytest.mark.parametrize("text", ['{"n": 2, "edges": [[0, 1]]}', "0 1"])
    def test_load_skips_a_byte_order_mark(self, tmp_path, text):
        p = tmp_path / "t.txt"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_tree(p) == parse_tree_text(text)

    def test_load_garbage_after_a_byte_order_mark_is_invalid(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"\xef\xbb\xbfa b c")
        with pytest.raises(InvalidTreeError,
                           match="^compact tree form must be whitespace-separated integers$"):
            load_tree(p)

    def test_file_round_trip(self, tmp_path):
        t = random_tree(11, 5)
        p = tmp_path / "t.json"
        dump_tree(t, p)
        assert load_tree(p) == t
        assert p.read_text(encoding="utf-8") == json.dumps(tree_to_json(t)) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(random_trees(14))
    @example(make_tree(1, ()))
    def test_round_trip_property(self, t):
        assert tree_from_json(tree_to_json(t)) == t
        assert tree_json_text(t) == json.dumps(tree_to_json(t))

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


class TestCheckedWalk:
    @settings(max_examples=60, deadline=None)
    @given(random_trees(30))
    def test_each_vertex_after_its_parent(self, t):
        adj, order = checked_walk(t)
        assert adj == edge_adjacency(t)
        assert sorted(order) == list(range(t.n)) and order[0] == 0
        # Parents from an independent visited-set search from vertex 0.
        parent = {0: None}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
        position = {v: i for i, v in enumerate(order)}
        assert all(position[parent[v]] < position[v] for v in order[1:])

    def test_tree_keeps_its_walk(self, tmp_path):
        t = random_tree(40, 3)
        dump_tree(t, tmp_path / "t.json")
        loaded = load_tree(tmp_path / "t.json")
        assert checked_walk(loaded) is checked_walk(loaded)
        assert checked_walk(loaded) == checked_walk(t)
        # An in-memory tree keeps its walk after its first check, and the
        # walk is not part of the value.
        assert t._walk is checked_walk(t)
        assert loaded == t and hash(loaded) == hash(t) and repr(loaded) == repr(t)

    def test_invalid_tree_raises(self):
        with pytest.raises(InvalidTreeError, match="not connected"):
            checked_walk(make_tree(4, ((0, 1), (1, 0), (2, 3))))

    def test_load_peak_memory_stays_near_the_json(self, tmp_path):
        # The parsed JSON is freed before the edge tuple and walk are built.
        path = tmp_path / "path.json"
        dump_tree(make_path(100_000), path)
        text = path.read_text()
        tracemalloc.start()
        try:
            obj = json.loads(text)
            json_size = tracemalloc.get_traced_memory()[0]
            del obj, text
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            t = load_tree(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert t.n == 100_000
        assert peak < 1.8 * json_size


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
