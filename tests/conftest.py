"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's counting engine: the
naive census tests every vertex subset for connectivity, the subset
generator lists every window one by one, and both classify by canonical
code, so agreement with the engine is meaningful evidence.  The
automorphism count tries every vertex permutation.  The reference
canonical code finds the centers by eccentricity and codes recursively,
sharing nothing with the leaf peel that trees.adjacency_code runs.  Every
oracle reads its adjacency lists off the edge tuple with edge_adjacency,
not through the library's checked pass.  The report JSON oracle builds
the dicts a verification report stands for, so that
json.dumps(..., indent=2) of them is the text `treelab verify` must write.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from fractions import Fraction

import pytest

from treelab import catalog
from treelab.catalog import enumerate_trees
from treelab.census import VerificationReport
from treelab.counting import fraction_to_decimal
from treelab.generators import prufer_to_tree
from treelab.trees import Tree, canonical_code, make_tree


def edge_adjacency(t: Tree) -> list[list[int]]:
    """Adjacency lists read straight off the edge tuple, unchecked, with
    neighbour order following it: the oracles' own, sharing nothing with
    the checked pass in treelab.trees."""
    adj: list[list[int]] = [[] for _ in range(t.n)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def subset_is_connected(adj, subset) -> bool:
    members = set(subset)
    seen = {subset[0]}
    stack = [subset[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(members)


def induced_subtree(t: Tree, subset) -> Tree:
    pos = {v: i for i, v in enumerate(subset)}
    edges = tuple(
        (pos[a], pos[b]) for a, b in t.edges if a in pos and b in pos
    )
    return make_tree(len(subset), edges)


def naive_window_census(t: Tree, k: int) -> dict[bytes, int]:
    """Count connected k-subsets by brute force over all C(n,k) subsets."""
    adj = edge_adjacency(t)
    out: dict[bytes, int] = {}
    for subset in itertools.combinations(range(t.n), k):
        if subset_is_connected(adj, subset):
            code = canonical_code(induced_subtree(t, subset))
            out[code] = out.get(code, 0) + 1
    return out


def enumerate_connected_subsets(t: Tree, k: int):
    """Yield every window of k vertices as a sorted vertex tuple, each once.

    Windows grow from an anchor vertex using only larger labels, so each
    is produced from its smallest vertex exactly once; the pool holds the
    frontier as (vertex, position of its attachment in the window).
    """
    if k == 1:
        for v in range(t.n):
            yield (v,)
        return
    adj = edge_adjacency(t)

    def grow(anchor, sub, pool):
        last = len(sub) + 1 == k
        while pool:
            w, pos = pool.pop()
            if last:
                yield tuple(sorted(sub + (w,)))
                continue
            parent_vertex = sub[pos]
            fresh = [(u, len(sub)) for u in adj[w] if u > anchor and u != parent_vertex]
            yield from grow(anchor, sub + (w,), pool + fresh)

    for anchor in range(t.n):
        ext = [(u, 0) for u in adj[anchor] if u > anchor]
        if ext:
            yield from grow(anchor, (anchor,), ext)


def automorphism_count(t: Tree) -> int:
    """Order of the automorphism group of t: the vertex permutations that
    map the edge set onto itself, tried one by one."""
    edges = {frozenset(e) for e in t.edges}
    return sum(
        1 for perm in itertools.permutations(range(t.n))
        if all(frozenset((perm[u], perm[v])) in edges for u, v in t.edges)
    )


def naive_copy_count(pattern: Tree, host: Tree) -> int:
    want = canonical_code(pattern)
    return naive_window_census(host, pattern.n).get(want, 0)


def reference_center(t: Tree) -> tuple[int, ...]:
    """The vertices of least eccentricity, by a breadth-first search from
    every vertex."""
    adj = edge_adjacency(t)

    def eccentricity(s: int) -> int:
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return max(dist.values())

    ecc = [eccentricity(v) for v in range(t.n)]
    return tuple(v for v in range(t.n) if ecc[v] == min(ecc))


def reference_code(t: Tree) -> bytes:
    """The canonical code the module docstring of treelab.trees defines:
    the tree coded recursively from each center, the smaller code kept."""
    adj = edge_adjacency(t)

    def rooted(v: int, parent: int) -> bytes:
        return b"(" + b"".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + b")"

    return min(rooted(c, -1) for c in reference_center(t))


@functools.lru_cache(maxsize=None)
def prufer_class_count(n: int) -> int:
    """Number of tree shapes on n vertices by decoding every sequence.
    Memoised: the acceptance criteria and the catalog tests ask for the
    same n, and n = 8 alone decodes 8**6 sequences."""
    if n <= 2:
        return 1
    codes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        codes.add(canonical_code(prufer_to_tree(seq, n)))
    return len(codes)


def jsonify_value(v, digits: int):
    """A report value as JSON data: a Fraction becomes its decimal and
    exact forms, a tuple a list; anything else is kept."""
    if isinstance(v, Fraction):
        return {
            "decimal": fraction_to_decimal(v, digits),
            "exact": f"{v.numerator}/{v.denominator}",
        }
    if isinstance(v, tuple):
        return [jsonify_value(x, digits) for x in v]
    return v


def jsonify_report(r: VerificationReport, digits: int) -> dict:
    """The dict a report stands for in `treelab verify` output; equality,
    note and parts appear only when set."""
    out: dict = {
        "check": r.check,
        "inputs": r.inputs,
        "lhs": jsonify_value(r.lhs, digits),
        "rhs": jsonify_value(r.rhs, digits),
        "holds": r.holds,
        "slack": jsonify_value(r.slack, digits),
    }
    if r.equality is not None:
        out["equality"] = r.equality
    if r.note:
        out["note"] = r.note
    if r.parts:
        out["parts"] = [jsonify_report(p, digits) for p in r.parts]
    return out


def hosts_up_to(n: int) -> list[Tree]:
    """One representative of every tree shape with at most n vertices."""
    out: list[Tree] = []
    for m in range(1, n + 1):
        out.extend(enumerate_trees(m).entries)
    return out


@pytest.fixture(scope="session")
def small_hosts() -> list[Tree]:
    return hosts_up_to(9)


@pytest.fixture
def cold_catalogs() -> None:
    """Empty the catalog cache, so the test builds every catalog it uses."""
    catalog._catalog.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test and returns
    the Counter that its calls add to under that name."""
    calls: Counter = Counter()

    def wrap(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return wrap
