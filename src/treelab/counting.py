"""Exact window counting and profile vectors.

A window of a tree is a set of k vertices whose induced subgraph is
connected; in a tree that induced subgraph is itself a tree, so every
window has a well-defined shape.  This module enumerates windows, tallies
them by shape against the catalog order, and provides closed-form fast
counters for the three 5-vertex shapes: P (paths), S (stars), and Y (the
fork, a degree-3 center with one branch of two vertices).

The enumerator grows windows from an anchor vertex using only vertices
with larger labels, so each window is produced exactly once.  While a
window grows, each added vertex attaches to exactly one earlier vertex
(two attachments would close a cycle), so the sequence of attachment
positions pins down the shape; shapes are resolved through a cache keyed
by that sequence, and the expensive canonical-form computation runs once
per distinct sequence rather than once per window.

All counts are exact big integers, all densities exact fractions; decimal
strings are rendered only at the output boundary.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import enumerate_trees
from .config import DEFAULT_MAX_K
from .trees import Tree, adjacency, canonical_code, degrees, make_tree

_PARENT_CODE_CACHE: dict[tuple[int, ...], bytes] = {}


def _code_of_attachment_sequence(parents: tuple[int, ...]) -> bytes:
    """Canonical form of the window shape encoded by attachment positions."""
    code = _PARENT_CODE_CACHE.get(parents)
    if code is None:
        k = len(parents) + 1
        code = canonical_code(make_tree(k, [(parents[i], i + 1) for i in range(k - 1)]))
        _PARENT_CODE_CACHE[parents] = code
    return code


def _tally_shapes(t: Tree, k: int) -> dict[tuple[int, ...], int]:
    """Whole-tree window counts keyed by attachment-position sequence."""
    tallies: dict[tuple[int, ...], int] = {}
    if k == 1:
        if t.n:
            tallies[()] = t.n
        return tallies
    adj = adjacency(t)

    def grow(anchor: int, sub: tuple[int, ...], pool: list, parents: tuple[int, ...]) -> None:
        last = len(sub) + 1 == k
        while pool:
            w, pos = pool.pop()
            key = parents + (pos,)
            if last:
                tallies[key] = tallies.get(key, 0) + 1
                continue
            parent_vertex = sub[pos]
            fresh = [(u, len(sub)) for u in adj[w] if u > anchor and u != parent_vertex]
            grow(anchor, sub + (w,), pool + fresh, key)

    for anchor in range(t.n):
        ext = [(u, 0) for u in adj[anchor] if u > anchor]
        if ext:
            grow(anchor, (anchor,), ext, ())
    # grow refers to itself through its closure; breaking that cycle frees
    # adj on return instead of at the next full garbage collection, which
    # on large hosts would keep one adjacency alive into the next count.
    del grow
    return tallies


def enumerate_connected_subsets(t: Tree, k: int):
    """Yield every window as a sorted vertex tuple, each exactly once.

    The traversal order is deterministic for a fixed tree but not
    lexicographic.  Empty stream when the tree has fewer than k vertices.
    """
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    if k == 1:
        for v in range(t.n):
            yield (v,)
        return
    adj = adjacency(t)

    def grow(anchor: int, sub: tuple[int, ...], pool: list):
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


def count_connected_subsets(t: Tree, k: int) -> int:
    """Total number of windows of k vertices (the Z total)."""
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    return sum(_tally_shapes(t, k).values())


@dataclass(frozen=True)
class CountsRecord:
    """Window counts of one tree, split by shape.

    per_type follows the catalog order for k; total is its sum.
    """

    k: int
    per_type: tuple[int, ...]
    total: int

    def profile_vector(self, n: int) -> ProfileVector:
        """The counts as exact densities; n is the host's vertex count,
        named in the error raised when there are no windows."""
        if self.total == 0:
            raise ValueError(f"tree on {n} vertices has no windows of {self.k} vertices")
        return ProfileVector(k=self.k, coords=tuple(Fraction(c, self.total) for c in self.per_type))


@dataclass(frozen=True)
class ProfileVector:
    """Shape distribution of the k-windows of one tree.

    coords are exact fractions in catalog order, summing to exactly 1.
    """

    k: int
    coords: tuple[Fraction, ...]

    def decimals(self, digits: int = 12) -> tuple[str, ...]:
        return tuple(fraction_to_decimal(c, digits) for c in self.coords)


def count_all(t: Tree, k: int, max_k: int = DEFAULT_MAX_K) -> CountsRecord:
    """Window counts per shape in one enumeration pass.

    A tree with fewer than k vertices yields all zeros with total 0.
    """
    catalog = enumerate_trees(k, max_k)
    counts = [0] * catalog.count
    for parents, c in _tally_shapes(t, k).items():
        counts[catalog.index_of[_code_of_attachment_sequence(parents)] - 1] += c
    return CountsRecord(k=k, per_type=tuple(counts), total=sum(counts))


def count_copies(s: Tree, t: Tree) -> int:
    """Number of windows of t whose shape is s.

    A window is a vertex subset inducing a connected subgraph; copies are
    counted as subsets, not as maps, so a pattern with symmetries is still
    counted once per subset.
    """
    k = s.n
    if k == 1:
        return t.n
    target = canonical_code(s)
    total = 0
    for parents, c in _tally_shapes(t, k).items():
        if _code_of_attachment_sequence(parents) == target:
            total += c
    return total


def profile(t: Tree, k: int, max_k: int = DEFAULT_MAX_K) -> ProfileVector:
    """Normalized shape distribution of the k-windows of t."""
    return count_all(t, k, max_k).profile_vector(t.n)


def fraction_to_decimal(value: Fraction, digits: int = 12) -> str:
    """Fixed-point rendering with the given number of significant digits."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if value == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return format(d, "f")


def count_paths_fast(t: Tree, k: int) -> int:
    """Number of k-vertex path windows, by dynamic programming over one root.

    down[v][j] counts descending paths of j vertices starting at v; paths
    are charged to their topmost vertex, either running straight down or
    bending across two child subtrees.  Linear in n for fixed k, no window
    enumeration.
    """
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    n = t.n
    if k == 1:
        return n
    if n < k:
        return 0
    adj = adjacency(t)
    order, parent = _root_order(adj, 0)
    down: list = [None] * n
    total = 0
    for v in reversed(order):
        dv = [0] * (k + 1)
        dv[1] = 1
        acc = [0] * k
        for c in adj[v]:
            if c == parent[v]:
                continue
            dc = down[c]
            down[c] = None
            for a in range(1, k - 1):
                if dc[a]:
                    total += dc[a] * acc[k - 1 - a]
            for j in range(2, k + 1):
                if dc[j - 1]:
                    dv[j] += dc[j - 1]
            for a in range(1, k):
                acc[a] += dc[a]
        total += dv[k]
        down[v] = dv
    return total


def count_stars_fast(t: Tree, k: int) -> int:
    """Number of k-vertex star windows: a center plus k-1 of its neighbors.

    For k <= 2 every window is both a path and a star; the counts follow
    that reading (n, then n-1).
    """
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    if k == 1:
        return t.n
    if k == 2:
        return t.n - 1
    return sum(math.comb(d, k - 1) for d in degrees(t))


def _y_edge_term(da: int, db: int) -> int:
    # Fork windows charged to the center-to-branch edge: two leaf neighbors
    # chosen at one endpoint, one continuation beyond the other endpoint.
    return math.comb(da - 1, 2) * (db - 1) + math.comb(db - 1, 2) * (da - 1)


def count_y_fast(t: Tree) -> int:
    """Number of 5-vertex fork windows (Y), summed edge by edge."""
    deg = degrees(t)
    return sum(_y_edge_term(deg[u], deg[v]) for u, v in t.edges)


def count_y_split(t: Tree) -> tuple[int, int]:
    """Fork windows split by the charged edge's larger endpoint degree.

    Returns (y_small, y_large): an edge counts as large when either
    endpoint has degree at least 4, small otherwise.  The two parts sum to
    count_y_fast and feed the two halves of the 36S bound check.
    """
    deg = degrees(t)
    small = 0
    large = 0
    for u, v in t.edges:
        term = _y_edge_term(deg[u], deg[v])
        if max(deg[u], deg[v]) >= 4:
            large += term
        else:
            small += term
    return small, large


def _root_order(adj: tuple[tuple[int, ...], ...], root: int) -> tuple[list[int], list[int]]:
    """Vertices in breadth-first order from root, with the parent of each."""
    n = len(adj)
    parent = [-1] * n
    order = [root]
    seen = [False] * n
    seen[root] = True
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    return order, parent
