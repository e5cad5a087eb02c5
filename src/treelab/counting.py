"""Exact window counting and profile vectors.

A window of a tree is a set of k vertices whose induced subgraph is
connected; in a tree that induced subgraph is itself a tree, so every
window has a well-defined shape.  This module counts windows by shape
against the catalog order, counts paths and stars of any size in linear
time, and counts the three 5-vertex shapes, P (paths), S (stars) and Y
(the fork, a degree-3 center with one branch of two vertices), in one
local pass (five_window_counts).

Windows are counted, never listed, by one leaf-to-root dynamic program
over rooted shapes (after Szekely and Wang, "On subtrees of trees"): a
window is its top vertex plus, per child, nothing or a set topped by that
child.  Shapes are ids in a table local to each call, so the cost grows
with n and k, not with the number of windows, and each k-vertex rooted
shape found is un-rooted to its canonical code once.  This DP, behind
count_all, is the only per-shape engine.  The window total Z_k needs no
shapes: the same recursion over subtree-size polynomials gives Z_j for
every j <= k in one O(n k^2) pass (_window_totals).

The DP hash-conses its vertex states: the first few hundred distinct
states are interned by content, and a vertex whose children's states are
all interned reuses the result of the first vertex with the same child
states, so its merges are done once per distinct key of child state ids;
the first few thousand keys are kept.
Glue powers and the two-family mixture repeat a few local shapes
thousands of times and cost little more than their distinct keys; a host
whose states or keys do not repeat fills the bounded tables and merges
vertex by vertex, in memory bounded as before.

The DP, Z and the path counter run leaf to root over the reverse of the
tree's checked walk (trees.checked_walk): the adjacency lists and
parent-before-child order that the tree's one validation built and that
it keeps.  A vertex's done neighbours are its children, so no parent
array is needed, and the shared lists are only read.  The star and fork
counters read degrees off the same lists.  Every counter takes the walk
before any shortcut, so every counter rejects an invalid tree.

All counts are exact big integers, all densities exact fractions; decimal
strings are rendered only at the output boundary.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import enumerate_trees
from .config import DEFAULT_DECIMAL_PRECISION
from .trees import Tree, adjacency_code, checked_walk


# Most states _rooted_tally interns by content; it memoises at most 16
# times as many child-state keys.  Past that, new states stay plain dicts
# and new keys are merged afresh.  Interning every state raised the
# tracemalloc peak of count_all(random_tree(4000, 1), 8) from 1.5 to
# 6.9 MB.  random_tree(100000, 1) at k = 4 has 3,458 keys over 71 states:
# memoising at most 256 of them made its count about 30% slower, and
# 4,096 hold them all at a 2.3 MB peak against 1.0 MB.
_INTERN_CAP = 256


def _rooted_tally(t: Tree, k: int) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Number of windows of k vertices of t per rooted shape, each window
    rooted at its top vertex, and the shape table: shape s has the sorted
    child shapes kids[s], and shape 0 is the lone vertex.

    A vertex's state (shape -> sets of fewer than k vertices topped by it)
    and its k-vertex windows depend only on its children's states.  The
    first _INTERN_CAP distinct states are interned by content, and a
    vertex whose children are all interned looks up the tuple of their
    ids: on a hit it reuses that key's result and bumps its use count, and
    each key's windows are tallied once, times its use count, at the end;
    at most 16 * _INTERN_CAP keys are kept.  So the cost grows with the
    number of distinct child-state keys, not with n, on hosts that repeat
    a few local shapes, such as glue powers.
    """
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    adj, order = checked_walk(t)
    kids: list[tuple[int, ...]] = [()]
    if k == 1:
        return {0: t.n}, kids
    # size[s] is the vertex count of shape s, ids finds a shape from its
    # children, and join_of[s][r] is s with one more child subtree r.
    size = [1]
    ids: dict[tuple[int, ...], int] = {(): 0}
    join_of: list[dict[int, int]] = [{}]
    tally: dict[int, int] = {}
    # states[i] is interned state i and interned finds it from its items;
    # memo maps a tuple of child state ids to [state id, that vertex's
    # k-vertex windows, uses], for keys whose result was interned.
    states: list[dict[int, int]] = []
    interned: dict[frozenset, int] = {}
    memo: dict[tuple, list] = {}
    cap = _INTERN_CAP
    lone = {0: 1}
    # below[v]: v's state, an interned id or a plain dict, kept until v's
    # parent, whose done neighbours are exactly its children.
    below: list = [None] * t.n
    for v in reversed(order):
        key = []
        pure = True
        for c in adj[v]:
            sub = below[c]
            if sub is not None:
                below[c] = None
                key.append(sub)
                if sub.__class__ is not int:
                    pure = False
        if pure:
            key = tuple(key)
            hit = memo.get(key)
            if hit is not None:
                hit[2] += 1
                below[v] = hit[0]
                continue
        intern = len(states) < cap
        memoise = pure and intern and len(memo) < 16 * cap
        out = {} if memoise else tally
        top = lone
        for sub in key:
            if sub.__class__ is int:
                sub = states[sub]
            grown = dict(top)
            for s, a in top.items():
                room = k - size[s]
                joins = join_of[s]
                for r, b in sub.items():
                    m = size[r]
                    if m > room:
                        continue
                    j = joins.get(r)
                    if j is None:
                        shape = tuple(sorted(kids[s] + (r,)))
                        j = ids.get(shape)
                        if j is None:
                            j = ids[shape] = len(kids)
                            kids.append(shape)
                            size.append(size[s] + m)
                            join_of.append({})
                        joins[r] = j
                    if m == room:
                        out[j] = out.get(j, 0) + a * b
                    else:
                        grown[j] = grown.get(j, 0) + a * b
            top = grown
        if intern:
            content = frozenset(top.items())
            sid = interned.get(content)
            if sid is None:
                sid = interned[content] = len(states)
                states.append(top)
            below[v] = sid
            if memoise:
                memo[key] = [sid, out, 1]
        else:
            below[v] = top
    for _, out, uses in memo.values():
        for j, x in out.items():
            tally[j] = tally.get(j, 0) + x * uses
    return tally, kids


def _window_tally(t: Tree, k: int) -> dict[bytes, int]:
    """Number of windows of k vertices of t, keyed by canonical code."""
    tally, kids = _rooted_tally(t, k)
    out: dict[bytes, int] = {}
    for s, c in tally.items():
        # Un-root: lay shape s out as a tree, its root at vertex 0.
        shape: list[list[int]] = [[]]
        stack = [(0, s)]
        while stack:
            v, sv = stack.pop()
            for r in kids[sv]:
                shape[v].append(len(shape))
                shape.append([v])
                stack.append((len(shape) - 1, r))
        code = adjacency_code(shape)
        out[code] = out.get(code, 0) + c
    return out


def _window_totals(t: Tree, k: int) -> list[int]:
    """[Z_0, ..., Z_k], Z_0 = 0.  f_v[j] counts the windows of j vertices
    topped by v: f_v is x times the product of (1 + f_c) over v's children
    c, truncated at k and at the subtree's size, and Z_j sums f_v[j]."""
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    adj, order = checked_walk(t)
    totals = [0] * (k + 1)
    leaf = [0, 1]
    below: list = [None] * t.n
    for v in reversed(order):
        f = leaf
        for c in adj[v]:
            g = below[c]
            if g is None:
                continue
            below[c] = None
            if f is leaf:
                # x (1 + g) is g shifted up one size, plus the lone v.
                f = [0, 1, *g[1:k]]
                continue
            h = f + [0] * (min(len(f) + len(g) - 2, k) + 1 - len(f))
            for a in range(1, len(f)):
                x = f[a]
                for b in range(1, min(len(g), len(h) - a)):
                    h[a + b] += x * g[b]
            f = h
        for j in range(2, len(f)):
            totals[j] += f[j]
        below[v] = f
    totals[1] = t.n
    return totals


def count_connected_subsets(t: Tree, k: int) -> int:
    """Total number of windows of k vertices (the Z total)."""
    return _window_totals(t, k)[k]


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

    def decimals(self, digits: int = DEFAULT_DECIMAL_PRECISION) -> tuple[str, ...]:
        return tuple(fraction_to_decimal(c, digits) for c in self.coords)


def count_all(t: Tree, k: int) -> CountsRecord:
    """Window counts per shape in one counting pass.

    A tree with fewer than k vertices yields all zeros with total 0.
    """
    catalog = enumerate_trees(k)
    counts = [0] * catalog.count
    for code, c in _window_tally(t, k).items():
        counts[catalog.index_of[code] - 1] = c
    return CountsRecord(k=k, per_type=tuple(counts), total=sum(counts))


def profile(t: Tree, k: int) -> ProfileVector:
    """Normalized shape distribution of the k-windows of t."""
    return count_all(t, k).profile_vector(t.n)


def fraction_to_decimal(value: Fraction, digits: int = DEFAULT_DECIMAL_PRECISION) -> str:
    """Fixed-point rendering with the given number of significant digits,
    rounded half to even whatever the caller's decimal context says."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if value == 0:
        return "0"
    return format(_decimal_context(digits).divide(value.numerator, value.denominator), "f")


@lru_cache(maxsize=None)
def _decimal_context(digits: int) -> decimal.Context:
    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, traps=[])


def count_paths_fast(t: Tree, k: int) -> int:
    """Number of k-vertex path windows, by dynamic programming over one root.

    down[v][j] counts descending paths of j vertices starting at v; paths
    are charged to their topmost vertex, either running straight down or
    bending across two child subtrees.  Linear in n for fixed k, no window
    enumeration.
    """
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    adj, order = checked_walk(t)
    n = t.n
    if n < k:
        return 0
    # down[c] is kept until c's parent, whose done neighbours are exactly
    # its children.
    down: list = [None] * n
    total = 0
    for v in reversed(order):
        dv = [0] * (k + 1)
        dv[1] = 1
        acc = [0] * k
        for c in adj[v]:
            dc = down[c]
            if dc is None:
                continue
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
    adj = checked_walk(t).adj
    if k <= 2:
        return t.n - k + 1
    return sum(math.comb(len(nbrs), k - 1) for nbrs in adj)


def five_window_counts(t: Tree) -> tuple[int, int, int, int, int]:
    """(P, S, Y, y_small, y_large): the 5-vertex path, star and fork
    windows of t, with the forks split as Y = y_small + y_large.

    A vertex of degree d whose neighbours have degrees a + 1 is the middle
    of a * a' paths per pair of neighbours, the center of C(d, 4) stars,
    and the center of C(d - 1, 2) * a forks per branch neighbour.  A fork
    is large when its center or branch vertex has degree >= 4; the large
    ones are covered by 36S, the small ones obey the budget P + 4.
    """
    adj = checked_walk(t).adj
    deg = [len(nbrs) for nbrs in adj]
    P2 = S = y_small = y_large = 0
    for nbrs in adj:
        d = len(nbrs)
        if d < 2:
            continue
        # A = sum of a, B = sum of a^2, wide = the part of A from
        # neighbours of degree >= 4.
        A = B = wide = 0
        for u in nbrs:
            a = deg[u] - 1
            A += a
            B += a * a
            if a >= 3:
                wide += a
        P2 += A * A - B
        if d >= 3:
            forks = math.comb(d - 1, 2)
            if d >= 4:
                S += math.comb(d, 4)
                y_large += forks * A
            else:
                y_small += forks * (A - wide)
                y_large += forks * wide
    return P2 // 2, S, y_small + y_large, y_small, y_large


def count_y_fast(t: Tree) -> int:
    """Number of 5-vertex fork windows (Y)."""
    return five_window_counts(t)[2]
