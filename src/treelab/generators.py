"""Constructors for the tree families the toolkit studies.

Deterministic builders (paths, stars, millipedes), the leaf-to-leaf gluing
operator and its iterated and convex-combination forms, and seeded random
samplers.  All constructors emit labels in a fixed documented scheme so that
two calls with equal arguments return identical Tree values, not merely
isomorphic ones.  The convex-combination form sizes its copy counts with
the counting engine, which this module sits above.

Glue powers are built and counted from one list of leaf slots: every
vertex of t of degree at most 1, in label order, 2 - degree times, so a
leaf is one slot and the lone vertex of a one-vertex tree two.  The first
slot is the anchor.  glue_power(t, k, p) chains p copies of t, labelled in
the order they join: each new copy is joined at its anchor, through a
fresh path of k-1 connector vertices, to the lowest free slot of the
chain.  So the slots are taken in a fixed order: first every slot of the
root copy, then every slot but the anchor of each later copy in turn, and
the chain is, label for label, the fold of glue() that joins the lowest
leaves on both sides at every step.  Every connector path has k-1
vertices, so no window of k vertices touches two copies of t, and none
lies inside a connector alone: each window touches exactly one copy, and
the windows touching a copy are those of t with a path of k-1 vertices
hung from each of its slots that carries a connector.  A power therefore
has at most four kinds of copy (the root, full copies, one partially
filled copy, and copies joined by their anchor alone), and
glue_power_counts counts each kind once and weighs it by how many copies
are of that kind.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, count

from .catalog import enumerate_trees
from .config import DEFAULT_VERTEX_CAP
from .counting import CountsRecord, count_all, count_connected_subsets
from .trees import Tree, checked_walk, degrees, make_tree


class VertexCapError(ValueError):
    """Raised when a requested construction would exceed the vertex budget."""


def check_vertex_cap(projected: int, vertex_cap: int, what: str) -> None:
    """Raise VertexCapError when `what` would use more than vertex_cap
    vertices: the one budget rule, which convex_glue and every `treelab gen`
    family apply before building."""
    if projected > vertex_cap:
        raise VertexCapError(f"{what} would use {projected} vertices, cap is {vertex_cap}")


def make_path(n: int) -> Tree:
    """Path on vertices 0..n-1 in label order."""
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got n={n}")
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def make_star(n: int) -> Tree:
    """Star with center 0 and leaves 1..n-1."""
    if n < 1:
        raise ValueError(f"star needs at least one vertex, got n={n}")
    return Tree(n, tuple((0, i) for i in range(1, n)))


def make_millipede(d: int, length: int) -> Tree:
    """Caterpillar whose every internal vertex has degree d + 2.

    Spine vertices 0..length-1 form a path; spine vertex i carries the d
    legs length + i*d .. length + i*d + d - 1; two further leaves close the
    spine ends so the end vertices also reach degree d + 2.  Total size is
    length*(d+1) + 2.  d=0 gives a path, d=1 the binary caterpillar.
    """
    if d < 0:
        raise ValueError(f"leg count per spine vertex must be >= 0, got d={d}")
    if length < 1:
        raise ValueError(f"spine length must be >= 1, got length={length}")
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(length - 1)]
    for i in range(length):
        for j in range(d):
            edges.append((i, length + i * d + j))
    end_a = length + length * d
    end_b = end_a + 1
    edges.append((0, end_a))
    edges.append((length - 1, end_b))
    return Tree(millipede_size(d, length), tuple(edges))


def millipede_size(d: int, length: int) -> int:
    return length * (d + 1) + 2


def _require_leaf(t: Tree, v: int, label: str) -> None:
    deg = degrees(t)
    if not (0 <= v < t.n):
        raise ValueError(f"{label}={v} is not a vertex of a tree on {t.n} vertices")
    if deg[v] > 1:
        raise ValueError(f"{label}={v} has degree {deg[v]}, not a leaf")


def glue(t: Tree, s: Tree, k: int, leaf_t: int, leaf_s: int) -> Tree:
    """Join two trees through a fresh path of k-1 connector vertices.

    The result keeps t's labels, shifts s's labels by t.n, and appends the
    connectors as t.n+s.n .. t.n+s.n+k-2 in path order from the t side.
    The connector path has k edges, so any window of k consecutive vertices
    straddling the join touches at most one vertex of t and one of s.
    Raises InvalidTreeError when t or s is not a tree.
    """
    if k < 2:
        raise ValueError(f"window size must be >= 2, got k={k}")
    _require_leaf(t, leaf_t, "leaf_t")
    _require_leaf(s, leaf_s, "leaf_s")
    edges = list(t.edges)
    edges.extend((u + t.n, v + t.n) for u, v in s.edges)
    _connect(edges, leaf_t, t.n + leaf_s, t.n + s.n, k)
    return Tree(t.n + s.n + k - 1, tuple(edges))


def _connect(edges: list[tuple[int, int]], x: int, y: int, first: int, k: int) -> None:
    # Append the edges of a fresh path of k-1 vertices, first .. first+k-2,
    # from x to y.
    path = [x, *range(first, first + k - 1), y]
    edges.extend(zip(path, path[1:]))


def glue_size(n_t: int, n_s: int, k: int) -> int:
    return n_t + n_s + k - 1


def glue_power_size(n_t: int, k: int, power: int) -> int:
    return power * n_t + (power - 1) * (k - 1)


def glue_power(t: Tree, k: int, power: int) -> Tree:
    """Chain power copies of t, each joined at its anchor to the lowest
    free leaf slot of the chain, as the module notes describe: label for
    label, the fold of glue() over copies of t that joins the lowest leaves
    on both sides at every step.  Raises InvalidTreeError when t is not a
    tree.
    """
    edges: list[tuple[int, int]] = []
    _append_power(t, k, power, edges, 0)
    return Tree(glue_power_size(t.n, k, power), tuple(edges))


def _leaf_slots(t: Tree) -> list[int]:
    # The leaf slots of the module notes; the first is the anchor.
    return [v for v, nbrs in enumerate(checked_walk(t).adj) for _ in range(2 - len(nbrs))]


def _append_power(t: Tree, k: int, power: int, edges: list[tuple[int, int]], base: int) -> int:
    # Append the edges of glue_power(t, k, power), every label shifted by
    # base, and return the power's lowest free leaf slot.
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if k < 2:
        raise ValueError(f"window size must be >= 2, got k={k}")
    slots = _leaf_slots(t)
    step = t.n + k - 1  # a later copy and the connector after it
    # The slots in the order the joins take them; a tree has at least two.
    free = chain((base + v for v in slots),
                 (b + v for b in count(base + t.n, step) for v in slots[1:]))
    edges.extend((u + base, v + base) for u, v in t.edges)
    for b in range(base + t.n, base + t.n + (power - 1) * step, step):
        edges.extend((u + b, v + b) for u, v in t.edges)
        _connect(edges, next(free), b + slots[0], b + t.n, k)
    return next(free)


def glue_power_counts(t: Tree, k: int, power: int) -> CountsRecord:
    """count_all(glue_power(t, k, power), k), without building the power.

    The sum over the kinds of copy described in the module notes: a copy
    whose first j leaf slots carry a connector counts the windows of t with
    a path of k-1 vertices hung from each of those slots.  The cost does not
    grow with the power.  Raises InvalidTreeError when t is not a tree.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if k < 2:
        raise ValueError(f"window size must be >= 2, got k={k}")
    slots = _leaf_slots(t)
    # power-1 joins fill power-1 slots: the root copy's first, then
    # len(slots)-1 per later copy, so `full` later copies fill all of
    # theirs, at most one fills `part` of them, and the rest carry the
    # anchor only.
    joins = power - 1
    root = min(len(slots), joins)
    full, part = divmod(joins - root, len(slots) - 1)
    partial = 1 if part else 0
    copies = Counter({root: 1})
    copies[len(slots)] += full
    copies[1 + part] += partial
    copies[1] += joins - full - partial
    per_type = [0] * enumerate_trees(k).count
    for used, times in copies.items():
        if times:
            record = count_all(_with_connectors(t, k, slots[:used]), k)
            for i, c in enumerate(record.per_type):
                per_type[i] += c * times
    return CountsRecord(k=k, per_type=tuple(per_type), total=sum(per_type))


def _with_connectors(t: Tree, k: int, stubs: list[int]) -> Tree:
    # t with a fresh path of k-1 vertices hung from each vertex in stubs:
    # one copy of t and every vertex that a window touching it can reach.
    edges = list(t.edges)
    n = t.n
    for x in stubs:
        prev = x
        for _ in range(k - 1):
            edges.append((prev, n))
            prev = n
            n += 1
    return Tree(n, tuple(edges))


def _glued_pair_rate(t: Tree, k: int) -> int:
    """Windows contributed per copy of t inside a long chain of copies.

    Each interior copy in a chain brings its own windows plus the windows
    that straddle one connector path; both are read off the two-copy glue
    power: rate = total(glue_power(t, k, 2)) - total(t).
    """
    return count_connected_subsets(glue_power(t, k, 2), k) - count_connected_subsets(t, k)


def convex_glue_multiplicities(
    t: Tree,
    s: Tree,
    k: int,
    alpha: int,
    beta: int,
    *,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[int, int]:
    """Copy counts (m_t, m_s) used by convex_glue.

    Balances the per-copy rates of t and s inside a chain (window total
    plus one connector's straddling windows), which govern the mixture as
    the construction grows: m_t : m_s = alpha*rate(s) : (beta-alpha)*rate(t)
    as closely as integers allow, scaled as far as the vertex budget allows.
    """
    if k < 2:
        raise ValueError(f"window size must be >= 2, got k={k}")
    if not (0 < alpha < beta):
        raise ValueError(f"weights must satisfy 0 < alpha < beta, got alpha={alpha} beta={beta}")
    rate_t = _glued_pair_rate(t, k)
    rate_s = _glued_pair_rate(s, k)
    if rate_t <= 0 or rate_s <= 0:
        raise ValueError(
            f"both sides must contain at least one window of {k} vertices "
            f"(got rates {rate_t} and {rate_s})"
        )
    ratio = Fraction(alpha * rate_s, (beta - alpha) * rate_t)

    def size(m_t: int, m_s: int) -> int:
        return glue_size(glue_power_size(t.n, k, m_t), glue_power_size(s.n, k, m_s), k)

    # Largest pair under the cap with m_t/m_s as close to the ratio as
    # integers allow.  Parametrize by the smaller multiplier and round the
    # larger one, so the rounding error is relative to the big count.
    if ratio >= 1:
        def pair(m: int) -> tuple[int, int]:
            return max(1, round(ratio * m)), m
    else:
        def pair(m: int) -> tuple[int, int]:
            return m, max(1, round(m / ratio))
    check_vertex_cap(size(*pair(1)), vertex_cap, f"smallest balanced pair {pair(1)}")
    lo, hi = 1, 2
    while size(*pair(hi)) <= vertex_cap:
        lo, hi = hi, hi * 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if size(*pair(mid)) <= vertex_cap:
            lo = mid
        else:
            hi = mid
    return pair(lo)


def convex_glue(
    t: Tree,
    s: Tree,
    k: int,
    alpha: int,
    beta: int,
    *,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> Tree:
    """Chain copies of t and s so their windows mix in ratio alpha : beta - alpha.

    Builds glue_power(t, m_t) joined to glue_power(s, m_s) through one more
    connector path, with (m_t, m_s) from convex_glue_multiplicities.  The
    profile of the result approaches the prescribed convex combination of
    the two input profiles as the vertex budget grows.
    """
    m_t, m_s = convex_glue_multiplicities(t, s, k, alpha, beta, vertex_cap=vertex_cap)
    edges: list[tuple[int, int]] = []
    leaf_left = _append_power(t, k, m_t, edges, 0)
    base = glue_power_size(t.n, k, m_t)
    leaf_right = _append_power(s, k, m_s, edges, base)
    n = base + glue_power_size(s.n, k, m_s)
    _connect(edges, leaf_left, leaf_right, n, k)
    return Tree(n + k - 1, tuple(edges))


def prufer_to_tree(sequence: list[int] | tuple[int, ...], n: int) -> Tree:
    """Decode a length n-2 sequence over 0..n-1 into the tree it encodes."""
    if n < 2:
        raise ValueError(f"decoding needs n >= 2, got n={n}")
    if len(sequence) != n - 2:
        raise ValueError(f"sequence length must be n-2={n - 2}, got {len(sequence)}")
    remaining = [0] * n
    for x in sequence:
        if not (0 <= x < n):
            raise ValueError(f"sequence entry {x} outside 0..{n - 1}")
        remaining[x] += 1
    edges: list[tuple[int, int]] = []
    heap = [v for v in range(n) if remaining[v] == 0]
    heapq.heapify(heap)
    for x in sequence:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        remaining[x] -= 1
        if remaining[x] == 0:
            heapq.heappush(heap, x)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return Tree(n, tuple(edges))


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labelled tree on n vertices, deterministic in seed."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if n == 1:
        return make_tree(1, [])
    if n == 2:
        return make_tree(2, [(0, 1)])
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    return prufer_to_tree(sequence, n)


def random_tree_bounded_degree(n: int, dmax: int, rng: random.Random) -> Tree:
    """Random tree grown by attachment, keeping every degree <= dmax.

    Not uniform over bounded-degree trees; intended as a cheap source of
    varied test instances.  Pass random.Random(seed) for reproducibility.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if (dmax < 1 and n >= 2) or (dmax < 2 and n > 2):
        raise ValueError(f"dmax={dmax} cannot accommodate {n} vertices")
    edges: list[tuple[int, int]] = []
    deg = [0] * n
    eligible = [0]
    for v in range(1, n):
        i = rng.randrange(len(eligible))
        u = eligible[i]
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] >= dmax:
            eligible[i] = eligible[-1]
            eligible.pop()
        if deg[v] < dmax:
            eligible.append(v)
    return make_tree(n, edges)
