"""Tree representation, validation, and canonical forms.

A tree on n vertices is stored as an immutable pair (n, edges) with vertex
labels 0..n-1.  Nothing else is cached on the object: degrees, adjacency,
centers, and codes are derived on demand so that values can be shared freely
across threads.

Canonical form convention: root the tree at its center; a bicentral tree is
rooted at each endpoint of the central edge and the lexicographically smaller
of the two rooted codes wins.  The rooted code of a vertex is
``b"(" + <child codes, sorted> + b")"``, so equal codes characterise
isomorphism and byte-wise comparison gives a total order on isomorphism
classes.  Codes are quadratic-size in the worst case (long paths) and are
meant for small and moderate hosts; the counting engine never builds codes
for large trees.

File formats: the JSON form is ``{"n": <int>, "edges": [[u, v], ...]}``.  The
compact text form is one line of n-1 whitespace-separated parent indices,
vertex i attaching to p_i < i (an empty token list is the single vertex).
Writers always emit JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial


class InvalidTreeError(ValueError):
    """Raised when an edge list fails one of the tree invariants."""


@dataclass(frozen=True)
class Tree:
    """Immutable tree: vertex count plus edge tuple, labels 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]


def make_tree(n: int, edges) -> Tree:
    """Build a Tree from any iterable of edge pairs (no validation)."""
    return Tree(n, tuple((int(u), int(v)) for u, v in edges))


def validate(t: Tree) -> str | None:
    """Return None if t is a valid tree, else a message naming the first
    violated invariant.

    Checked in order: positive vertex count, endpoint range, no self-loops,
    no duplicate edges, edge count n-1, connectivity, acyclicity.  The last
    two are each checked directly even though either plus the edge count
    implies the other.
    """
    if t.n <= 0:
        return f"vertex count must be positive, got {t.n}"
    seen = set()
    for u, v in t.edges:
        if not (0 <= u < t.n and 0 <= v < t.n):
            return f"edge ({u}, {v}) out of range for {t.n} vertices"
        if u == v:
            return f"self-loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge ({key[0]}, {key[1]})"
        seen.add(key)
    if len(t.edges) != t.n - 1:
        return f"edge count {len(t.edges)} != n - 1 = {t.n - 1}"
    adj = adjacency(t)
    # Connectivity: BFS from 0 must reach everything.
    reached = bytearray(t.n)
    reached[0] = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not reached[w]:
                reached[w] = 1
                count += 1
                stack.append(w)
    if count != t.n:
        return f"not connected: reached {count} of {t.n} vertices"
    # Acyclicity: DFS with parent tracking must see no back edge.
    parent = [-1] * t.n
    visited = bytearray(t.n)
    visited[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not visited[w]:
                visited[w] = 1
                parent[w] = v
                stack.append(w)
            elif w != parent[v]:
                return f"cycle through edge ({v}, {w})"
    return None


def require_valid(t: Tree) -> None:
    """Raise InvalidTreeError unless t passes validate()."""
    problem = validate(t)
    if problem is not None:
        raise InvalidTreeError(problem)


def adjacency(t: Tree) -> list[list[int]]:
    """Adjacency lists; neighbor order follows the edge tuple."""
    adj: list[list[int]] = [[] for _ in range(t.n)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def degrees(t: Tree) -> list[int]:
    deg = [0] * t.n
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def max_degree(t: Tree) -> int:
    return max(degrees(t)) if t.n > 1 else 0


def leaves(t: Tree) -> list[int]:
    """Vertices of degree <= 1, ascending.  The lone vertex of K_1 counts."""
    deg = degrees(t)
    return [v for v in range(t.n) if deg[v] <= 1]


def lowest_leaf(t: Tree) -> int:
    """Smallest-labelled leaf; every tree has one."""
    return leaves(t)[0]


def center(t: Tree) -> tuple[int, ...]:
    """The one or two middle vertices, found by peeling leaf layers."""
    if t.n <= 2:
        return tuple(range(t.n))
    deg = degrees(t)
    adj = adjacency(t)
    layer = [v for v in range(t.n) if deg[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def canonical_code(t: Tree) -> bytes:
    """Center-rooted canonical code; equal codes characterise isomorphism."""
    require_valid(t)
    c = center(t)
    adj = adjacency(t)
    if len(c) == 1:
        return _rooted_code(adj, c[0])
    return min(_rooted_code(adj, c[0]), _rooted_code(adj, c[1]))


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_code(a) == canonical_code(b)


def relabel(t: Tree, perm) -> Tree:
    """Apply a vertex permutation (perm[v] is the new label of v)."""
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def aut_size(t: Tree) -> int:
    """Order of the automorphism group.

    Rooted at the center, the count is the product over vertices of m! for
    every group of m identical child codes; a bicentral tree with isomorphic
    halves gains an extra factor 2 for the swap.
    """
    require_valid(t)
    if t.n == 1:
        return 1
    c = center(t)
    adj = adjacency(t)
    if len(c) == 1:
        return _rooted_aut(adj, c[0])
    code0 = _rooted_code(adj, c[0], banned=c[1])
    code1 = _rooted_code(adj, c[1], banned=c[0])
    a = _rooted_aut(adj, c[0], banned=c[1]) * _rooted_aut(adj, c[1], banned=c[0])
    return 2 * a if code0 == code1 else a


def _bfs_order(adj: list[list[int]], root: int, banned: int) -> tuple[list[int], list[int]]:
    order = [root]
    parent = [-2] * len(adj)
    parent[root] = banned
    for v in order:
        pv = parent[v]
        for w in adj[v]:
            if w != pv:
                parent[w] = v
                order.append(w)
    return order, parent


def _rooted_code(adj: list[list[int]], root: int, banned: int = -1) -> bytes:
    order, parent = _bfs_order(adj, root, banned)
    code: list[bytes] = [b""] * len(adj)
    for v in reversed(order):
        pv = parent[v]
        kids = sorted(code[w] for w in adj[v] if w != pv and w != banned)
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def _rooted_aut(adj: list[list[int]], root: int, banned: int = -1) -> int:
    order, parent = _bfs_order(adj, root, banned)
    code: list[bytes] = [b""] * len(adj)
    aut = 1
    for v in reversed(order):
        pv = parent[v]
        kids = sorted((code[w] for w in adj[v] if w != pv and w != banned))
        run = 1
        for i in range(1, len(kids)):
            if kids[i] == kids[i - 1]:
                run += 1
            else:
                aut *= factorial(run)
                run = 1
        if kids:
            aut *= factorial(run)
        code[v] = b"(" + b"".join(kids) + b")"
    return aut


# ---------------------------------------------------------------------------
# File formats


def tree_to_json(t: Tree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def tree_from_json(obj) -> Tree:
    """Tree from the JSON form, checked strictly.

    n and every endpoint must be JSON integers (not booleans, not floats)
    and edges a list of two-element lists; anything else raises
    InvalidTreeError, as do the tree invariants of validate().
    """
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidTreeError("tree JSON must be an object with 'n' and 'edges'")
    n = obj["n"]
    if type(n) is not int:
        raise InvalidTreeError(f"'n' must be an integer, got {type(n).__name__}")
    raw = obj["edges"]
    if type(raw) is not list:
        raise InvalidTreeError(f"'edges' must be a list, got {type(raw).__name__}")
    edges = []
    append = edges.append
    for i, e in enumerate(raw):
        if type(e) is list and len(e) == 2:
            u, v = e
            if type(u) is int and type(v) is int:
                append((u, v))
                continue
        raise InvalidTreeError(f"edge {i} must be a list of two integers [u, v]")
    t = Tree(n, tuple(edges))
    require_valid(t)
    return t


def parse_tree_text(text: str) -> Tree:
    """Parse either tree file format.

    Text starting with '{' is the JSON form; anything else is the compact
    parent list p_1 .. p_{n-1} with p_i < i.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise InvalidTreeError(f"bad tree JSON: {e}") from None
        return tree_from_json(obj)
    try:
        parents = [int(tok) for tok in stripped.split()]
    except ValueError:
        raise InvalidTreeError("compact tree form must be whitespace-separated integers") from None
    n = len(parents) + 1
    edges = []
    for i, p in enumerate(parents, start=1):
        if not 0 <= p < i:
            raise InvalidTreeError(f"parent {p} of vertex {i} must satisfy 0 <= p < {i}")
        edges.append((p, i))
    t = make_tree(n, edges)
    require_valid(t)
    return t


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree_text(fh.read())


def dump_tree(t: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_json(t), fh)
        fh.write("\n")
