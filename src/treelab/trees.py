"""Tree representation, validation, and canonical forms.

A tree on n vertices is stored as an immutable pair (n, edges) with vertex
labels 0..n-1.  Validation is one pass that builds the adjacency lists
while it checks them and walks the tree from vertex 0; its result, a Walk,
is the lists plus the order in which the walk visited the vertices, each
after its parent.  checked_walk keeps the Walk on the Tree it checked and
canonical_code keeps the code it builds, whoever built the tree, so every
Tree is checked and coded at most once; a catalog entry keeps the code
the catalog deduplicated it by from the start.  Only the Walk and the
code are kept on the object: degrees, leaves and centers are read off the
Walk on demand, so each rejects an edge list that is not a tree.  The
checked pass is the library's only builder of adjacency lists from an
edge tuple; the catalog codes its candidates from copies of their
parent's kept lists.

Canonical form convention: root the tree at its center; a bicentral tree is
rooted at each endpoint of the central edge and the lexicographically smaller
of the two rooted codes wins.  The rooted code of a vertex is
``b"(" + <child codes, sorted> + b")"``, so equal codes characterise
isomorphism and byte-wise comparison gives a total order on isomorphism
classes.  The leaf peel that finds the center also builds the code, in one
pass from the leaves in: a code is 2n bytes and building one takes memory
linear in n, but joining child codes copies each byte once per ancestor,
so the time is quadratic on long paths.  The counting engine never builds
codes for large trees.

File formats: the JSON form is ``{"n": <int>, "edges": [[u, v], ...]}``.  The
compact text form is one line of n-1 whitespace-separated parent indices,
vertex i attaching to p_i < i (an empty token list is the single vertex).
Writers always emit JSON, and dump_tree and `treelab gen` both write it
through tree_json_text: the text of json.dumps(tree_to_json(t)), made by
one % format of a template with a "[%d, %d]" slot per edge instead of by
building and encoding one list per edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple


class InvalidTreeError(ValueError):
    """Raised when an edge list fails one of the tree invariants."""


class Walk(NamedTuple):
    """What validation builds: adjacency lists, neighbour order following
    the edge tuple, and every vertex in a parent-before-child order from
    vertex 0."""

    adj: list[list[int]]
    order: list[int]


@dataclass(frozen=True)
class Tree:
    """Immutable tree: vertex count plus edge tuple, labels 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    # The Walk of the tree's first check and its canonical code, None until
    # they are first built.  Not part of the value: equal trees compare
    # equal with or without them.
    _walk: Walk | None = field(default=None, init=False, repr=False, compare=False)
    _code: bytes | None = field(default=None, init=False, repr=False, compare=False)


def make_tree(n: int, edges) -> Tree:
    """Build a Tree from any iterable of edge pairs (no validation)."""
    return Tree(n, tuple((int(u), int(v)) for u, v in edges))


def validate(t: Tree) -> str | None:
    """Return None if t is a valid tree, else a message naming the first
    violated invariant.

    One pass: the vertex count must be positive and the edge count n-1;
    one loop over the edges checks endpoint range and self-loops while it
    fills the adjacency lists; one traversal from vertex 0 must then reach
    all n vertices.  A connected graph on n vertices with n-1 edges is a
    tree, so a duplicate edge or a cycle needs no check of its own: either
    spends an edge without joining a new vertex, which leaves some vertex
    unreached, and is reported as "not connected".
    """
    return _check(t)[0]


def checked_walk(t: Tree) -> Walk:
    """The Walk of t, from the pass of validate() on its first call; t keeps
    it for every later call.  Raises InvalidTreeError for an invalid tree.
    Callers share the kept Walk and must not mutate it."""
    walk = t._walk
    if walk is None:
        problem, walk = _check(t)
        if problem is not None:
            raise InvalidTreeError(problem)
        object.__setattr__(t, "_walk", walk)
    return walk


def _check(t: Tree) -> tuple[str | None, Walk | None]:
    # The pass validate() describes: (first problem, None) or (None, Walk).
    # Each vertex is pushed once, by its parent, after the parent was
    # popped, so the pop order lists parents before children.  A stack,
    # not a queue, bounds the child tallies the counters hold at once by
    # depth times degree instead of by the widest level of the tree.
    n = t.n
    if n <= 0:
        return f"vertex count must be positive, got {n}", None
    if len(t.edges) != n - 1:
        return f"edge count {len(t.edges)} != n - 1 = {n - 1}", None
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in t.edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for {n} vertices", None
        if u == v:
            return f"self-loop at vertex {u}", None
        adj[u].append(v)
        adj[v].append(u)
    reached = bytearray(n)
    reached[0] = 1
    stack = [0]
    order = []
    visit = order.append
    while stack:
        v = stack.pop()
        visit(v)
        for w in adj[v]:
            if not reached[w]:
                reached[w] = 1
                stack.append(w)
    if len(order) != n:
        return f"not connected: reached {len(order)} of {n} vertices", None
    return None, Walk(adj, order)


def _keep_code(t: Tree, code: bytes) -> Tree:
    # t, keeping code, which the caller built from t's lists, as its code.
    object.__setattr__(t, "_code", code)
    return t


def degrees(t: Tree) -> list[int]:
    """Vertex degrees, read off the checked walk.  Raises InvalidTreeError
    when t is not a tree, as do the readers below built on it."""
    return [len(a) for a in checked_walk(t).adj]


def max_degree(t: Tree) -> int:
    return max(degrees(t))


def leaves(t: Tree) -> list[int]:
    """Vertices of degree <= 1, ascending.  The lone vertex of K_1 counts."""
    return [v for v, d in enumerate(degrees(t)) if d <= 1]


def lowest_leaf(t: Tree) -> int:
    """Smallest-labelled leaf; every tree has one."""
    return leaves(t)[0]


def center(t: Tree) -> tuple[int, ...]:
    """The one or two middle vertices, found by peeling leaf layers.
    Raises InvalidTreeError when t is not a tree."""
    return _peel(checked_walk(t).adj)[1]


def _peel(adj: list[list[int]]) -> tuple[list[int], tuple[int, ...]]:
    # Strip leaf layers until at most two vertices remain: the vertices
    # stripped, outermost layer first, and the one or two left, the center.
    # Rooted at the center, a vertex's children are its neighbours that
    # were stripped before it.  Lists with a cycle run out of leaves
    # first, and the peel stops there.
    n = len(adj)
    if n <= 2:
        return [], tuple(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    peeled: list[int] = []
    remaining = n
    while remaining > 2:
        if not layer:
            raise InvalidTreeError(f"not a tree: no leaf left to peel among {remaining} vertices")
        remaining -= len(layer)
        peeled += layer
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return peeled, tuple(sorted(layer))


def canonical_code(t: Tree) -> bytes:
    """Center-rooted canonical code; equal codes characterise isomorphism."""
    code = t._code
    if code is None:
        code = adjacency_code(checked_walk(t).adj)
        _keep_code(t, code)
    return code


def adjacency_code(adj: list[list[int]]) -> bytes:
    """canonical_code of the tree with these adjacency lists, unchecked:
    for lists that treelab built itself and knows to describe a tree.

    One pass over the peel order codes each vertex from its children's
    codes, which it takes out of the table, so the codes held at once
    belong to disjoint subtrees.  A bicentral tree's two halves are joined
    both ways and the smaller rooting is kept."""
    peeled, middle = _peel(adj)
    code: dict[int, bytes] = {}
    pop = code.pop
    for v in peeled:
        code[v] = _node([pop(w) for w in adj[v] if w in code])
    kids = [[pop(w) for w in adj[c] if w in code] for c in middle]
    if len(kids) == 1:
        return _node(kids[0])
    a, b = kids
    return min(_node(a + [_node(b)]), _node(b + [_node(a)]))


def _node(kids: list[bytes]) -> bytes:
    # The code of a vertex whose children have the codes kids.
    return b"(" + b"".join(sorted(kids)) + b")"


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_code(a) == canonical_code(b)


# ---------------------------------------------------------------------------
# File formats


def tree_to_json(t: Tree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def tree_json_text(t: Tree) -> str:
    """The JSON form of t as text, byte for byte json.dumps(tree_to_json(t))."""
    edges = ", ".join(["[%d, %d]"] * len(t.edges)) % tuple(chain.from_iterable(t.edges))
    return '{"n": %d, "edges": [%s]}' % (t.n, edges)


def tree_from_json(obj) -> Tree:
    """Tree from the JSON form, checked strictly.

    n and every endpoint must be JSON integers (not booleans, not floats)
    and edges a list of two-element lists; anything else raises
    InvalidTreeError, as do the tree invariants of validate().
    """
    t = _edges_from_json(obj)
    checked_walk(t)
    return t


def _edges_from_json(obj) -> Tree:
    # tree_from_json's type checks; the tree invariants are not checked.
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
    return Tree(n, tuple(edges))


def parse_tree_text(text: str) -> Tree:
    """Parse either tree file format.

    Text starting with '{' is the JSON form; anything else is the compact
    parent list p_1 .. p_{n-1} with p_i < i.
    """
    text = text.strip()
    if text.startswith("{"):
        # ValueError covers JSONDecodeError and integers past the digit
        # limit; deep nesting exhausts the decoder's recursion.
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise InvalidTreeError(f"bad tree JSON: {e}") from None
        # A large host's peak memory is set here: free the text before
        # the edges are copied out of the parsed JSON, and the JSON before
        # the Walk is built.
        del text
        t = _edges_from_json(obj)
        del obj
    else:
        try:
            parents = [int(tok) for tok in text.split()]
        except ValueError:
            raise InvalidTreeError("compact tree form must be whitespace-separated integers") from None
        edges = []
        for i, p in enumerate(parents, start=1):
            if not 0 <= p < i:
                raise InvalidTreeError(f"parent {p} of vertex {i} must satisfy 0 <= p < {i}")
            edges.append((p, i))
        t = Tree(len(parents) + 1, tuple(edges))
    checked_walk(t)
    return t


def load_tree(path) -> Tree:
    # utf-8-sig drops a leading byte order mark, which some editors write.
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_tree_text(fh.read())


def dump_tree(t: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tree_json_text(t) + "\n")
