"""Seeded benchmark inputs: Pruefer decoding and a tree JSON writer.

The benchmark builds its inputs here rather than with the program's own
generators, so the program only receives them and they stay fixed when
the generators change.  The file format is the program's tree JSON,
{"n": <int>, "edges": [[u, v], ...]}.
"""

from __future__ import annotations

import heapq
import json
import random

from oracle import window_total


def prufer_decode(sequence: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on 0..n-1 encoded by a length n-2 sequence."""
    remaining = [0] * n
    for x in sequence:
        remaining[x] += 1
    heap = [v for v in range(n) if remaining[v] == 0]
    heapq.heapify(heap)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        remaining[x] -= 1
        if remaining[x] == 0:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def random_labelled_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on n >= 2 vertices."""
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)


def write_tree(path, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "edges": [[u, v] for u, v in edges]}, fh)
        fh.write("\n")


def relabelled(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """The same tree under a random permutation of its labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def banded_tree(n: int, k: int, lo: int, hi: int, rng: random.Random) -> tuple[list, int]:
    """A random labelled tree on n vertices with lo <= Z_k <= hi, and its Z_k.

    Random trees of one size differ by several percent in their window
    totals; drawing until the total falls in a narrow band keeps the work
    of a session the same across seeds, so the spread between seeds
    measures the machine rather than the input.
    """
    while True:
        edges = random_labelled_tree(n, rng)
        total = window_total(n, edges, k)
        if lo <= total <= hi:
            return edges, total


def tree_with_degrees(degrees: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """A random labelled tree whose sorted degree sequence is degrees."""
    n = len(degrees)
    want = sorted(degrees, reverse=True)
    while True:
        edges = random_labelled_tree(n, rng)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if sorted(deg, reverse=True) == want:
            return edges


def canonical_labels(n: int, edges, root: int) -> list[tuple[int, int]]:
    """The tree relabelled in preorder from root, children ordered by shape.

    Isomorphic trees rooted at corresponding vertices come out with equal
    edge lists.  The enumerator's cost depends on the labelling, and a
    glue power repeats its pattern's labels thousands of times, so the
    pattern is relabelled canonically to keep one shape's cost fixed.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(c, v) for c in adj[v] if c != parent)) + ")"

    label: dict[int, int] = {}

    def visit(v: int, parent: int) -> None:
        label[v] = len(label)
        for c in sorted((c for c in adj[v] if c != parent), key=lambda c: code(c, v)):
            visit(c, v)

    visit(root, -1)
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)
