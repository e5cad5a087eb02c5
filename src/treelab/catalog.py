"""Catalogs of k-vertex trees up to isomorphism.

Trees are generated by leaf extension: every class on k vertices arises by
attaching one new leaf to some class on k-1 vertices (remove any leaf to see
this), so extending every entry of the (k-1)-catalog, in ascending code
order, at every vertex and deduplicating by canonical code is exhaustive;
the first candidate of a code is kept.  The published order puts the path
first and the star second (for k <= 3 the two coincide and the star index
aliases the path); all remaining entries follow in ascending canonical-code
order, which makes catalog positions stable across runs and platforms.
The path and the star are picked from the catalog's own classes by their
degrees, so this module needs no tree constructors and sits below counting
and generators.

Every entry is checked once, when the catalog keeps it, and keeps the
canonical code it was deduplicated by, as any Tree keeps its Walk and code
(trees.checked_walk), so canonical_code on an entry never recodes it.
A candidate is coded from its parent's kept Walk lists, shared but for a
copy of the one that gains the new leaf, and the parent's degrees are
read off the same lists, so no adjacency is rebuilt from an edge tuple.
Its Tree is built only when its code is new; a candidate that duplicates
a kept class is dropped unbuilt and unchecked.  A leaf whose sibling
leaf in the same parent was already extended is skipped: swapping the
two is an automorphism, so its candidate has a code already kept, and
the first candidate of a code still wins, so no entry changes.

The trees of maximum degree <= dmax are a filter of the one catalog, the
same Tree objects, and each class has the representative a build over
bounded classes alone would pick: removing a leaf raises no degree, so
every parent of a bounded class is bounded and the bounded parents keep
their relative code order, and a candidate that attaches to a vertex of
degree >= dmax has degree above the bound, so it is never the first
candidate of a bounded class.

There is no size cap here (1,301 classes at 13 vertices, 823,065 at 20):
the command line checks every size against ``--max-k``.  The brute-force
cross-check for catalog sizes lives in the test suite and in
``scripts/count_trees_bruteforce.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .trees import Tree, _keep_code, adjacency_code, checked_walk, max_degree


@dataclass(frozen=True)
class TreeCatalog:
    """All k-vertex trees up to isomorphism, in published order.

    ``entries[i]`` is the representative at 0-based position i and
    ``codes[i]`` its canonical code.  ``index_of`` maps a code to its
    1-based position, the numbering used in reports and profile coordinate
    talk; subtract 1 to index ``entries``.  ``path_index`` and
    ``star_index`` are plain 0-based list indices: path at 0 always, star
    at 1 for k >= 4 and 0 for the degenerate small sizes where path and
    star coincide.
    """

    k: int
    entries: tuple[Tree, ...]
    codes: tuple[bytes, ...]
    index_of: dict[bytes, int] = field(repr=False)
    path_index: int = 0
    star_index: int = 0

    @property
    def count(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=None)
def _catalog(k: int) -> TreeCatalog:
    if k == 1:
        code = adjacency_code([[]])
        classes = {code: _keep_code(Tree(1, ()), code)}
        checked_walk(classes[code])
    else:
        classes = {}
        smaller = _catalog(k - 1)
        for _, parent in sorted(zip(smaller.codes, smaller.entries)):
            padj = checked_walk(parent).adj
            # Neighbours of the leaves extended so far in this parent.
            stems = set()
            for v in range(k - 1):
                if len(padj[v]) == 1:
                    if padj[v][0] in stems:
                        continue
                    stems.add(padj[v][0])
                adj = padj[:]
                adj[v] = padj[v] + [k - 1]
                adj.append([v])
                code = adjacency_code(adj)
                if code not in classes:
                    classes[code] = t = _keep_code(Tree(k, parent.edges + ((v, k - 1),)), code)
                    checked_walk(t)
    # The path is the one class of max degree <= 2, the star the one with a
    # vertex of degree k-1; for k <= 3 they are the same class.
    top = {c: max_degree(t) for c, t in classes.items()}
    path_code = next(c for c, d in top.items() if d <= 2)
    star_code = next(c for c, d in top.items() if d == k - 1)
    head = [path_code]
    if star_code != path_code:
        head.append(star_code)
    tail = sorted(c for c in classes if c not in head)
    codes = tuple(head + tail)
    entries = tuple(classes[c] for c in codes)
    index_of = {c: i + 1 for i, c in enumerate(codes)}
    return TreeCatalog(
        k=k,
        entries=entries,
        codes=codes,
        index_of=index_of,
        path_index=0,
        star_index=index_of[star_code] - 1,
    )


def enumerate_trees(k: int) -> TreeCatalog:
    """Catalog of all k-vertex trees in published order, cached per k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _catalog(k)


def catalog_count(k: int) -> int:
    """Number of k-vertex trees up to isomorphism."""
    return enumerate_trees(k).count


def enumerate_trees_bounded_degree(n: int, dmax: int = 3) -> tuple[Tree, ...]:
    """The entries of enumerate_trees(n) with maximum degree <= dmax, the
    same Tree objects, in ascending code order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cat = enumerate_trees(n)
    return tuple(t for _, t in sorted(zip(cat.codes, cat.entries)) if max_degree(t) <= dmax)
