"""Window totals by the subtree-polynomial DP (Szekely and Wang, 2005).

Root the tree anywhere.  The generating polynomial of the windows whose
topmost vertex is v is f_v(x) = x * prod over children c of (1 + f_c(x));
the number of k-vertex windows is the sum over v of [x^k] f_v.  Truncating
at degree k makes one pass O(n k^2).  The benchmark uses this to check
every profile total; it shares no code with the enumerator it checks.
"""

from __future__ import annotations


def window_total(n: int, edges, k: int) -> int:
    """Number of connected k-vertex vertex sets of the tree (n, edges)."""
    if k < 1:
        raise ValueError(f"window size must be >= 1, got k={k}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    if len(order) != n:
        raise ValueError("edge list is not connected")
    # poly[v][j] counts windows with j + 1 vertices whose topmost vertex is v.
    poly: list = [None] * n
    total = 0
    for v in reversed(order):
        f = poly[v] or [1] + [0] * (k - 1)
        total += f[k - 1]
        poly[v] = None
        p = parent[v]
        if p < 0:
            continue
        g = poly[p] or [1] + [0] * (k - 1)
        # g *= (1 + x * f), truncated to k coefficients.
        for i in range(k - 1, 0, -1):
            acc = g[i]
            for j in range(i):
                if g[j]:
                    acc += g[j] * f[i - 1 - j]
            g[i] = acc
        poly[p] = g
    return total
