#!/usr/bin/env python3
"""Count isomorphism classes of k-vertex trees by brute force.

Decodes every Prufer sequence of length k-2 over k labels (Cayley: k^(k-2)
labeled trees) with treelab.generators.prufer_to_tree, and counts distinct
treelab.trees.canonical_code values.  This is the slow cross-check for the
catalog enumerator, which builds shapes by leaf extension instead; the
counts it produces are frozen into the test suite.  Runtime grows like
k^(k-2): k = 8 takes seconds, k = 9 minutes, k = 10 the better part of an
hour on one core.

Usage: count_trees_bruteforce.py --k 8 [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product

from treelab.generators import prufer_to_tree
from treelab.trees import canonical_code


def count_classes(k, report_every=5_000_000):
    if k == 1 or k == 2:
        return 1
    seen = set()
    total = k ** (k - 2)
    t0 = time.time()
    for i, seq in enumerate(product(range(k), repeat=k - 2)):
        seen.add(canonical_code(prufer_to_tree(seq, k)))
        if report_every and (i + 1) % report_every == 0:
            rate = (i + 1) / (time.time() - t0)
            eta = (total - i - 1) / rate
            print(
                f"  {i + 1}/{total} sequences, {len(seen)} classes, "
                f"{rate:,.0f}/s, eta {eta / 60:.1f} min",
                file=sys.stderr,
                flush=True,
            )
    return len(seen)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, required=True, help="number of vertices")
    ap.add_argument("--json", help="append {k: count} to this JSON file")
    args = ap.parse_args()

    t0 = time.time()
    count = count_classes(args.k)
    dt = time.time() - t0
    print(f"k={args.k}: {count} isomorphism classes ({dt:.1f} s)")

    if args.json:
        try:
            with open(args.json) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
        data[str(args.k)] = count
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
