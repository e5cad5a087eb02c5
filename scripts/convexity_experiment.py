#!/usr/bin/env python3
"""Watch the path/star mixture profile converge.

For growing base size L, builds the balanced gluing of a path on L
vertices with a star on L vertices (window size k = 5, weights a : b-a)
and reports how far the resulting 5-profile sits from the ideal mixture
a/b * path + (b-a)/b * star, in the max-coordinate metric.  The error
should shrink roughly like 1/L until the vertex cap bites.

Usage: convexity_experiment.py [--sizes 10,20,40,80] [--alpha 1 --beta 2]
       [--vertex-cap 1000000]
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from treelab.config import DEFAULT_VERTEX_CAP
from treelab.counting import fraction_to_decimal, profile
from treelab.generators import VertexCapError, convex_glue, make_path, make_star


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,20,40,80",
                    help="comma-separated base sizes L")
    ap.add_argument("--alpha", type=int, default=1)
    ap.add_argument("--beta", type=int, default=2)
    ap.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    args = ap.parse_args()

    a, b = args.alpha, args.beta
    target = (
        Fraction(a, b),
        Fraction(b - a, b),
        Fraction(0),
    )
    print(f"target profile: ({', '.join(str(x) for x in target)})")
    print("L,host_size,err_max,err_decimal,seconds")
    for raw in args.sizes.split(","):
        scale = int(raw)
        t0 = time.time()
        try:
            host = convex_glue(make_path(scale), make_star(scale), 5,
                               a, b, vertex_cap=args.vertex_cap)
        except VertexCapError as e:
            print(f"{scale}: skipped, {e}", file=sys.stderr)
            continue
        coords = profile(host, 5).coords
        err = max(abs(c - w) for c, w in zip(coords, target))
        dt = time.time() - t0
        print(f"{scale},{host.n},{err.numerator}/{err.denominator},"
              f"{fraction_to_decimal(err, 6)},{dt:.1f}")


if __name__ == "__main__":
    main()
