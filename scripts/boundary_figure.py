#!/usr/bin/env python3
"""Emit the 5-profile plane figure data, with finite-tree overlays.

Produces the CSV consumed by any plotting frontend: the boundary line
(red), the inner polygon through the millipede limit points (blue), the
limit points themselves (m), and optionally a fourth series (finite) of
actual projections of d-millipedes at several finite lengths, so the
drift toward each limit point is visible in the same axes.

Usage: boundary_figure.py --out figure.csv [--d-max D] [--samples N]
       [--finite-lengths 5,10,20]

--d-max and --samples default to those of `treelab region`, whose CSV
this script's output begins with.
"""

from __future__ import annotations

import argparse
import sys

from treelab.config import (
    DEFAULT_DECIMAL_PRECISION,
    DEFAULT_FIGURE_D_MAX,
    DEFAULT_FIGURE_SAMPLES,
)
from treelab.generators import make_millipede
from treelab.region import emit_figure_data, figure_row, projection_point


def finite_lengths(text: str) -> list[int]:
    """The spine lengths listed in --finite-lengths, empty entries skipped.
    Each must be an integer of at least 3: the d = 0 millipede of length L
    is a path on L + 2 vertices, which needs 5 to have a 5-vertex window."""
    lengths = []
    for entry in filter(None, text.split(",")):
        try:
            length = int(entry)
        except ValueError:
            raise ValueError(f"--finite-lengths entry {entry!r} is not an integer") from None
        if length < 3:
            raise ValueError(f"--finite-lengths entry {entry!r} is below 3, so its d = 0 "
                             "millipede has no 5-vertex window")
        lengths.append(length)
    return lengths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="target CSV path (default: stdout)")
    ap.add_argument("--d-max", type=int, default=DEFAULT_FIGURE_D_MAX)
    ap.add_argument("--samples", type=int, default=DEFAULT_FIGURE_SAMPLES)
    ap.add_argument("--precision", type=int, default=DEFAULT_DECIMAL_PRECISION)
    ap.add_argument("--finite-lengths", default="5,10,20",
                    help="millipede lengths (each >= 3) for the finite overlay; empty to skip")
    args = ap.parse_args()

    # Every row is rendered before anything is written, so a bad option
    # leaves no partial output: one line on stderr and exit status 2.
    try:
        lengths = finite_lengths(args.finite_lengths)
        parts = [emit_figure_data(args.d_max, args.samples, args.precision)]
        for d in range(0, args.d_max + 1):
            for length in lengths:
                p = projection_point(make_millipede(d, length))
                parts.append(figure_row("finite", f"d{d}L{length}", p, args.precision))
    except ValueError as e:
        print(f"{ap.prog}: error: {e}", file=sys.stderr)
        return 2
    text = "".join(parts)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
