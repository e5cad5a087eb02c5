"""Command-line entry point.

Subcommands: enum (catalog listing), profile (window densities of one
tree), gen (tree family constructors), verify (the exact check suites),
region (figure data for the 5-profile plane), scan (sharper-fork-bound
experiment), inducibility (gluing-based density floors).

Machine-readable output goes to --out or standard output; diagnostics go
to standard error.  Exit codes: 0 success, 1 at least one verification
check failed, 2 usage or input error.  Exact rationals are emitted as
decimal strings alongside num/den forms so both CSV tooling and exact
consumers are served.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .catalog import enumerate_trees
from .census import VerificationReport, run_suite
from .config import Config, resolve_config
from .counting import count_all, fraction_to_decimal
from .generators import (
    VertexCapError,
    convex_glue,
    glue,
    glue_power,
    make_millipede,
    make_path,
    make_star,
    random_tree,
)
from .region import conjecture_scan, emit_figure_data, inducibility_lower_bound
from .trees import InvalidTreeError, load_tree, lowest_leaf, tree_to_json


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _jsonify_value(v, digits: int):
    if isinstance(v, Fraction):
        return {
            "decimal": fraction_to_decimal(v, digits),
            "exact": f"{v.numerator}/{v.denominator}",
        }
    if isinstance(v, tuple):
        return [_jsonify_value(x, digits) for x in v]
    return v


def _jsonify_report(r: VerificationReport, digits: int) -> dict:
    out: dict = {
        "check": r.check,
        "inputs": r.inputs,
        "lhs": _jsonify_value(r.lhs, digits),
        "rhs": _jsonify_value(r.rhs, digits),
        "holds": r.holds,
        "slack": _jsonify_value(r.slack, digits),
    }
    if r.equality is not None:
        out["equality"] = r.equality
    if r.note:
        out["note"] = r.note
    if r.parts:
        out["parts"] = [_jsonify_report(p, digits) for p in r.parts]
    return out


def _cmd_enum(args, cfg: Config) -> int:
    catalog = enumerate_trees(args.k, cfg.max_k)
    payload = [tree_to_json(t) for t in catalog.entries]
    _write_output(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_profile(args, cfg: Config) -> int:
    t = load_tree(args.tree)
    digits = cfg.decimal_precision
    record = count_all(t, args.k, cfg.max_k)
    pv = record.profile_vector(t.n)
    if args.format == "csv":
        lines = ["index,decimal,exact" + (",count" if args.counts else "")]
        for i, c in enumerate(pv.coords, start=1):
            row = f"{i},{fraction_to_decimal(c, digits)},{c.numerator}/{c.denominator}"
            if args.counts:
                row += f",{record.per_type[i - 1]}"
            lines.append(row)
        _write_output("\n".join(lines), args.out)
    else:
        payload: dict = {
            "k": pv.k,
            "coords": [fraction_to_decimal(c, digits) for c in pv.coords],
            "coords_exact": [f"{c.numerator}/{c.denominator}" for c in pv.coords],
            "total": record.total,
        }
        if args.counts:
            payload["per_type"] = list(record.per_type)
        _write_output(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_gen(args, cfg: Config) -> int:
    if args.family == "path":
        t = make_path(args.n)
    elif args.family == "star":
        t = make_star(args.n)
    elif args.family == "millipede":
        t = make_millipede(args.d, args.length)
    elif args.family == "glue":
        a = load_tree(args.t)
        b = load_tree(args.s)
        leaf_t = args.leaf_t if args.leaf_t is not None else lowest_leaf(a)
        leaf_s = args.leaf_s if args.leaf_s is not None else lowest_leaf(b)
        t = glue(a, b, args.k, leaf_t, leaf_s)
    elif args.family == "gluepower":
        t = glue_power(load_tree(args.t), args.k, args.power, vertex_cap=cfg.vertex_cap)
    elif args.family == "convex":
        t = convex_glue(
            load_tree(args.t), load_tree(args.s), args.k, args.alpha, args.beta,
            vertex_cap=cfg.vertex_cap, nominal=args.nominal,
        )
    else:
        seed = args.local_seed if args.local_seed is not None else cfg.seed
        t = random_tree(args.n, seed)
    _write_output(json.dumps(tree_to_json(t)), args.out)
    return 0


def _cmd_verify(args, cfg: Config) -> int:
    ks = (args.k,) if args.k is not None else (5, 6)
    reports = run_suite(args.suite, args.max_n, ks)
    payload = [_jsonify_report(r, cfg.decimal_precision) for r in reports]
    _write_output(json.dumps(payload, indent=2), args.report)
    failed = sum(1 for r in reports if not r.holds)
    print(f"{len(reports)} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_region(args, cfg: Config) -> int:
    if args.out is None:
        emit_figure_data(args.d_max, sys.stdout, args.samples, cfg.decimal_precision)
    else:
        emit_figure_data(args.d_max, args.out, args.samples, cfg.decimal_precision)
    return 0


def _cmd_scan(args, cfg: Config) -> int:
    seed = args.local_seed if args.local_seed is not None else cfg.seed
    report = conjecture_scan(args.max_n, seed, args.budget)
    payload = {
        "max_value": report.max_value,
        "witness_code": report.witness_code,
        "witness": tree_to_json(report.witness),
        "examined": report.examined,
        "seed": seed,
    }
    _write_output(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_inducibility(args, cfg: Config) -> int:
    t = load_tree(args.tree)
    schedule = tuple(int(x) for x in args.schedule.split(",")) if args.schedule else (1, 2, 4, 8, 16)
    report = inducibility_lower_bound(t, schedule, cfg.vertex_cap)
    digits = cfg.decimal_precision
    payload = {
        "k": report.k,
        "schedule": list(report.schedule),
        "sizes": list(report.sizes),
        "observed": [_jsonify_value(x, digits) for x in report.observed],
        "certified": [_jsonify_value(x, digits) for x in report.certified],
        "best_certified": _jsonify_value(report.best_certified, digits),
    }
    _write_output(json.dumps(payload, indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Exact window profiles of trees: catalogs, counts, "
        "verification suites, and the 5-profile plane.",
    )
    parser.add_argument("--version", action="version", version=f"treelab {__version__}")
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument("--max-k", type=int, dest="max_k", help="catalog size cap (default 12)")
    parser.add_argument("--vertex-cap", type=int, dest="vertex_cap",
                        help="vertex budget for constructions (default 1000000)")
    parser.add_argument("--precision", type=int, dest="decimal_precision",
                        help="significant digits for decimal output (default 12)")
    parser.add_argument("--seed", type=int, help="global random seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list all k-vertex tree shapes in catalog order")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("profile", help="window densities of one tree")
    p.add_argument("--tree", required=True, help="tree file (JSON or parent list)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--counts", action="store_true", help="include raw window counts")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("gen", help="construct a tree and write it as JSON")
    gensub = p.add_subparsers(dest="family", required=True)
    g = gensub.add_parser("path")
    g.add_argument("--n", type=int, required=True)
    g = gensub.add_parser("star")
    g.add_argument("--n", type=int, required=True)
    g = gensub.add_parser("millipede")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--length", type=int, required=True)
    g = gensub.add_parser("glue")
    g.add_argument("--t", required=True, help="left tree file")
    g.add_argument("--s", required=True, help="right tree file")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--leaf-t", type=int, dest="leaf_t", help="left attachment leaf (default: lowest)")
    g.add_argument("--leaf-s", type=int, dest="leaf_s", help="right attachment leaf (default: lowest)")
    g = gensub.add_parser("gluepower")
    g.add_argument("--t", required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--power", type=int, required=True)
    g = gensub.add_parser("convex")
    g.add_argument("--t", required=True)
    g.add_argument("--s", required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--alpha", type=int, required=True)
    g.add_argument("--beta", type=int, required=True)
    g.add_argument("--nominal", action="store_true",
                   help="use plain window-total multiplicities instead of junction-aware ones")
    g = gensub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, dest="local_seed")
    for g in gensub.choices.values():
        g.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument("--suite", choices=("census", "lemmas", "all"), default="all")
    p.add_argument("--max-n", type=int, dest="max_n", default=11)
    p.add_argument("--k", type=int, help="restrict window-bound checks to one k (default 5 and 6)")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("region", help="emit the 5-profile plane figure data as CSV")
    p.add_argument("--d-max", type=int, dest="d_max", default=8)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("scan", help="search for large Y - 9S - P values")
    p.add_argument("--max-n", type=int, dest="max_n", default=10)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, dest="local_seed")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("inducibility", help="gluing-based density floor for a pattern tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--schedule", help="comma-separated glue powers (default 1,2,4,8,16)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_inducibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {
        "max_k": args.max_k,
        "vertex_cap": args.vertex_cap,
        "decimal_precision": args.decimal_precision,
        "seed": args.seed,
    }
    try:
        cfg = resolve_config(flags, config_path=args.config)
        return args.fn(args, cfg)
    except (InvalidTreeError, VertexCapError, ValueError, OSError) as e:
        print(f"treelab: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
