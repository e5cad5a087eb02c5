"""Command-line entry point.

Subcommands: enum (catalog listing), profile (window densities of one
tree), gen (tree family constructors), verify (the exact check suites),
region (figure data for the 5-profile plane), scan (sharper-fork-bound
experiment), inducibility (gluing-based density floors).

Settings come from flags alone: the global --max-k, --vertex-cap and
--precision, whose defaults live in treelab.config, and the --seed of
gen random.  No shell variable and no settings file is read, so a run
is a function of its argv and input files.

Machine-readable output goes to --out or standard output; diagnostics go
to standard error.  Exit codes: 0 success, 1 at least one verification
check failed, 2 usage or input error.  Exact rationals are emitted as
decimal strings alongside num/den forms so both CSV tooling and exact
consumers are served.  Every JSON payload is rendered by one writer,
_value_text, as the text json.dumps(..., indent=2) gives, and the tests
pin it to json.dumps of reference data.  gen writes a tree through
trees.tree_json_text.

Python's cyclic garbage collector is off while a subcommand runs, and
main restores the caller's setting on every way out.  A command builds
hundreds of thousands of edge tuples, adjacency lists and window states,
and the collector, run every few hundred allocations, walks the ones
still alive again and again: on a 167,548-vertex host, 655 young and 4
full collections took about a fifth of `profile`.  They free nothing:
treelab's objects hold no reference cycles, so reference counting frees
them all, and what a collection after a command finds unreachable is
argparse's parser, the same few hundred objects on any host (the tests
pin the count below 1,000).  This stays safe only while
no treelab structure refers back to itself, through a parent pointer, a
closure that captures its own container or a cache that holds its owner;
code that adds one must break the cycle itself or collect.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .catalog import enumerate_trees
from .census import VerificationReport, run_suite
from .config import (
    DEFAULT_DECIMAL_PRECISION,
    DEFAULT_FIGURE_D_MAX,
    DEFAULT_FIGURE_SAMPLES,
    DEFAULT_MAX_K,
    DEFAULT_SCAN_MAX_N,
    DEFAULT_SCHEDULE,
    DEFAULT_SEED,
    DEFAULT_VERIFY_MAX_N,
    DEFAULT_VERTEX_CAP,
    DEFAULT_WINDOW_SIZES,
)
from .counting import count_all, fraction_to_decimal
from .generators import (
    VertexCapError,
    check_vertex_cap,
    convex_glue,
    glue,
    glue_power,
    glue_power_size,
    glue_size,
    make_millipede,
    make_path,
    make_star,
    millipede_size,
    random_tree,
)
from .region import conjecture_scan, emit_figure_data, inducibility_lower_bound
from .trees import InvalidTreeError, load_tree, lowest_leaf, tree_json_text, tree_to_json


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# The one JSON writer of every command.  With indent set, json.dumps
# runs its pure-Python encoder, one chunk per token; this writes the same
# text directly, one string per value, and verify's thousands of reports
# are joined once.  The tests pin it to json.dumps(..., indent=2).
def _value_text(v, digits: int, pad: str) -> str:
    # v as JSON text; pad is the indentation of the line v starts on.
    if type(v) is int:
        return int.__repr__(v)
    if type(v) is bool:
        return "true" if v else "false"
    if isinstance(v, VerificationReport):
        return _report_text(v, digits, pad)
    inner = pad + "  "
    if isinstance(v, Fraction):
        return (f'{{\n{inner}"decimal": {_quote(fraction_to_decimal(v, digits))},\n'
                f'{inner}"exact": "{v.numerator}/{v.denominator}"\n{pad}}}')
    if isinstance(v, (tuple, list)):
        if not v:
            return "[]"
        items = f",\n{inner}".join(_value_text(x, digits, inner) for x in v)
        return f"[\n{inner}{items}\n{pad}]"
    if type(v) is str:
        return _quote(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = f",\n{inner}".join(f"{_quote(key)}: {_value_text(x, digits, inner)}"
                                    for key, x in v.items())
        return f"{{\n{inner}{items}\n{pad}}}"
    return json.dumps(v)


def _report_text(r: VerificationReport, digits: int, pad: str) -> str:
    # Keys in the order check, inputs, lhs, rhs, holds, slack, then
    # equality, note and parts when set.  Int and bool fields are inline.
    inner = pad + "  "
    a, b, c = r.lhs, r.rhs, r.slack
    fields = [
        f'"check": {_quote(r.check)}',
        f'"inputs": {_quote(r.inputs)}',
        f'"lhs": {int.__repr__(a) if type(a) is int else _value_text(a, digits, inner)}',
        f'"rhs": {int.__repr__(b) if type(b) is int else _value_text(b, digits, inner)}',
        f'"holds": {"true" if r.holds else "false"}',
        f'"slack": {int.__repr__(c) if type(c) is int else _value_text(c, digits, inner)}',
    ]
    if r.equality is not None:
        fields.append(f'"equality": {"true" if r.equality else "false"}')
    if r.note:
        fields.append(f'"note": {_quote(r.note)}')
    if r.parts:
        fields.append(f'"parts": {_value_text(r.parts, digits, inner)}')
    body = f",\n{inner}".join(fields)
    return f"{{\n{inner}{body}\n{pad}}}"


def _check_catalog_cap(k: int, what: str, max_k: int) -> None:
    # Every command checks its largest catalog before it builds anything.
    if k > max_k:
        raise ValueError(f"{what} exceeds the catalog cap --max-k {max_k}")


def _cmd_enum(args) -> int:
    _check_catalog_cap(args.k, f"enum --k {args.k}", args.max_k)
    catalog = enumerate_trees(args.k)
    payload = [tree_to_json(t) for t in catalog.entries]
    _write_output(_value_text(payload, args.decimal_precision, ""), args.out)
    return 0


def _cmd_profile(args) -> int:
    _check_catalog_cap(args.k, f"profile --k {args.k}", args.max_k)
    t = load_tree(args.tree)
    digits = args.decimal_precision
    record = count_all(t, args.k)
    pv = record.profile_vector(t.n)
    decimals = pv.decimals(digits)
    if args.format == "csv":
        lines = ["index,decimal,exact" + (",count" if args.counts else "")]
        for i, (c, dec) in enumerate(zip(pv.coords, decimals), start=1):
            row = f"{i},{dec},{c.numerator}/{c.denominator}"
            if args.counts:
                row += f",{record.per_type[i - 1]}"
            lines.append(row)
        _write_output("\n".join(lines), args.out)
    else:
        payload: dict = {
            "k": pv.k,
            "coords": decimals,
            "coords_exact": [f"{c.numerator}/{c.denominator}" for c in pv.coords],
            "total": record.total,
        }
        if args.counts:
            payload["per_type"] = record.per_type
        _write_output(_value_text(payload, digits, ""), args.out)
    return 0


def _cmd_gen(args) -> int:
    # Every family checks its projected size against the cap before building.
    cap = args.vertex_cap
    if args.family == "path":
        check_vertex_cap(args.n, cap, "gen path")
        t = make_path(args.n)
    elif args.family == "star":
        check_vertex_cap(args.n, cap, "gen star")
        t = make_star(args.n)
    elif args.family == "millipede":
        check_vertex_cap(millipede_size(args.d, args.length), cap, "gen millipede")
        t = make_millipede(args.d, args.length)
    elif args.family == "glue":
        a = load_tree(args.t)
        b = load_tree(args.s)
        check_vertex_cap(glue_size(a.n, b.n, args.k), cap, "gen glue")
        leaf_t = args.leaf_t if args.leaf_t is not None else lowest_leaf(a)
        leaf_s = args.leaf_s if args.leaf_s is not None else lowest_leaf(b)
        t = glue(a, b, args.k, leaf_t, leaf_s)
    elif args.family == "gluepower":
        a = load_tree(args.t)
        check_vertex_cap(glue_power_size(a.n, args.k, args.power), cap, "gen gluepower")
        t = glue_power(a, args.k, args.power)
    elif args.family == "convex":
        a = load_tree(args.t)
        b = load_tree(args.s)
        # The smallest result; convex_glue glues copies before its own check.
        check_vertex_cap(glue_size(a.n, b.n, args.k), cap, "gen convex")
        t = convex_glue(a, b, args.k, args.alpha, args.beta, vertex_cap=cap)
    else:
        check_vertex_cap(args.n, cap, "gen random")
        t = random_tree(args.n, args.seed)
    _write_output(tree_json_text(t), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "census" and args.k is not None:
        raise ValueError("verify --suite census has no window-bound checks for --k to restrict")
    _check_catalog_cap(args.max_n, f"verify --max-n {args.max_n}", args.max_k)
    ks = (args.k,) if args.k is not None else DEFAULT_WINDOW_SIZES
    if args.suite != "census":  # only the window-bound checks build k-catalogs
        _check_catalog_cap(max(ks), f"verify --k {max(ks)}", args.max_k)
    reports = run_suite(args.suite, args.max_n, ks)
    _write_output(_value_text(reports, args.decimal_precision, ""), args.report)
    failed = sum(1 for r in reports if not r.holds)
    print(f"{len(reports)} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_region(args) -> int:
    _write_output(emit_figure_data(args.d_max, args.samples, args.decimal_precision), args.out)
    return 0


def _cmd_scan(args) -> int:
    _check_catalog_cap(args.max_n, f"scan --max-n {args.max_n}", args.max_k)
    report = conjecture_scan(args.max_n)
    payload = {
        "max_value": report.max_value,
        "witness_code": report.witness_code,
        "witness": tree_to_json(report.witness),
        "examined": report.examined,
    }
    _write_output(_value_text(payload, args.decimal_precision, ""), args.out)
    return 0


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(
            f"--schedule wants comma-separated glue powers such as 1,2,4, got {text!r}"
        ) from None


def _cmd_inducibility(args) -> int:
    t = load_tree(args.tree)
    _check_catalog_cap(t.n, f"inducibility --tree with {t.n} vertices", args.max_k)
    schedule = DEFAULT_SCHEDULE if args.schedule is None else _parse_schedule(args.schedule)
    report = inducibility_lower_bound(t, schedule, args.vertex_cap)
    payload = {
        "k": report.k,
        "schedule": report.schedule,
        "sizes": report.sizes,
        "observed": report.observed,
        "certified": report.certified,
        "best_certified": report.best_certified,
    }
    _write_output(_value_text(payload, args.decimal_precision, ""), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Exact window profiles of trees: catalogs, counts, "
        "verification suites, and the 5-profile plane.",
    )
    parser.add_argument("--version", action="version", version=f"treelab {__version__}")
    parser.add_argument("--max-k", type=int, dest="max_k", default=DEFAULT_MAX_K,
                        help="catalog size cap (default %(default)s)")
    parser.add_argument("--vertex-cap", type=int, dest="vertex_cap", default=DEFAULT_VERTEX_CAP,
                        help="vertex budget for constructions (default %(default)s)")
    parser.add_argument("--precision", type=int, dest="decimal_precision",
                        default=DEFAULT_DECIMAL_PRECISION,
                        help="significant digits for decimal output (default %(default)s)")
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
    g = gensub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    for g in gensub.choices.values():
        g.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument("--suite", choices=("census", "lemmas", "all"), default="all")
    p.add_argument("--max-n", type=int, dest="max_n", default=DEFAULT_VERIFY_MAX_N)
    p.add_argument("--k", type=int, help="restrict window-bound checks to one k "
                   f"(default {' and '.join(map(str, DEFAULT_WINDOW_SIZES))})")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("region", help="emit the 5-profile plane figure data as CSV")
    p.add_argument("--d-max", type=int, dest="d_max", default=DEFAULT_FIGURE_D_MAX)
    p.add_argument("--samples", type=int, default=DEFAULT_FIGURE_SAMPLES)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("scan", help="search for large Y - 9S - P values")
    p.add_argument("--max-n", type=int, dest="max_n", default=DEFAULT_SCAN_MAX_N)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("inducibility", help="gluing-based density floor for a pattern tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--schedule", help="comma-separated glue powers "
                   f"(default {','.join(map(str, DEFAULT_SCHEDULE))})")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_inducibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.decimal_precision < 1:
            raise ValueError(f"precision must be >= 1, got {args.decimal_precision}")
        return args.fn(args)
    except (InvalidTreeError, VertexCapError, ValueError, OSError) as e:
        print(f"treelab: error: {e}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
