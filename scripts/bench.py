#!/usr/bin/env python3
"""Time treelab layer by layer and record the medians in a BENCH JSON file.

Each --run LABEL=PATH names a checkout to time.  Each case runs 11 times
per checkout, every run in a fresh interpreter against that checkout's
src: the run builds its inputs untimed, then times one call with
time.perf_counter.  The samples of one case are interleaved: each repeat
takes one sample per checkout, and the checkout that goes first rotates
from repeat to repeat, so drift of the machine during a case falls on
every checkout alike.  The medians, the quartiles and every sample go
into the output file under each label, beside the checkout's git SHA,
whether its src differs from that commit and the sha256 of `git diff
HEAD -- src` (of the empty string when src is clean; untracked files are
not in it), the Python version and nproc; other labels already in the
file are kept.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH.json --run parent=../parent --run change=.

Cases:
  load_convex_host    load_tree of the 167,548-vertex `gen convex` host
                      (40-vertex path and star, k = 5, 1:2, cap 250,000):
                      read, parse and validate
  count_all_k5_convex count_all(host, 5) on that host, loaded from its file
  count_all_k8_random count_all(host, 8) on random_tree(20000, 1), loaded
                      from its file
  count_all_k4_random_100000
                      count_all(host, 4) on random_tree(100000, 1), loaded
                      from its file: a host whose child-state keys rarely
                      repeat, so the DP's bounded memo misses often
  convex_glue         building that convex host in memory
  run_suite_all_12    run_suite("all", 12), catalogs built cold
  catalog_cold_12     enumerate_trees(n) and its max-degree-3 filter for
                      n = 1..12, built cold
  catalog_cold_14     enumerate_trees(14), built cold: the 3,159 classes on
                      14 vertices and every smaller catalog they extend
  verify_cli_12       cli.main for `verify --max-n 12 --report os.devnull`:
                      catalogs, checks and report rendering
  render_verify_12    the same call with run_suite replaced by the 5,323
                      reports of run_suite("all", 12), computed untimed:
                      report rendering and the write alone
  count_all_k8_gluepower
                      count_all(host, 8) on glue_power(PATTERN, 8, 4096), a
                      61,433-vertex chain of one 8-vertex pattern with
                      degrees 4,2,2,2,1,1,1,1, built in memory
  glue_power_4096     building that chain, glue_power(PATTERN, 8, 4096)
  enum_cli_12         cli.main for `enum --k 12 --out os.devnull`: the 551
                      trees of the 12-vertex catalog, built cold, and the
                      JSON write
  inducibility_cli    cli.main for `inducibility` on that pattern, read from
                      its file, with schedule 1,4,...,4096 and --out
                      os.devnull: copy-type counts of each glue power, which
                      is not built, and rendering
  gen_convex_cli      cli.main for the `gen convex` that builds the convex
                      host from the path and star, read from their files,
                      with --out os.devnull: load, build and the JSON write
  profile_convex_cli  cli.main for `profile --k 5` on the convex host, read
                      from its file, with --out os.devnull: load, count and
                      render
  scan_cli            cli.main for `scan --out os.devnull` with its default
                      --max-n: the catalogs for n = 2..11, built cold, and
                      Y - 9S - P on each of their trees
  z_total_k8_random   count_connected_subsets(host, 8) on random_tree(20000,
                      1), loaded from its file: the window total alone
  z_total_k5_convex   count_connected_subsets(host, 5) on the convex host,
                      loaded from its file: a host whose repeated local
                      shapes the size polynomial does not share
  canonical_code_path_20000
                      adjacency_code of a 20,000-vertex path, its checked
                      walk's adjacency lists built untimed: the shape whose
                      subtree codes, joined at every vertex, are longest
                      for its size
  public_checks_in_memory
                      check_PY_identity, check_Y_P4, check_Y_36S,
                      projection_point and check_region_shadow on each of
                      2,000 random_tree_bounded_degree(60, 3, rng) trees,
                      built in memory: public checks on trees no file or
                      catalog handed over
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPEAT = 11

CONVEX = "convex_glue(make_path(40), make_star(40), 5, 1, 2, vertex_cap=250_000)"

# name -> (setup, timed statement); HOST, RANDOM, RANDOM_BIG, PATTERN_FILE,
# PATH_FILE and STAR_FILE are input file paths.
CASES = {
    "load_convex_host": ("", "load_tree(HOST)"),
    "count_all_k5_convex": ("t = load_tree(HOST)", "count_all(t, 5)"),
    "count_all_k8_random": ("t = load_tree(RANDOM)", "count_all(t, 8)"),
    "count_all_k4_random_100000": ("t = load_tree(RANDOM_BIG)", "count_all(t, 4)"),
    "convex_glue": ("", CONVEX),
    "run_suite_all_12": ("", 'run_suite("all", 12)'),
    "catalog_cold_12": ("", "[(enumerate_trees(n), enumerate_trees_bounded_degree(n, 3))"
                            " for n in range(1, 13)]"),
    "catalog_cold_14": ("", "enumerate_trees(14)"),
    "verify_cli_12": ("", 'cli.main(["verify", "--max-n", "12", "--report", os.devnull])'),
    "render_verify_12": ('reports = run_suite("all", 12); cli.run_suite = lambda *a: reports',
                         'cli.main(["verify", "--max-n", "12", "--report", os.devnull])'),
    "count_all_k8_gluepower": ("t = glue_power(PATTERN, 8, 4096)", "count_all(t, 8)"),
    "glue_power_4096": ("", "glue_power(PATTERN, 8, 4096)"),
    "enum_cli_12": ("", 'cli.main(["enum", "--k", "12", "--out", os.devnull])'),
    "inducibility_cli": ("", 'cli.main(["inducibility", "--tree", PATTERN_FILE, "--schedule",'
                             ' "1,4,16,64,256,1024,4096", "--out", os.devnull])'),
    "gen_convex_cli": ("", 'cli.main(["--vertex-cap", "250000", "gen", "convex", "--t", PATH_FILE,'
                           ' "--s", STAR_FILE, "--k", "5", "--alpha", "1", "--beta", "2",'
                           ' "--out", os.devnull])'),
    "profile_convex_cli": ("", 'cli.main(["profile", "--tree", HOST, "--k", "5", "--out", os.devnull])'),
    "scan_cli": ("", 'cli.main(["scan", "--out", os.devnull])'),
    "z_total_k8_random": ("t = load_tree(RANDOM)", "count_connected_subsets(t, 8)"),
    "z_total_k5_convex": ("t = load_tree(HOST)", "count_connected_subsets(t, 5)"),
    "canonical_code_path_20000": ("adj = checked_walk(make_path(20000)).adj", "adjacency_code(adj)"),
    "public_checks_in_memory": ("rng = random.Random(0)\n"
                                "ts = [random_tree_bounded_degree(60, 3, rng) for _ in range(2000)]",
                                "[f(t) for t in ts for f in (check_PY_identity, check_Y_P4, check_Y_36S,"
                                " projection_point, check_region_shadow)]"),
}

PRELUDE = """\
import os, random, sys, time
sys.path.insert(0, {src!r})
from treelab import cli, count_all, convex_glue, glue_power, make_path, make_star, random_tree, run_suite
from treelab import (check_PY_identity, check_region_shadow, check_Y_36S, check_Y_P4, projection_point,
                     random_tree_bounded_degree)
from treelab.catalog import enumerate_trees, enumerate_trees_bounded_degree
from treelab.counting import count_connected_subsets
from treelab.trees import adjacency_code, checked_walk, dump_tree, load_tree, make_tree
HOST, RANDOM, RANDOM_BIG, PATTERN_FILE = {host!r}, {random!r}, {random_big!r}, {pattern!r}
PATH_FILE, STAR_FILE = {path!r}, {star!r}
PATTERN = make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)))
"""


def run_child(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if done.returncode != 0:
        raise SystemExit(f"bench: a child run failed:\n{done.stderr}")
    return done.stdout


def time_case(prelude: str, setup: str, stmt: str) -> float:
    code = (f"{prelude}{setup}\nt0 = time.perf_counter()\n_ = {stmt}\n"
            "print(time.perf_counter() - t0)\n")
    return float(run_child(code))


def git_state(src: Path) -> dict:
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        raise SystemExit(f"bench: {src} is not a git checkout")
    modified = git("status", "--porcelain", "--", "src").stdout.strip() != ""
    diff = git("diff", "HEAD", "--", "src").stdout
    return {"sha": head.stdout.strip(), "src_modified": modified,
            "src_diff_sha256": hashlib.sha256(diff.encode()).hexdigest()}


def parse_runs(ap: argparse.ArgumentParser, specs: list[str]) -> dict[str, Path]:
    runs: dict[str, Path] = {}
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not (sep and label and path):
            ap.error(f"--run wants LABEL=PATH, got {spec!r}")
        if label in runs:
            ap.error(f"--run label {label!r} given twice")
        runs[label] = Path(path).resolve()
    return runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH JSON file to create or update")
    ap.add_argument("--run", action="append", required=True, metavar="LABEL=PATH",
                    help="time the checkout at PATH under LABEL, e.g. parent=../parent; repeatable")
    args = ap.parse_args()
    runs = parse_runs(ap, args.run)
    labels = list(runs)
    entries = {label: {**git_state(checkout), "python": platform.python_version(),
                       "nproc": os.cpu_count(), "repeat": REPEAT, "median_s": {},
                       "quartiles_s": {}, "samples_s": {}}
               for label, checkout in runs.items()}
    with tempfile.TemporaryDirectory() as work:
        preludes = {}
        for i, (label, checkout) in enumerate(runs.items()):
            preludes[label] = PRELUDE.format(src=str(checkout / "src"), host=f"{work}/convex{i}.json",
                                             random=f"{work}/random{i}.json",
                                             random_big=f"{work}/random_big{i}.json",
                                             pattern=f"{work}/pattern{i}.json",
                                             path=f"{work}/path{i}.json", star=f"{work}/star{i}.json")
            run_child(f"{preludes[label]}dump_tree({CONVEX}, HOST)\n"
                      "dump_tree(random_tree(20000, 1), RANDOM)\n"
                      "dump_tree(random_tree(100000, 1), RANDOM_BIG)\n"
                      "dump_tree(PATTERN, PATTERN_FILE)\n"
                      "dump_tree(make_path(40), PATH_FILE)\n"
                      "dump_tree(make_star(40), STAR_FILE)\n")
        for name, (setup, stmt) in CASES.items():
            samples: dict[str, list[float]] = {label: [] for label in labels}
            for r in range(REPEAT):
                first = r % len(labels)
                for label in labels[first:] + labels[:first]:
                    samples[label].append(time_case(preludes[label], setup, stmt))
            for label in labels:
                median = round(statistics.median(samples[label]), 4)
                entries[label]["median_s"][name] = median
                q1, _, q3 = statistics.quantiles(samples[label], n=4)
                entries[label]["quartiles_s"][name] = [round(q1, 4), round(q3, 4)]
                entries[label]["samples_s"][name] = [round(x, 4) for x in samples[label]]
                print(f"{label:>8} {name:22} median {median:.4f} s", flush=True)
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["cases"] = {name: stmt for name, (_, stmt) in CASES.items()}
    data.setdefault("runs", {}).update(entries)
    out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
