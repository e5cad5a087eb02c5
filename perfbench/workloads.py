"""The benchmark's workloads: sessions of treelab commands and their output checks.

Each workload is one session, a fixed sequence of commands, repeated in a
closed loop by one client.  Every command has a check that reads its
output and returns the failures it found plus the work the output
reports (checks or windows); the runner adds the exit code and the
byte-identity of outputs across sessions.

- verify-corpus: `verify --suite all --max-n 12`.  Many tiny hosts: a cold
  catalog build to 12, a canonical code per host, the census, the fast
  counters and JSON rendering of 5,323 reports.  Enumeration is about a
  third of it; parsing is negligible.
- profile-dense: `profile --counts --k 8` on a random host of 20,000
  vertices with about 54 windows per vertex, then `inducibility` on a
  random 8-vertex pattern up to glue power 4096.  Window enumeration
  dominates; parsing is small.
- glue-host: `gen convex` on 40-vertex path and star patterns writes a
  host of 167,548 vertices, then `profile --k 5` reads it.  Few windows
  per vertex, so generation, the JSON write, the JSON read and
  validation weigh as much as counting.

Inputs come from the seed through Pruefer decoding in inputs.py, never
from the program's own generators.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from inputs import banded_tree, canonical_labels, relabelled, tree_with_degrees, write_tree
from oracle import window_total

VERIFY_CHECKS = 5323
DENSE_N = 20_000
DENSE_K = 8
# Z_8 band for the dense host: random trees of 20,000 vertices spread by
# several percent in their window totals, so the host is drawn until its
# total lies here and every seed asks for the same work.
DENSE_BAND = (1_020_000, 1_040_000)
# Patterns with this degree sequence (three shapes) have 3.6 to 3.8
# windows per vertex in their glue powers; the other 8-vertex shapes
# range from 1 to 23.  The drawn pattern is relabelled canonically from
# its degree-4 vertex, so the seed picks the shape and not the labels.
PATTERN_DEGREES = [4, 2, 2, 2, 1, 1, 1, 1]
SCHEDULE = (1, 4, 16, 64, 256, 1024, 4096)
GLUE_CAP = 250_000
GLUE_PATTERN_N = 40
GLUE_K = 5
# The convex gluing of a 40-vertex path and star has one shape whatever
# their labels, so its size and window total are fixed.
GLUE_N = 167_548
GLUE_WINDOWS = 334_192

Check = Callable[[bytes], "tuple[list[str], int]"]


@dataclass
class Command:
    """One CLI call: its arguments after the program name and its output check."""

    name: str
    argv: list[str]
    check: Check
    out: Path | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    rate_command: int
    rate_name: str
    inputs: dict = field(default_factory=dict)


def check_verify(stdout: bytes) -> tuple[list[str], int]:
    reports = json.loads(stdout)
    failures = []
    if len(reports) != VERIFY_CHECKS:
        failures.append(f"{len(reports)} reports, expected {VERIFY_CHECKS}")
    broken = sum(1 for r in reports if r.get("holds") is not True)
    if broken:
        failures.append(f"{broken} reports do not hold")
    return failures, len(reports)


def profile_check(k: int, expected_total: int, counts: bool) -> Check:
    """Check a profile payload against the oracle's window total."""

    def check(stdout: bytes) -> tuple[list[str], int]:
        payload = json.loads(stdout)
        failures = []
        total = payload.get("total")
        if payload.get("k") != k:
            failures.append(f"k is {payload.get('k')}, expected {k}")
        if total != expected_total:
            failures.append(f"total {total} differs from the oracle's Z_{k} {expected_total}")
        coords = [Fraction(c) for c in payload.get("coords_exact", [])]
        if sum(coords) != 1:
            failures.append(f"coordinates sum to {sum(coords)}, not 1")
        if counts:
            per_type = payload.get("per_type", [])
            if sum(per_type) != total:
                failures.append(f"per_type sums to {sum(per_type)}, not total {total}")
            if len(per_type) != len(coords) or any(
                Fraction(c, total) != x for c, x in zip(per_type, coords)
            ):
                failures.append("coordinates differ from per_type / total")
        return failures, total if isinstance(total, int) else 0

    return check


def inducibility_check(n: int, k: int, schedule: tuple[int, ...]) -> Check:
    expected_sizes = [p * n + (p - 1) * (k - 1) for p in schedule]

    def check(stdout: bytes) -> tuple[list[str], int]:
        payload = json.loads(stdout)
        failures = []
        if payload.get("k") != k:
            failures.append(f"k is {payload.get('k')}, expected {k}")
        if payload.get("schedule") != list(schedule):
            failures.append(f"schedule is {payload.get('schedule')}, expected {list(schedule)}")
        if payload.get("sizes") != expected_sizes:
            failures.append(f"sizes are {payload.get('sizes')}, expected {expected_sizes}")
        for key in ("observed", "certified"):
            if len(payload.get(key, [])) != len(schedule):
                failures.append(f"{key} has {len(payload.get(key, []))} entries")
        return failures, sum(expected_sizes)

    return check


def host_problems(data: bytes, n: int = GLUE_N, windows: int = GLUE_WINDOWS) -> list[str]:
    """Why data is not tree JSON with n vertices and Z_GLUE_K = windows."""
    obj = json.loads(data)
    edges = obj.get("edges")
    if obj.get("n") != n:
        return [f"host has {obj.get('n')!r} vertices, expected {n}"]
    if not isinstance(edges, list) or len(edges) != n - 1:
        return [f"host does not have {n - 1} edges"]
    if any(not (0 <= u < n and 0 <= v < n) for u, v in edges):
        return ["host edge endpoint out of range"]
    try:
        total = window_total(n, edges, GLUE_K)
    except ValueError:
        return ["host edges do not connect its vertices"]
    if total != windows:
        return [f"host has Z_{GLUE_K} {total}, expected {windows}"]
    return []


def verify_corpus(seed: int, work: Path) -> Workload:
    # The corpus is every tree up to 12 vertices; there is nothing to draw.
    argv = ["verify", "--suite", "all", "--max-n", "12"]
    return Workload("verify-corpus", [Command("verify", argv, check_verify)], 0, "checks_per_s")


def profile_dense(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    edges, total = banded_tree(DENSE_N, DENSE_K, *DENSE_BAND, rng)
    host = work / "dense-host.json"
    write_tree(host, DENSE_N, edges)
    pattern = work / "pattern.json"
    k = len(PATTERN_DEGREES)
    drawn = tree_with_degrees(PATTERN_DEGREES, rng)
    hub = max(range(k), key=lambda v: sum(v in e for e in drawn))
    write_tree(pattern, k, canonical_labels(k, drawn, hub))
    schedule = ",".join(str(p) for p in SCHEDULE)
    commands = [
        Command("profile", ["profile", "--tree", str(host), "--k", str(DENSE_K), "--counts"],
                profile_check(DENSE_K, total, counts=True)),
        Command("inducibility", ["inducibility", "--tree", str(pattern), "--schedule", schedule],
                inducibility_check(k, k, SCHEDULE)),
    ]
    return Workload("profile-dense", commands, 0, "windows_per_s", {"host_windows": total})


def glue_host(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    n = GLUE_PATTERN_N
    path_file, star_file = work / "path40.json", work / "star40.json"
    write_tree(path_file, n, relabelled(n, [(i, i + 1) for i in range(n - 1)], rng))
    write_tree(star_file, n, relabelled(n, [(0, i) for i in range(1, n)], rng))
    host = work / "glue-host.json"
    # The host is checked once; the runner holds later sessions' hosts to
    # be byte-identical to the first.
    first_check: list[list[str]] = []

    def check_host(stdout: bytes) -> tuple[list[str], int]:
        if not first_check:
            first_check.append(host_problems(host.read_bytes()))
        return first_check[0], GLUE_N

    gen = ["--vertex-cap", str(GLUE_CAP), "gen", "convex", "--t", str(path_file),
           "--s", str(star_file), "--k", str(GLUE_K), "--alpha", "1", "--beta", "2",
           "--out", str(host)]
    commands = [
        Command("gen-convex", gen, check_host, out=host),
        Command("profile", ["profile", "--tree", str(host), "--k", str(GLUE_K)],
                profile_check(GLUE_K, GLUE_WINDOWS, counts=False)),
    ]
    return Workload("glue-host", commands, 1, "windows_per_s")


WORKLOADS = {w.__name__.replace("_", "-"): w for w in (verify_corpus, profile_dense, glue_host)}
