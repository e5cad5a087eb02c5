"""End-to-end acceptance gate.

Twelve numbered criteria, one test and one printed pass/fail line each.
Expected values here are either re-derived in place by an independent
method or were frozen from oracle runs recorded alongside the project
notes; none are guessed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import treelab
from conftest import jsonify_report, naive_window_census, prufer_class_count
from treelab.catalog import (
    catalog_count,
    enumerate_trees,
    enumerate_trees_bounded_degree,
)
from treelab.census import (
    PY_IDENTITY_EXCEPTIONS,
    _describe,
    _leaf_balance,
    _P_formula,
    _PY_identity,
    _Y_formula,
    check_Y_36S,
    check_Y_P4,
    check_lemma_general,
    check_lemma_smalldeg,
    check_millipede_upper,
    degree_type_census,
    is_one_millipede,
    run_suite,
)
from treelab.counting import (
    count_all,
    count_connected_subsets,
    count_paths_fast,
    count_stars_fast,
    count_y_fast,
    profile,
)
from treelab.generators import (
    convex_glue,
    glue,
    glue_power,
    make_millipede,
    make_path,
    make_star,
    random_tree,
    random_tree_bounded_degree,
)
from treelab.region import PlanePoint, check_region_shadow, line_margin, m_point
from treelab.trees import canonical_code, lowest_leaf, max_degree


def conclude(number: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def corpus6():
    """Criterion 6's corpus: every shape up to 12 vertices plus 10,000
    random trees of up to 100 vertices; criterion 10 reuses it."""
    trees = []
    for n in range(2, 13):
        trees.extend(enumerate_trees(n).entries)
    rng = random.Random(0)
    for _ in range(10_000):
        trees.append(random_tree(rng.randrange(13, 101), rng.randrange(2**32)))
    return trees


def test_criterion_01_catalog_counts():
    start = time.time()
    ok = all(catalog_count(k) == e for k, e in enumerate((1, 1, 1, 2, 3, 6), 1))
    # independent oracle: decode every Prufer sequence and deduplicate
    ok = ok and all(catalog_count(n) == prufer_class_count(n) for n in (7, 8))
    # 9 and 10 frozen from the same oracle run at full width
    ok = ok and catalog_count(9) == 47 and catalog_count(10) == 106
    ok = ok and time.time() - start < 60
    conclude(1, "catalog sizes match the sequence-decode oracle through 10", ok)


def test_criterion_02_oracle_equivalence():
    start = time.time()
    ok = True
    for n in range(1, 12):
        for t in enumerate_trees(n).entries:
            for k in range(1, t.n + 1):
                cat = enumerate_trees(k)
                rec = count_all(t, k)
                got = {c: x for c, x in zip(cat.codes, rec.per_type) if x}
                if got != naive_window_census(t, k):
                    ok = False
    ok = ok and time.time() - start < 600
    conclude(2, "engine counts equal brute-force subset counts, hosts to 11", ok)


def test_criterion_03_millipede_closed_forms():
    ok = True
    for d in range(0, 7):
        for length in range(3, 31):
            t = make_millipede(d, length)
            s_want = length * math.comb(d + 2, 4)
            p_want = (length - 2) * (d + 1) ** 2
            y_want = (length - 1) * (d + 1) ** 2 * d
            if count_stars_fast(t, 5) != s_want:
                ok = False
            if count_paths_fast(t, 5) != p_want:
                ok = False
            if count_y_fast(t) != y_want:
                ok = False
    # tie the generic counting engine to the same values on a sample
    for d, length in ((0, 10), (1, 3), (1, 10), (2, 3), (2, 10), (3, 5)):
        t = make_millipede(d, length)
        cat = enumerate_trees(5)
        rec = count_all(t, 5)
        if rec.per_type[cat.path_index] != (length - 2) * (d + 1) ** 2:
            ok = False
        if rec.per_type[cat.star_index] != length * math.comb(d + 2, 4):
            ok = False
    conclude(3, "millipede star/path/fork counts equal closed forms", ok)


def _census_identity_reports(t):
    # The four census checks of criterion 04 on one tree, from one census,
    # one description and one count of P and Y, as run_suite shares them;
    # tests/test_census.py covers the public check_* functions that count
    # for each report alone.
    inputs = _describe(t)
    c = degree_type_census(t)
    P = count_paths_fast(t, 5)
    Y = count_y_fast(t)
    return (_leaf_balance(inputs, c), _P_formula(inputs, c, P),
            _Y_formula(inputs, c, Y), _PY_identity(inputs, c, P, Y))


def test_criterion_04_census_identities():
    ok = True
    failing = set()
    for n in range(2, 15):
        for t in enumerate_trees_bounded_degree(n, 3):
            leaf, p_formula, y_formula, identity = _census_identity_reports(t)
            if not (leaf.holds and p_formula.holds and y_formula.holds):
                ok = False
            if not identity.holds:
                failing.add(canonical_code(t))
    # the combined linear identity has a known three-tree exception set;
    # the failure boundary must be exactly that set and nothing more
    ok = ok and failing == PY_IDENTITY_EXCEPTIONS
    rng = random.Random(4)
    for _ in range(10_000):
        t = random_tree_bounded_degree(rng.randrange(15, 121), 3, rng)
        if not all(r.holds for r in _census_identity_reports(t)):
            ok = False
    conclude(4, "census identities hold; exception set is exactly frozen", ok)


def test_criterion_05_fork_path_bound():
    ok = True
    for n in range(2, 17):
        for t in enumerate_trees_bounded_degree(n, 3):
            r = check_Y_P4(t)
            if not r.holds or r.equality != is_one_millipede(t):
                ok = False
    conclude(5, "Y <= P + 4 exhaustively to 16, equality iff 1-millipede", ok)


def test_criterion_06_split_fork_bound(corpus6):
    ok = True
    for t in corpus6:
        r = check_Y_36S(t)
        if not (r.holds and all(p.holds for p in r.parts)):
            ok = False
    conclude(6, "Y <= 36S + P + 4 with split checks on the full corpus", ok)


def test_criterion_07_window_bounds():
    start = time.time()
    ok = True
    for n in range(2, 12):
        for t in enumerate_trees(n).entries:
            for k in (5, 6):
                if max_degree(t) <= k - 2:
                    if not check_lemma_smalldeg(t, k).holds:
                        ok = False
                if not check_lemma_general(t, k).holds:
                    ok = False
    rng = random.Random(7)
    for _ in range(200):
        t = random_tree(rng.randrange(9, 61), rng.randrange(2**32))
        if max_degree(t) <= 6 and not check_lemma_smalldeg(t, 8).holds:
            ok = False
        if not check_lemma_general(t, 8).holds:
            ok = False
    ok = ok and time.time() - start < 60
    conclude(7, "window-count bounds hold for k in {5,6} and k=8 random", ok)


def test_criterion_08_gluing_sandwiches():
    ok = True
    rng = random.Random(42)
    n_k = {k: enumerate_trees(k).count for k in (4, 5, 6)}
    for _ in range(500):
        k = rng.choice((4, 5, 6))
        ell = rng.randrange(2, 6)
        t = random_tree(rng.randrange(2, 13), rng.randrange(2**32))
        s = random_tree(rng.randrange(2, 13), rng.randrange(2**32))
        g = glue(t, s, k, lowest_leaf(t), lowest_leaf(s))
        ct, cs, cg = (count_all(x, k).per_type for x in (t, s, g))
        slack = k * max(max_degree(t), 1) ** (k - 2) + k * max(max_degree(s), 1) ** (k - 2)
        for a, b, c in zip(ct, cs, cg):
            if not (a + b <= c <= a + b + slack):
                ok = False
        p = glue_power(t, k, ell)
        cp = count_all(p, k).per_type
        junk = 2 * k * (ell - 1) * max(max_degree(t), 1) ** (k - 2)
        for a, c in zip(ct, cp):
            if not (ell * a <= c <= ell * a + junk):
                ok = False
        z_t = count_connected_subsets(t, k)
        z_p = count_connected_subsets(p, k)
        if not (ell * z_t <= z_p <= ell * z_t + n_k[k] * junk):
            ok = False
    conclude(8, "both gluing sandwich blocks hold on 500 random instances", ok)


def test_criterion_09_convexity_witness():
    target = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    errors = {}
    for scale in (20, 40):
        g = convex_glue(make_path(scale), make_star(scale), 5, 1, 2,
                        vertex_cap=10**6)
        coords = profile(g, 5).coords
        errors[scale] = max(abs(c - w) for c, w in zip(coords, target))
    ok = errors[40] <= Fraction(5, 100) and errors[40] < errors[20]
    conclude(
        9,
        f"mixture profile near (1/2,1/2,0): err(40)={float(errors[40]):.4f} "
        f"< err(20)={float(errors[20]):.4f}",
        ok,
    )


def test_criterion_10_boundary_line(corpus6):
    ok = True
    for t in corpus6:
        if t.n < 5:
            continue
        if not check_region_shadow(t).holds:
            ok = False
    for d in range(0, 51):
        margin = line_margin(m_point(d))
        if margin < 0 or (margin == 0) != (d == 1):
            ok = False
    ok = ok and line_margin(PlanePoint(Fraction(1, 2), Fraction(0))) == 0
    conclude(10, "finite boundary-line bound and limit-point margins", ok)


def test_criterion_11_millipede_chain():
    ok = True
    for k in (6, 8):
        for length in (10, 20):
            r = check_millipede_upper(k, length)
            if not r.holds:
                ok = False
            by_name = {p.check: p for p in r.parts}
            if by_name["millipede_no_stars"].lhs != 0:
                ok = False
    conclude(11, "millipede chain: no stars, path cap, window floor", ok)


def _fresh_verify_report(hash_seed: str) -> bytes:
    """stdout of `treelab verify --max-n 11` in a new interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(treelab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "treelab.cli", "verify", "--max-n", "11"],
        env=env, capture_output=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def test_criterion_12_determinism():
    reports = run_suite("all", max_n=11, ks=(5, 6))
    here = (json.dumps([jsonify_report(r, 12) for r in reports], indent=2) + "\n").encode()
    fresh = [_fresh_verify_report(seed) for seed in ("0", "1")]
    ok = len(reports) > 0 and all(blob == here for blob in fresh)
    conclude(12, "suite reports byte-identical in this process and in fresh "
                 "interpreters with PYTHONHASHSEED 0 and 1", ok)
