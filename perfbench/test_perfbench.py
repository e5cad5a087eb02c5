"""Tests of the benchmark's own parts: the Z_k oracle, inputs, checks and spans.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from inputs import prufer_decode, random_labelled_tree, tree_with_degrees, write_tree  # noqa: E402
from oracle import window_total  # noqa: E402
from run import layer_metrics, tail, unit_of  # noqa: E402
from workloads import GLUE_N, GLUE_WINDOWS, host_problems, inducibility_check, profile_check  # noqa: E402

from treelab import (  # noqa: E402
    count_connected_subsets,
    make_millipede,
    make_path,
    make_star,
    make_tree,
    prufer_to_tree,
)


def small_trees():
    rng = random.Random(7)
    for n in range(2, 13):
        for _ in range(4):
            yield n, random_labelled_tree(n, rng)
    for t in (make_path(9), make_star(9), make_millipede(2, 4)):
        yield t.n, list(t.edges)
    yield 1, []


@pytest.mark.parametrize("n,edges", list(small_trees()))
def test_oracle_matches_enumerator(n, edges):
    t = make_tree(n, edges)
    for k in range(1, n + 2):
        assert window_total(n, edges, k) == count_connected_subsets(t, k)


def test_oracle_rejects_disconnected_edges():
    with pytest.raises(ValueError):
        window_total(4, [(0, 1), (2, 3)], 2)


def test_prufer_decode_matches_program():
    rng = random.Random(3)
    for n in range(3, 30):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert prufer_decode(seq, n) == list(prufer_to_tree(seq, n).edges)


def test_tree_with_degrees():
    edges = tree_with_degrees([4, 2, 2, 2, 1, 1, 1, 1], random.Random(5))
    deg = [0] * 8
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert sorted(deg, reverse=True) == [4, 2, 2, 2, 1, 1, 1, 1]


def span(i, layer, start, end, parent, thread, cpu=None):
    cpu_start, cpu_end = cpu or (start, end)
    return (i, f"{layer}.f", layer, start, end, parent, thread, cpu_start, cpu_end)


def test_self_time_subtracts_children_once():
    records = [
        span(1, "census", 0.0, 10.0, 0, 1),
        span(2, "catalog", 1.0, 3.0, 1, 1),
        # Two worker threads overlap between 5 and 8: covered once.  Under
        # the GIL they share that time, so each ran on the CPU for only
        # part of its span.
        span(3, "counting.fast", 4.0, 8.0, 1, 2, cpu=(0.0, 2.5)),
        span(4, "counting.fast", 5.0, 9.0, 1, 3, cpu=(0.0, 2.5)),
        span(5, "trees.canonical_code", 6.0, 7.0, 4, 3, cpu=(1.0, 1.5)),
    ]
    assert spans.self_times(records) == {1: 10.0 - 2.0 - 5.0, 2: 2.0, 3: 4.0, 4: 3.0, 5: 1.0}
    assert spans.cpu_self_times(records) == {1: 8.0, 2: 2.0, 3: 2.5, 4: 2.0, 5: 0.5}
    calling, workers = spans.layer_self_times(records, calling_thread=1)
    assert calling["census"] == 3.0 and calling["catalog"] == 2.0
    assert workers["counting.fast"] == 4.5 and workers["trees.canonical_code"] == 0.5
    covered = spans.covered_by_workers(records, calling_thread=1)
    assert covered == 5.0
    # Calling-thread self times plus the wait on workers give the wall time,
    # and the workers' CPU self times fit in the wall time they covered.
    assert sum(calling.values()) + covered == 10.0
    assert sum(workers.values()) <= covered


def test_self_time_clips_children_to_parent():
    records = [span(1, "cli", 0.0, 4.0, 0, 1), span(2, "census", 3.0, 6.0, 1, 2)]
    assert spans.self_times(records)[1] == 3.0


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 11)["p"] is None
    result = tail([float(i) for i in range(1, 26)])
    assert result["p"] == 50.0 and result["beyond"] == 12 and result["value"] == 13.0


def test_units():
    assert [unit_of(m) for m in ("cli.self_s", "counting.windows_per_s",
                                 "cli.output_bytes", "census.checks")] == [
        "s", "1/s", "bytes", "count"]


def test_profile_check_catches_a_wrong_total():
    good = {"k": 5, "coords": [], "coords_exact": ["1/4", "3/4"], "total": 8,
            "per_type": [2, 6]}
    check = profile_check(5, 8, counts=True)
    assert check(json.dumps(good).encode()) == ([], 8)
    assert check(json.dumps(dict(good, total=9)).encode())[0]
    assert check(json.dumps(dict(good, coords_exact=["1/4", "1/2"])).encode())[0]
    assert check(json.dumps(dict(good, per_type=[2, 5])).encode())[0]


def test_inducibility_check_catches_a_wrong_size():
    payload = {"k": 8, "schedule": [1, 4], "sizes": [8, 53],
               "observed": [0, 0], "certified": [0, 0]}
    check = inducibility_check(8, 8, (1, 4))
    assert check(json.dumps(payload).encode())[0] == []
    assert check(json.dumps(dict(payload, sizes=[8, 52])).encode())[0]


def tree_bytes(n, edges):
    return json.dumps({"n": n, "edges": [list(e) for e in edges]}).encode()


def test_host_check_pins_size_and_total():
    path10 = tree_bytes(10, [(i, i + 1) for i in range(9)])
    star10 = tree_bytes(10, [(0, i) for i in range(1, 10)])
    # A 10-vertex path has 6 windows of 5 vertices, a 10-vertex star C(9, 4).
    assert host_problems(path10, n=10, windows=6) == []
    assert host_problems(star10, n=10, windows=126) == []
    assert host_problems(path10, n=11, windows=6)
    assert host_problems(star10, n=10, windows=6)
    assert host_problems(tree_bytes(10, [(0, 1)] * 9), n=10, windows=6)
    # A smaller or different host than the pinned gluing fails by default.
    assert host_problems(path10)
    big_path = tree_bytes(GLUE_N, [(i, i + 1) for i in range(GLUE_N - 1)])
    assert host_problems(big_path) == [f"host has Z_5 {GLUE_N - 4}, expected {GLUE_WINDOWS}"]


def test_traced_session_accounts_for_its_wall_time(tmp_path):
    n, edges = 60, random_labelled_tree(60, random.Random(11))
    tree = tmp_path / "t.json"
    write_tree(tree, n, edges)
    spec = {
        "src": str(ROOT / "src"), "trace": True, "result": str(tmp_path / "r.json"),
        "commands": [
            {"argv": ["profile", "--tree", str(tree), "--k", "6"], "stdout": str(tmp_path / "o1")},
            {"argv": ["verify", "--suite", "all", "--max-n", "7"], "stdout": str(tmp_path / "o2")},
        ],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "inproc.py"), str(tmp_path / "spec.json")],
                   check=True, timeout=120)
    result = json.loads((tmp_path / "r.json").read_text())
    assert result["codes"] == [0, 0]
    trace = layer_metrics(result, result["session_wall_s"], output_bytes=1)
    assert 0 <= trace["unattributed_s"] < 0.01 * result["session_wall_s"] + 1e-3
    metrics = trace["metrics"]
    profile_total = json.loads((tmp_path / "o1").read_text())["total"]
    assert profile_total == window_total(n, edges, 6)
    assert metrics["census.checks"] == len(json.loads((tmp_path / "o2").read_text()))
    assert metrics["census.checks_failed"] == 0
    # The host is parsed once; canonical codes validate their trees too.
    assert metrics["trees.parse.vertices"] >= n
    assert metrics["counting.windows"] >= profile_total
    assert metrics["trees.canonical_code.calls"] > 0


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in bench["per_layer"]]
    reported = [f"{layer}.self_s" for layer in spans.LAYERS] + list(spans.COUNTS) + [
        "counting.windows_per_s", "cli.output_bytes", "trace.overhead_s"]
    assert sorted(per_layer) == sorted(reported)
    for m in bench["per_layer"]:
        assert m["unit"] == unit_of(m["name"])
    assert {w["name"] for w in bench["workloads"]} == {"verify-corpus", "profile-dense", "glue-host"}
