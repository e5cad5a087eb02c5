from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treelab
import treelab.cli as cli_module
from conftest import jsonify_report, jsonify_value
from treelab.catalog import enumerate_trees
from treelab.census import VerificationReport, run_suite
from treelab.cli import main
from treelab.counting import fraction_to_decimal
from treelab.generators import (
    convex_glue,
    glue,
    glue_power,
    make_millipede,
    make_path,
    make_star,
    random_tree,
)
from treelab.region import inducibility_lower_bound, projection_point
from treelab.trees import dump_tree, load_tree, make_tree, tree_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv) -> subprocess.CompletedProcess:
    """Run python with these arguments and this checkout's treelab first on
    PYTHONPATH, capturing stdout and stderr as bytes."""
    src = str(Path(treelab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=600)


FIGURE_SCRIPT = str(Path(__file__).resolve().parent.parent / "scripts" / "boundary_figure.py")


class TestEnum:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enum", "--k", "6")
        assert code == 0
        assert len(json.loads(out)) == 6

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "cat.json"
        code, out, _ = run(capsys, "enum", "--k", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())) == 3


class TestProfile:
    def test_path_json(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(9), f)
        code, out, _ = run(capsys, "profile", "--tree", str(f), "--k", "5")
        assert code == 0
        d = json.loads(out)
        assert d["k"] == 5
        assert d["coords"] == ["1", "0", "0"]
        assert d["coords_exact"] == ["1/1", "0/1", "0/1"]
        assert d["total"] == 5

    def test_counts_flag(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(9), f)
        code, out, _ = run(capsys, "profile", "--tree", str(f), "--k", "5", "--counts")
        assert json.loads(out)["per_type"] == [5, 0, 0]

    def test_csv_format(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(9), f)
        code, out, _ = run(capsys, "profile", "--tree", str(f), "--k", "5",
                           "--format", "csv", "--counts")
        lines = out.strip().splitlines()
        assert lines[0] == "index,decimal,exact,count"
        assert lines[1] == "1,1,1/1,5"
        assert len(lines) == 4

    def test_parent_list_input(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("0 1 2 3\n")  # a path written as a parent list
        code, out, _ = run(capsys, "profile", "--tree", str(f), "--k", "5")
        assert code == 0
        assert json.loads(out)["coords"][0] == "1"

    def test_window_too_large(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(4), f)
        code, _, err = run(capsys, "profile", "--tree", str(f), "--k", "5")
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "profile", "--tree", "/no/such/file", "--k", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", [
        '{"n": 3, "edges": null}',
        '{"n": 2, "edges": [[0, 1.5]]}',
        '{"n": 2, "edges": [[0, true]]}',
        '{"n": true, "edges": []}',
        # Nesting past the decoder's recursion limit, and an integer past
        # the digit limit.
        pytest.param('{"n": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}', id="deep"),
        pytest.param('{"n": ' + "9" * 5_000 + ', "edges": []}', id="long-integer"),
    ])
    def test_malformed_tree_json_exits_two(self, tmp_path, capsys, text):
        f = tmp_path / "f.json"
        f.write_text(text)
        code, out, err = run(capsys, "profile", "--k", "1", "--tree", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("treelab: error: ") and err.count("\n") == 1


class TestGen:
    def test_round_trips(self, tmp_path, capsys):
        cases = [
            ("path", ["--n", "9"], 9),
            ("star", ["--n", "7"], 7),
            ("millipede", ["--d", "2", "--length", "4"], 14),
            ("random", ["--n", "15", "--seed", "3"], 15),
        ]
        for family, extra, n in cases:
            target = tmp_path / f"{family}.json"
            code, _, _ = run(capsys, "gen", family, *extra, "--out", str(target))
            assert code == 0
            assert load_tree(target).n == n

    def test_output_is_json_dumps(self, tmp_path, capsys):
        # Every family, on stdout and through --out: the text of
        # json.dumps(tree_to_json(t)) and one newline.
        a, b = make_path(6), make_star(5)
        dump_tree(a, tmp_path / "a.json")
        dump_tree(b, tmp_path / "b.json")
        files = ["--t", str(tmp_path / "a.json"), "--s", str(tmp_path / "b.json")]
        cases = [
            (["path", "--n", "1"], make_path(1)),
            (["path", "--n", "9"], make_path(9)),
            (["star", "--n", "7"], make_star(7)),
            (["millipede", "--d", "2", "--length", "4"], make_millipede(2, 4)),
            (["glue", *files, "--k", "4"], glue(a, b, 4, 0, 1)),
            (["glue", *files, "--k", "3", "--leaf-t", "5", "--leaf-s", "4"], glue(a, b, 3, 5, 4)),
            (["gluepower", *files[:2], "--k", "3", "--power", "4"], glue_power(a, 3, 4)),
            (["convex", *files, "--k", "4", "--alpha", "1", "--beta", "3"],
             convex_glue(a, b, 4, 1, 3, vertex_cap=2_000)),
            (["random", "--n", "15", "--seed", "3"], random_tree(15, 3)),
        ]
        cap = ["--vertex-cap", "2000"]
        for argv, t in cases:
            want = json.dumps(tree_to_json(t)) + "\n"
            assert run(capsys, *cap, "gen", *argv) == (0, want, "")
            target = tmp_path / "out.json"
            assert run(capsys, *cap, "gen", *argv, "--out", str(target)) == (0, "", "")
            assert target.read_text(encoding="utf-8") == want

    def test_glue_chain(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_tree(make_path(6), a)
        dump_tree(make_path(4), b)
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "glue", "--t", str(a), "--s", str(b),
                         "--k", "4", "--out", str(out))
        assert code == 0
        assert load_tree(out).n == 6 + 4 + 3

    def test_gluepower(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        dump_tree(make_path(5), a)
        code, out, _ = run(capsys, "gen", "gluepower", "--t", str(a),
                           "--k", "3", "--power", "4")
        assert code == 0
        assert json.loads(out)["n"] == 4 * 5 + 3 * 2

    def test_convex_cap_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_tree(make_path(20), a)
        dump_tree(make_path(20), b)
        code, _, err = run(capsys, "--vertex-cap", "30", "gen", "convex",
                           "--t", str(a), "--s", str(b), "--k", "5",
                           "--alpha", "1", "--beta", "2")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("family, extra, size", [
        ("path", ["--n", "31"], 31),
        ("star", ["--n", "31"], 31),
        ("millipede", ["--d", "2", "--length", "10"], 32),
        ("random", ["--n", "31"], 31),
        ("gluepower", ["--t", "p5.json", "--k", "3", "--power", "5"], 33),
    ])
    def test_size_over_cap_exits_two(self, tmp_path, monkeypatch, capsys, family, extra, size):
        # The cap is small so that a missing check builds only a small tree.
        monkeypatch.chdir(tmp_path)
        dump_tree(make_path(5), "p5.json")
        code, out, err = run(capsys, "--vertex-cap", "30", "gen", family, *extra)
        assert code == 2
        assert out == ""
        assert err == f"treelab: error: gen {family} would use {size} vertices, cap is 30\n"
        code, out, _ = run(capsys, "--vertex-cap", str(size), "gen", family, *extra)
        assert code == 0 and json.loads(out)["n"] == size

    def test_glue_over_cap_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        dump_tree(make_path(6), a)
        code, out, err = run(capsys, "--vertex-cap", "15", "gen", "glue",
                             "--t", str(a), "--s", str(a), "--k", "5")
        assert code == 2
        assert out == ""
        assert err == "treelab: error: gen glue would use 16 vertices, cap is 15\n"

    def test_convex_checks_size_before_gluing(self, tmp_path, monkeypatch, capsys):
        # convex_glue builds a two-copy glue power of each input before its
        # own cap check, so the command must reject a huge --k before
        # calling it.
        import treelab.generators

        def no_glue(*args, **kwargs):
            raise AssertionError("glued before the size check")

        monkeypatch.setattr(treelab.generators, "_append_power", no_glue)
        a = tmp_path / "a.json"
        dump_tree(make_path(5), a)
        code, out, err = run(capsys, "--vertex-cap", "30", "gen", "convex",
                             "--t", str(a), "--s", str(a), "--k", "40",
                             "--alpha", "1", "--beta", "2")
        assert code == 2
        assert out == ""
        assert err == "treelab: error: gen convex would use 49 vertices, cap is 30\n"

    def test_convex_nominal_flag_removed(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        dump_tree(make_path(8), a)
        with pytest.raises(SystemExit) as e:
            main(["gen", "convex", "--t", str(a), "--s", str(a), "--k", "5",
                  "--alpha", "1", "--beta", "2", "--nominal"])
        assert e.value.code == 2
        assert "unrecognized arguments: --nominal" in capsys.readouterr().err

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "random", "--n", "12", "--seed", "5")
        _, out2, _ = run(capsys, "gen", "random", "--n", "12", "--seed", "5")
        assert out1 == out2


class TestVerify:
    def test_exit_zero_when_all_hold(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--suite", "all", "--max-n", "9",
                           "--report", str(report))
        assert code == 0
        assert "0 failed" in err
        data = json.loads(report.read_text())
        assert data and all(r["holds"] for r in data)

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        def fake_suite(suite, max_n, ks):
            return [VerificationReport(check="forced", inputs="x", lhs=1,
                                       rhs=0, holds=False, slack=-1)]

        monkeypatch.setattr(cli_module, "run_suite", fake_suite)
        code, out, err = run(capsys, "verify", "--suite", "census")
        assert code == 1
        assert "1 failed" in err

    @pytest.mark.parametrize("max_n", ["-5", "1"])
    def test_max_n_below_two_exits_two(self, capsys, max_n):
        code, out, err = run(capsys, "verify", "--suite", "census", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err == f"treelab: error: max_n must be >= 2, got {max_n}\n"

    def test_single_k_restriction(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--max-n", "8",
                           "--k", "5")
        assert code == 0
        data = json.loads(out)
        window = [r for r in data if r["check"].endswith("window_bound")]
        assert window
        assert all("k=5" in r["inputs"] for r in window)

    @pytest.mark.parametrize("k", ["5", "0", "-4"])
    def test_census_suite_rejects_k(self, capsys, k):
        code, out, err = run(capsys, "verify", "--suite", "census", "--max-n", "5", "--k", k)
        assert (code, out) == (2, "")
        assert err == ("treelab: error: verify --suite census has no window-bound checks "
                       "for --k to restrict\n")


class TestWriteJson:
    # Every command's JSON is the text json.dumps(payload, indent=2)
    # renders, plus one newline, to stdout or to a file.
    PAYLOAD = [{"a": 1, "b": [1, -2.5, {"c": "x/y"}], "d": None, "e": True}, [], {}, "\u00e9"]

    @staticmethod
    def expected(payload) -> str:
        return json.dumps(payload, indent=2) + "\n"

    @staticmethod
    def write(payload, out) -> None:
        cli_module._write_output(cli_module._value_text(payload, 12, ""), out)

    def test_stdout(self, capsys):
        self.write(self.PAYLOAD, None)
        assert capsys.readouterr().out == self.expected(self.PAYLOAD)

    def test_file(self, tmp_path):
        path = tmp_path / "payload.json"
        self.write(self.PAYLOAD, str(path))
        assert path.read_bytes() == self.expected(self.PAYLOAD).encode()

    def test_verify_report(self, tmp_path, capsys):
        payload = [jsonify_report(r, 12) for r in run_suite("all", 7)]
        code, out, _ = run(capsys, "verify", "--max-n", "7")
        assert (code, out) == (0, self.expected(payload))
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--max-n", "7", "--report", str(report))
        assert (code, out) == (0, "")
        assert report.read_bytes() == self.expected(payload).encode()

    def test_enum_out(self, tmp_path, capsys):
        payload = [tree_to_json(t) for t in enumerate_trees(7).entries]
        code, out, _ = run(capsys, "enum", "--k", "7")
        assert (code, out) == (0, self.expected(payload))
        path = tmp_path / "enum.json"
        code, out, _ = run(capsys, "enum", "--k", "7", "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == self.expected(payload).encode()

    @pytest.mark.parametrize("digits", [1, 30])
    def test_inducibility(self, tmp_path, capsys, digits):
        pattern = make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)))
        report = inducibility_lower_bound(pattern, (1, 4, 16), 2000)
        payload = {
            "k": report.k,
            "schedule": list(report.schedule),
            "sizes": list(report.sizes),
            "observed": [jsonify_value(x, digits) for x in report.observed],
            "certified": [jsonify_value(x, digits) for x in report.certified],
            "best_certified": jsonify_value(report.best_certified, digits),
        }
        f = tmp_path / "pattern.json"
        dump_tree(pattern, f)
        code, out, _ = run(capsys, "--precision", str(digits), "--vertex-cap", "2000",
                           "inducibility", "--tree", str(f), "--schedule", "1,4,16")
        assert (code, out) == (0, self.expected(payload))


def _report(check="c", inputs="i", lhs=0, rhs=0, holds=True, slack=0, **rest):
    return VerificationReport(check=check, inputs=inputs, lhs=lhs, rhs=rhs,
                              holds=holds, slack=slack, **rest)


# Every branch of verify's text renderer: parts two deep, each equality
# value, empty and set notes, negative and whole Fractions, tuples down to
# the empty one, and strings that JSON must escape.
HAND_BUILT = [
    _report(
        check='quote " backslash \\ newline \n tab \t',
        inputs="n=3 caf\u00e9 \u2603 \U0001d4af",
        lhs=Fraction(-7, 3), rhs=Fraction(4), holds=False, slack=Fraction(19, 3),
        equality=False, note='n\u00f6te with "quotes" and \\\n',
        parts=(
            _report(check="part", lhs=(1, (), (Fraction(-1, 8), -2)), rhs=(), equality=True,
                    parts=(_report(check="leaf", inputs="\u00e9", lhs=Fraction(2, 3),
                                   slack=-5, holds=False, note="deep"),)),
            _report(check="plain", lhs=10**40, rhs=-(10**40), slack=0),
        ),
    ),
    _report(),
    _report(check="none", equality=None, note="", parts=()),
]


class TestVerifyText:
    # verify renders each report to text itself; json.dumps of the
    # reference dicts in conftest is the oracle for that text.
    @pytest.mark.parametrize("precision", [1, 30])
    def test_hand_built_reports(self, tmp_path, monkeypatch, capsys, precision):
        monkeypatch.setattr(cli_module, "run_suite", lambda *a: HAND_BUILT)
        want = json.dumps([jsonify_report(r, precision) for r in HAND_BUILT], indent=2) + "\n"
        argv = ["--precision", str(precision), "verify", "--max-n", "5"]
        assert run(capsys, *argv) == (1, want, "3 checks, 1 failed\n")
        report = tmp_path / "report.json"
        assert run(capsys, *argv, "--report", str(report)) == (1, "", "3 checks, 1 failed\n")
        assert report.read_bytes() == want.encode()

    def test_empty_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "run_suite", lambda *a: [])
        assert run(capsys, "verify") == (0, "[]\n", "0 checks, 0 failed\n")


class TestPinnedOutputs:
    # sha256 of stdout: catalog order, every verify report and its text,
    # the scan witness and the region data stay byte for byte what they
    # were when these were recorded.
    @pytest.mark.parametrize("argv,digest", [
        (("verify", "--max-n", "12"),
         "582548c1f45ba92384d8be48cacd39ddabccfac61a2b62d525f4e7cd7bd1959d"),
        (("enum", "--k", "12"),
         "c40d85b6076fe4afc80065efe184aadff839924f4a0a216e3ba3f3b29e022bf5"),
        (("scan",),
         "d2f7edbd81d8dc5c2525275a619b5a7eb1e2c4bf930b836f9106e4edb1f8fbc0"),
        (("region",),
         "550323539144b5886bec3487625afc21ca05c996fc0540def8b97849b72e4e6d"),
    ], ids=["verify-12", "enum-12", "scan", "region"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture
def gc_state():
    # Leaves the collector as it found it, whatever the test does.
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("gc_state")
class TestGcWindow:
    def _failing_suite(self, *args):
        return [VerificationReport(check="forced", inputs="x", lhs=1, rhs=0, holds=False, slack=-1)]

    @pytest.mark.parametrize("argv, want", [
        (["enum", "--k", "4"], 0),
        (["verify", "--suite", "census", "--max-n", "4"], 1),
        (["profile", "--tree", "no-such-file.json", "--k", "3"], 2),
        (["--precision", "0", "region"], 2),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored(self, monkeypatch, capsys, argv, want, enabled):
        monkeypatch.setattr(cli_module, "run_suite", self._failing_suite)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert run(capsys, *argv)[0] == want
        assert gc.isenabled() is enabled

    def test_collector_off_while_command_runs(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli_module, "_cmd_enum", lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert run(capsys, "enum", "--k", "4")[0] == 0
        assert seen == [False] and gc.isenabled()

    def test_restored_when_command_raises(self, monkeypatch):
        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_module, "_cmd_enum", boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["enum", "--k", "4"])
        assert gc.isenabled()

    @pytest.mark.parametrize("argv", [
        ["profile", "--tree", "{random}", "--k", "5"],
        ["--vertex-cap", "20000", "gen", "convex", "--t", "{path}", "--s", "{star}", "--k", "5",
         "--alpha", "1", "--beta", "2"],
        ["inducibility", "--tree", "{pattern}", "--schedule", "1,4,16,64"],
        ["verify", "--max-n", "9"],
        ["scan"],
    ])
    def test_commands_leave_no_cycles(self, tmp_path, capsys, argv):
        # Why the collector may stay off: a command's own objects are freed
        # by reference counting, so a collection afterwards finds only the
        # argument parser's few hundred objects, on any host size.
        files = {"random": random_tree(20_000, 1), "path": make_path(12), "star": make_star(12),
                 "pattern": make_tree(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)))}
        for name, t in files.items():
            dump_tree(t, tmp_path / f"{name}.json")
        argv = [a.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for a in argv]
        gc.collect()
        gc.disable()  # else the first allocation after main returns collects
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() < 1_000


class TestCatalogCap:
    # Each case names the one argument that sets its largest catalog; "{}"
    # is replaced by the size, and "p{}.json" is a path on that many vertices.
    @pytest.mark.parametrize("command,extra", [
        ("verify", ["--max-n", "{}"]),
        ("scan", ["--max-n", "{}"]),
        ("enum", ["--k", "{}"]),
        ("profile", ["--tree", "p9.json", "--k", "{}"]),
        ("inducibility", ["--tree", "p{}.json", "--schedule", "1,2"]),
        ("verify", ["--k", "{}", "--max-n", "5"]),
    ])
    def test_max_n_over_catalog_cap_exits_two(self, tmp_path, monkeypatch, capsys, command, extra):
        monkeypatch.chdir(tmp_path)
        for n in (6, 7, 9):
            dump_tree(make_path(n), f"p{n}.json")
        i = next(i for i, a in enumerate(extra) if "{}" in a)
        flag = extra[i - 1]
        value = "with 7 vertices" if command == "inducibility" else "7"
        code, out, err = run(capsys, "--max-k", "6", command, *(a.format(7) for a in extra))
        assert code == 2
        assert out == ""
        assert err == f"treelab: error: {command} {flag} {value} exceeds the catalog cap --max-k 6\n"
        code, out, _ = run(capsys, "--max-k", "6", command, *(a.format(6) for a in extra))
        assert code == 0 and json.loads(out)

    def test_census_suite_ignores_window_sizes(self, capsys):
        # --suite census builds no k-catalog, so the default k = 6 is not checked
        code, out, _ = run(capsys, "--max-k", "5", "verify", "--suite", "census", "--max-n", "5")
        assert code == 0 and json.loads(out)


class TestRegionScan:
    def test_region_csv(self, capsys):
        code, out, _ = run(capsys, "region", "--d-max", "2", "--samples", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "series,label,x,y,x_exact,y_exact"
        assert lines[1] == "red,0,0,0.0270270270270,0/1,1/37"

    def test_region_out_file(self, tmp_path, capsys):
        f = tmp_path / "fig.csv"
        code, out, _ = run(capsys, "region", "--d-max", "2", "--out", str(f))
        assert code == 0 and out == ""
        assert f.read_text().startswith("series,label")

    def test_region_bad_precision_writes_nothing(self, tmp_path, capsys):
        code, out, err = run(capsys, "--precision", "0", "region")
        assert (code, out) == (2, "")
        assert err == "treelab: error: precision must be >= 1, got 0\n"
        f = tmp_path / "fig.csv"
        code, out, err = run(capsys, "--precision", "0", "region", "--out", str(f))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert not f.exists()

    def test_precision_below_one_exits_two_before_any_work(self, capsys):
        code, out, err = run(capsys, "--precision", "0", "verify", "--suite", "census")
        assert (code, out, err) == (2, "", "treelab: error: precision must be >= 1, got 0\n")
        code, out, err = run(capsys, "--precision", "0", "scan", "--max-n", "3")
        assert (code, out, err) == (2, "", "treelab: error: precision must be >= 1, got 0\n")

    def test_boundary_figure_script_matches_region(self):
        # Without the finite overlay, scripts/boundary_figure.py writes the
        # figure CSV of `treelab region`; both run with their own defaults.
        # With its default overlay it appends one row per d = 0..8 and
        # length 5, 10 and 20, rendered here from each millipede's projection.
        outs = []
        for argv in ([FIGURE_SCRIPT, "--finite-lengths", ""], ["-m", "treelab.cli", "region"],
                     [FIGURE_SCRIPT]):
            done = run_python(*argv)
            assert done.returncode == 0, done.stderr.decode(errors="replace")
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"series,label,") and outs[0].count(b"\n") == 71
        finite = []
        for d in range(9):
            for length in (5, 10, 20):
                p = projection_point(make_millipede(d, length))
                finite.append(f"finite,d{d}L{length},{fraction_to_decimal(p.x, 12)},"
                              f"{fraction_to_decimal(p.y, 12)},{p.x.numerator}/{p.x.denominator},"
                              f"{p.y.numerator}/{p.y.denominator}\n")
        assert len(finite) == 27
        assert outs[2] == outs[1] + "".join(finite).encode()

    @pytest.mark.parametrize("lengths, message", [
        # make_millipede(0, 2) has 4 vertices, so no 5-vertex window.
        pytest.param("2,7", "--finite-lengths entry '2' is below 3, so its d = 0 millipede"
                            " has no 5-vertex window", id="below-3"),
        pytest.param("5,x", "--finite-lengths entry 'x' is not an integer", id="not-integer"),
    ])
    def test_boundary_figure_script_rejects_bad_length(self, tmp_path, lengths, message):
        target = tmp_path / "figure.csv"
        for out in ([], ["--out", str(target)]):
            done = run_python(FIGURE_SCRIPT, "--d-max", "3", "--finite-lengths", lengths, *out)
            assert (done.returncode, done.stdout) == (2, b"")
            assert done.stderr == f"boundary_figure.py: error: {message}\n".encode()
        assert not target.exists()

    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-n", "7")
        assert code == 0
        d = json.loads(out)
        assert d.keys() == {"max_value", "witness", "witness_code", "examined"}
        assert (d["max_value"], d["examined"]) == (4, 24)

    def test_inducibility_json(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(5), f)
        code, out, _ = run(capsys, "--vertex-cap", "2000", "inducibility",
                           "--tree", str(f), "--schedule", "1,2,4")
        assert code == 0
        d = json.loads(out)
        assert d["k"] == 5
        assert d["observed"][0]["exact"] == "1/1"
        assert d["best_certified"]["decimal"]


    def test_inducibility_empty_schedule_exits_two(self, tmp_path, capsys):
        f = tmp_path / "t.json"
        dump_tree(make_path(5), f)
        code, out, err = run(capsys, "inducibility", "--tree", str(f), "--schedule", "")
        assert (code, out) == (2, "")
        assert err.startswith("treelab: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("schedule", ["1,,2", "1,two", "1,2,"])
    def test_inducibility_malformed_schedule_exits_two(self, tmp_path, capsys, schedule):
        f = tmp_path / "t.json"
        dump_tree(make_path(5), f)
        code, out, err = run(capsys, "inducibility", "--tree", str(f), "--schedule", schedule)
        assert (code, out) == (2, "")
        assert err == ("treelab: error: --schedule wants comma-separated glue powers "
                       f"such as 1,2,4, got {schedule!r}\n")

    @pytest.mark.parametrize("schedule,shown", [("1,2,2", "[1, 2, 2]"), ("4,2", "[4, 2]"),
                                                ("0,1", "[0, 1]")])
    def test_inducibility_unordered_schedule_exits_two(self, tmp_path, capsys, schedule, shown):
        f = tmp_path / "t.json"
        dump_tree(make_path(5), f)
        code, out, err = run(capsys, "inducibility", "--tree", str(f), "--schedule", schedule)
        assert (code, out) == (2, "")
        assert err == ("treelab: error: schedule must be strictly increasing positive powers, "
                       f"got {shown}\n")


class TestConfigPlumbing:
    def test_precision_flag_reaches_profile(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("0 0 0 3\n")  # degree-3 center with one branch of length two
        code, out, _ = run(capsys, "--precision", "4", "profile", "--tree", str(f), "--k", "4")
        assert code == 0
        d = json.loads(out)
        assert d["coords_exact"] == ["2/3", "1/3"]
        assert d["coords"] == ["0.6667", "0.3333"]

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--threads", "2", "verify"])
        assert e.value.code == 2
        assert "usage: treelab" in capsys.readouterr().err

    def test_config_flag_removed(self, tmp_path, capsys):
        conf = tmp_path / "treelab.conf"
        conf.write_text("decimal_precision = 4\n")
        with pytest.raises(SystemExit) as e:
            main(["--config", str(conf), "enum", "--k", "4"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: treelab" in captured.err

    def test_global_seed_flag_removed(self, capsys):
        # The seed is set on the subcommand that uses it: gen random --seed.
        with pytest.raises(SystemExit) as e:
            main(["--seed", "7", "gen", "random", "--n", "10"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: treelab" in captured.err

    @pytest.mark.parametrize("argv", [["--budget", "5"], ["--seed", "2"]], ids=["budget", "seed"])
    def test_scan_sampling_flags_removed(self, capsys, argv):
        # scan is exhaustive over its catalogs: no sample size, no seed.
        with pytest.raises(SystemExit) as e:
            main(["scan", *argv])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv)}" in captured.err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["enum"])  # missing --k
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "treelab" in capsys.readouterr().out
