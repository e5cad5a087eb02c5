from __future__ import annotations

import json

import pytest

from treelab.census import VerificationReport
from treelab.cli import main
from treelab.generators import make_path
from treelab.trees import dump_tree, load_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        import treelab.cli as cli_module

        def fake_suite(suite, max_n, ks):
            return [VerificationReport(check="forced", inputs="x", lhs=1,
                                       rhs=0, holds=False, slack=-1)]

        monkeypatch.setattr(cli_module, "run_suite", fake_suite)
        code, out, err = run(capsys, "verify", "--suite", "census")
        assert code == 1
        assert "1 failed" in err

    def test_single_k_restriction(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--max-n", "8",
                           "--k", "5")
        assert code == 0
        data = json.loads(out)
        window = [r for r in data if r["check"].endswith("window_bound")]
        assert window
        assert all("k=5" in r["inputs"] for r in window)


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

    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--max-n", "7", "--budget", "10",
                           "--seed", "2")
        assert code == 0
        d = json.loads(out)
        assert {"max_value", "witness", "witness_code", "examined", "seed"} <= d.keys()
        assert d["seed"] == 2

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


class TestConfigPlumbing:
    def test_env_seed_reaches_gen(self, capsys, monkeypatch):
        monkeypatch.setenv("TREELAB_SEED", "5")
        _, out_env, _ = run(capsys, "gen", "random", "--n", "10")
        monkeypatch.delenv("TREELAB_SEED")
        _, out_flag, _ = run(capsys, "gen", "random", "--n", "10", "--seed", "5")
        assert out_env == out_flag

    def test_global_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TREELAB_SEED", "5")
        _, out, _ = run(capsys, "--seed", "7", "gen", "random", "--n", "10")
        monkeypatch.delenv("TREELAB_SEED")
        _, want, _ = run(capsys, "gen", "random", "--n", "10", "--seed", "7")
        assert out == want

    def test_config_file(self, tmp_path, capsys):
        conf = tmp_path / "treelab.conf"
        conf.write_text("decimal_precision = 4\n")
        f = tmp_path / "t.txt"
        f.write_text("0 0 0 3\n")  # degree-3 center with one branch of length two
        code, out, _ = run(capsys, "--config", str(conf), "profile",
                           "--tree", str(f), "--k", "4")
        assert code == 0
        d = json.loads(out)
        assert d["coords_exact"] == ["2/3", "1/3"]
        assert d["coords"] == ["0.6667", "0.3333"]

    def test_bad_config_file(self, tmp_path, capsys):
        conf = tmp_path / "treelab.conf"
        conf.write_text("nope = 1\n")
        code, _, err = run(capsys, "--config", str(conf), "enum", "--k", "4")
        assert code == 2

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--threads", "2", "verify"])
        assert e.value.code == 2
        assert "usage: treelab" in capsys.readouterr().err

    def test_threads_config_key_removed(self, tmp_path, capsys):
        conf = tmp_path / "treelab.conf"
        conf.write_text("threads = 2\n")
        code, out, err = run(capsys, "--config", str(conf), "verify", "--max-n", "5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "unknown config key 'threads'" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["enum"])  # missing --k
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "treelab" in capsys.readouterr().out
