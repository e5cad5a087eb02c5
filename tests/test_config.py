"""Settings come from flags alone.

Each setting has one flag whose default is a constant in treelab.config;
no TREELAB_* variable and no file is read, so a run is a function of its
argv and input files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treelab
from treelab.cli import build_parser, main
from treelab.generators import make_millipede
from treelab.trees import dump_tree

TREELAB_ENV = {
    "TREELAB_MAX_K": "6",
    "TREELAB_DECIMAL_PRECISION": "5",
    "TREELAB_SEED": "3",
    "TREELAB_VERTEX_CAP": "10",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaults:
    def test_baseline(self):
        parse = build_parser().parse_args
        args = parse(["enum", "--k", "4"])
        assert (args.max_k, args.vertex_cap, args.decimal_precision) == (12, 1_000_000, 12)
        assert parse(["gen", "random", "--n", "3"]).seed == 0
        assert "seed" not in vars(parse(["scan"]))

    def test_four_settable_fields(self):
        # Three global flags; the seed belongs to the subcommands that use it.
        parse = build_parser().parse_args
        settings = {"max_k", "vertex_cap", "decimal_precision", "seed"}
        assert settings & vars(parse(["enum", "--k", "4"])).keys() == settings - {"seed"}
        assert settings <= vars(parse(["gen", "random", "--n", "3"])).keys()


class TestPrecedence:
    def test_flags_beat_environment(self, capsys, monkeypatch):
        # The environment is not a source: its cap neither blocks a default
        # run nor loosens a flag.
        monkeypatch.setenv("TREELAB_MAX_K", "4")
        assert run(capsys, "enum", "--k", "5")[0] == 0
        monkeypatch.setenv("TREELAB_MAX_K", "20")
        code, out, err = run(capsys, "--max-k", "4", "enum", "--k", "5")
        assert (code, out) == (2, "")
        assert err == "treelab: error: enum --k 5 exceeds the catalog cap --max-k 4\n"

    def test_environment_bad_value(self, capsys, monkeypatch):
        # A value the environment channel used to reject is never read.
        _, want, _ = run(capsys, "gen", "random", "--n", "10")
        monkeypatch.setenv("TREELAB_SEED", "many")
        monkeypatch.setenv("TREELAB_DECIMAL_PRECISION", "0")
        assert run(capsys, "gen", "random", "--n", "10") == (0, want, "")


class TestPrecision:
    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_flag_below_one_exits_two(self, tmp_path, capsys, precision):
        f = tmp_path / "t.json"
        dump_tree(make_millipede(1, 4), f)
        out_file = tmp_path / "out.csv"
        want = f"treelab: error: precision must be >= 1, got {precision}\n"
        for argv in (["profile", "--tree", str(f), "--k", "5", "--out", str(out_file)],
                     ["region", "--out", str(out_file)],
                     ["verify", "--suite", "census", "--report", str(out_file)],
                     ["inducibility", "--tree", str(f), "--out", str(out_file)]):
            assert run(capsys, f"--precision={precision}", *argv) == (2, "", want)
            assert not out_file.exists()


def _fresh_stdout(argv, extra_env) -> bytes:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREELAB_")}
    env.update(extra_env)
    src = str(Path(treelab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "treelab.cli", *argv],
                          env=env, capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def test_treelab_environment_is_ignored_in_a_fresh_interpreter(tmp_path):
    f = tmp_path / "t.json"
    dump_tree(make_millipede(2, 5), f)
    for argv in (["verify", "--max-n", "8"],
                 ["gen", "random", "--n", "30", "--seed", "4"],
                 ["profile", "--tree", str(f), "--k", "5"]):
        assert _fresh_stdout(argv, TREELAB_ENV) == _fresh_stdout(argv, {})
