from __future__ import annotations

from dataclasses import fields

import pytest

from treelab.config import (
    Config,
    config_from_environment,
    parse_config_file,
    resolve_config,
)


class TestDefaults:
    def test_baseline(self):
        cfg = resolve_config()
        assert cfg.max_k == 12
        assert cfg.vertex_cap == 1_000_000
        assert cfg.decimal_precision == 12
        assert cfg.seed == 0

    def test_four_settable_fields(self):
        assert [f.name for f in fields(Config)] == [
            "max_k", "vertex_cap", "decimal_precision", "seed",
        ]


class TestFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "treelab.conf"
        p.write_text("# comment\nmax_k = 9\n\nvertex_cap=5000\n")
        assert parse_config_file(p) == {"max_k": 9, "vertex_cap": 5000}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("volume = 11\n")
        with pytest.raises(ValueError):
            parse_config_file(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("max_k = twelve\n")
        with pytest.raises(ValueError):
            parse_config_file(p)

    def test_missing_separator(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("max_k 9\n")
        with pytest.raises(ValueError):
            parse_config_file(p)


class TestPrecedence:
    def test_environment_beats_file(self, tmp_path):
        p = tmp_path / "treelab.conf"
        p.write_text("seed = 5\nmax_k = 9\n")
        cfg = resolve_config(environ={"TREELAB_SEED": "8"}, config_path=p)
        assert cfg.seed == 8
        assert cfg.max_k == 9

    def test_flags_beat_environment(self):
        cfg = resolve_config(
            flags={"seed": 3}, environ={"TREELAB_SEED": "8", "TREELAB_MAX_K": "9"}
        )
        assert cfg.seed == 3
        assert cfg.max_k == 9

    def test_none_flags_fall_through(self):
        cfg = resolve_config(flags={"seed": None}, environ={"TREELAB_SEED": "4"})
        assert cfg.seed == 4

    def test_environment_parsing(self):
        got = config_from_environment({"TREELAB_VERTEX_CAP": "123", "PATH": "/bin"})
        assert got == {"vertex_cap": 123}

    def test_environment_bad_value(self):
        with pytest.raises(ValueError):
            config_from_environment({"TREELAB_SEED": "many"})

    def test_threads_is_not_read(self):
        assert config_from_environment({"TREELAB_THREADS": "2"}) == {}
