"""Shared runtime configuration.

Resolution order for the command-line tool: explicit flags beat TREELAB_*
environment variables, which beat the config file, which beats the defaults
below.  The config file is plain ``key = value`` lines with ``#`` comments.
Config is the bundle the CLI resolves once and threads through.  Only the
CLI enforces budgets (max_k, vertex_cap) before building anything; library
functions take vertex_cap only where it sizes the result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

DEFAULT_MAX_K = 12
DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_DECIMAL_PRECISION = 12
DEFAULT_SEED = 0

_ENV_PREFIX = "TREELAB_"
_INT_KEYS = ("max_k", "vertex_cap", "decimal_precision", "seed")
# Environment spellings: TREELAB_MAX_K, TREELAB_VERTEX_CAP,
# TREELAB_DECIMAL_PRECISION, TREELAB_SEED.


@dataclass(frozen=True)
class Config:
    """Knobs shared across subcommands.

    Commands run serially in the calling thread; these knobs change what
    a command computes or prints, never how its work is scheduled.
    """

    max_k: int = DEFAULT_MAX_K
    vertex_cap: int = DEFAULT_VERTEX_CAP
    decimal_precision: int = DEFAULT_DECIMAL_PRECISION
    seed: int = DEFAULT_SEED


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; unknown keys are rejected."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _INT_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
    return values


def config_from_environment(environ=None) -> dict:
    env = os.environ if environ is None else environ
    values: dict = {}
    for key in _INT_KEYS:
        raw = env.get(_ENV_PREFIX + key.upper())
        if raw is not None:
            try:
                values[key] = int(raw)
            except ValueError:
                raise ValueError(f"{_ENV_PREFIX}{key.upper()} must be an integer, got {raw!r}") from None
    return values


def resolve_config(flags: dict | None = None, environ=None, config_path=None) -> Config:
    """Merge defaults < config file < environment < explicit flags, then
    reject a decimal precision below 1, wherever it came from."""
    cfg = Config()
    if config_path is not None:
        cfg = replace(cfg, **parse_config_file(config_path))
    env_values = config_from_environment(environ)
    if env_values:
        cfg = replace(cfg, **env_values)
    if flags:
        cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    if cfg.decimal_precision < 1:
        raise ValueError(f"precision must be >= 1, got {cfg.decimal_precision}")
    return cfg
