from __future__ import annotations

import ast
import inspect
from pathlib import Path

import treelab


def test_all_names_resolve():
    missing = [name for name in treelab.__all__ if not hasattr(treelab, name)]
    assert missing == []
    assert len(set(treelab.__all__)) == len(treelab.__all__)


def test_public_imports_are_exported():
    tree = ast.parse(Path(inspect.getfile(treelab)).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {
        name for name in imported
        if not name.startswith("_")
        and (inspect.isfunction(getattr(treelab, name)) or inspect.isclass(getattr(treelab, name)))
    }
    assert public - set(treelab.__all__) == set()
