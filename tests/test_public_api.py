"""The package's public names: `__all__` lists exactly what `__init__`
imports, once each, and every name in it resolves, so a deleted function
cannot stay behind as an export."""

import ast
from pathlib import Path

import diagmap


def _imported_names():
    tree = ast.parse(Path(diagmap.__file__).read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_resolves():
    assert [name for name in diagmap.__all__ if not hasattr(diagmap, name)] == []


def test_no_name_is_exported_twice():
    assert len(diagmap.__all__) == len(set(diagmap.__all__))


def test_all_is_what_init_imports():
    assert set(diagmap.__all__) == _imported_names()
