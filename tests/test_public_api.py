"""The package's public names: `__all__` lists exactly the names of the
lazy export table in `__init__`, once each, `dir(diagmap)` lists them, and
every name in it resolves, so a deleted function cannot stay behind as an
export."""

import diagmap


def _table_names():
    return [name for names in diagmap._EXPORTS.values() for name in names]


def test_every_exported_name_resolves():
    assert [name for name in diagmap.__all__ if not hasattr(diagmap, name)] == []


def test_no_name_is_exported_twice():
    assert len(diagmap.__all__) == len(set(diagmap.__all__))


def test_all_is_what_init_imports():
    names = _table_names()
    assert len(names) == len(set(names))
    assert set(diagmap.__all__) == set(names)
    assert set(names) <= set(dir(diagmap))
