"""The package's public namespace."""

from __future__ import annotations

import types

import xpathsat


def test_star_import_exports_no_submodules():
    ns: dict = {}
    exec("from xpathsat import *", ns)
    ns.pop("__builtins__")
    assert not [name for name, v in ns.items() if isinstance(v, types.ModuleType)]
    assert sorted(ns) == sorted(xpathsat.__all__)
    assert len(set(xpathsat.__all__)) == len(xpathsat.__all__)
    for name in ("satisfiable", "eval2", "SibMap", "Dtd", "parse_xpath", "oracle_satisfiable"):
        assert name in ns
