"""The package's public namespace."""

from __future__ import annotations

import ast
import pathlib
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


def test_modules_use_every_name_they_import():
    # no linter runs offline, so the package's own import lines are read
    # here; `__init__` imports to re-export
    src = pathlib.Path(xpathsat.__file__).parent
    unused = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert not unused


def test_every_private_top_level_name_is_used_elsewhere():
    # a private function, class or constant that only its own body names
    # is left over from a removed route; tests do not count as a use
    src = pathlib.Path(xpathsat.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    defined = {}  # (module, name) -> ids of the nodes of its definition
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = {id(n) for n in ast.walk(node)}
    uses = []  # (node id, name) of every read of a name, attribute or import
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((id(node), node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((id(node), node.attr))
            elif isinstance(node, ast.alias):
                uses.append((id(node), node.name))
    orphans = [
        f"{module}:{name}" for (module, name), own in defined.items()
        if not any(used == name and i not in own for i, used in uses)
    ]
    assert not orphans


def test_only_cli_main_prints():
    # commands return their result and `cli.main` alone prints it, as text
    # or JSON, so output added to a command is written once
    src = pathlib.Path(xpathsat.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(n) for n in ast.walk(main)}
        for node in ast.walk(tree):
            prints = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print" and id(node) not in allowed
            )
            stdout = (
                isinstance(node, ast.Attribute) and node.attr == "stdout"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(a.name == "stdout" for a in node.names)
            )
            if prints or stdout:
                found.append(f"{path.name}:{node.lineno}")
    assert not found
